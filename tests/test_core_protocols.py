"""Tests for repro.core.protocols (Algorithms 1 and 2 + the [6] baseline)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.equilibrium import is_nash
from repro.core.flows import expected_flows
from repro.core.protocols import (
    PerTaskThresholdProtocol,
    Protocol,
    RoundSummary,
    SelfishUniformProtocol,
    SelfishWeightedProtocol,
)
from repro.errors import ProtocolError
from repro.graphs.generators import complete_graph, cycle_graph, path_graph, star_graph
from repro.graphs.graph import Graph, KernelTables
from repro.model.state import UniformState, WeightedState


class TestProtocolBase:
    def test_alpha_resolution_default(self):
        protocol = SelfishUniformProtocol()
        state = UniformState([1, 1], [1.0, 3.0])
        assert protocol.resolve_alpha(state) == 12.0

    def test_alpha_resolution_explicit(self):
        protocol = SelfishUniformProtocol(alpha=20.0)
        state = UniformState([1, 1], [1.0, 3.0])
        assert protocol.resolve_alpha(state) == 20.0

    def test_invalid_alpha(self):
        with pytest.raises(Exception):
            SelfishUniformProtocol(alpha=-1.0)

    def test_graph_size_mismatch(self, ring8):
        protocol = SelfishUniformProtocol()
        state = UniformState([1, 1], [1.0, 1.0])
        with pytest.raises(ProtocolError, match="vertices"):
            protocol.execute_round(state, ring8, np.random.default_rng(0))

    def test_base_round_not_implemented(self, ring8):
        state = UniformState(np.ones(8, dtype=int), np.ones(8))
        with pytest.raises(NotImplementedError):
            Protocol().execute_round(state, ring8, np.random.default_rng(0))


class TestSelfishUniformProtocol:
    def test_requires_uniform_state(self, ring8, rng):
        protocol = SelfishUniformProtocol()
        state = WeightedState(np.zeros(5, dtype=int), np.full(5, 0.5), np.ones(8))
        with pytest.raises(ProtocolError):
            protocol.execute_round(state, ring8, rng)

    def test_mass_conservation(self, ring8, rng):
        protocol = SelfishUniformProtocol()
        state = UniformState(np.array([80, 0, 0, 0, 0, 0, 0, 0]), np.ones(8))
        for _ in range(50):
            protocol.execute_round(state, ring8, rng)
            assert state.num_tasks == 80
            assert np.all(state.counts >= 0)

    def test_nash_state_absorbing(self, ring8, rng):
        """No moves ever happen from an exact NE."""
        protocol = SelfishUniformProtocol()
        state = UniformState(np.full(8, 10), np.ones(8))
        for _ in range(30):
            summary = protocol.execute_round(state, ring8, rng)
            assert summary.tasks_moved == 0
        np.testing.assert_array_equal(state.counts, np.full(8, 10))

    def test_moves_only_along_edges(self, rng):
        """On a star, tasks on leaves can only move to the hub."""
        graph = star_graph(5)
        counts = np.array([0, 40, 0, 0, 0])
        state = UniformState(counts, np.ones(5))
        protocol = SelfishUniformProtocol()
        protocol.execute_round(state, graph, rng)
        # Tasks from node 1 may only have gone to hub 0.
        assert state.counts[2] == 0
        assert state.counts[3] == 0
        assert state.counts[4] == 0
        assert state.counts[0] + state.counts[1] == 40

    def test_expected_moves_match_flows(self, rng):
        """Mean migrants per edge ~ f_ij over many sampled rounds."""
        graph = path_graph(2)
        state = UniformState([40, 0], [1.0, 1.0])
        protocol = SelfishUniformProtocol()
        _, _, flows = expected_flows(state, graph)
        expected = flows[flows > 0][0]  # 40 / 8 = 5
        samples = []
        for _ in range(4000):
            trial = state.copy()
            protocol.execute_round(trial, graph, rng)
            samples.append(40 - trial.counts[0])
        mean = float(np.mean(samples))
        standard_error = float(np.std(samples)) / np.sqrt(len(samples))
        assert abs(mean - expected) < 4 * standard_error + 1e-9

    def test_no_moves_below_threshold(self, rng):
        graph = path_graph(2)
        state = UniformState([5, 4], [1.0, 1.0])  # gap 1 = 1/s_j
        protocol = SelfishUniformProtocol()
        summary = protocol.execute_round(state, graph, rng)
        assert summary.tasks_moved == 0

    def test_empty_state(self, ring8, rng):
        state = UniformState(np.zeros(8, dtype=int), np.ones(8))
        summary = SelfishUniformProtocol().execute_round(state, ring8, rng)
        assert summary == RoundSummary(0, 0.0, False)

    def test_saturation_flag_with_tiny_alpha(self, rng):
        graph = complete_graph(4)
        state = UniformState([1000, 0, 0, 0], np.ones(4))
        protocol = SelfishUniformProtocol(alpha=0.01)
        summary = protocol.execute_round(state, graph, rng)
        assert summary.saturated

    def test_deterministic_given_seed(self, ring8):
        counts = np.array([40, 0, 10, 0, 5, 0, 25, 0])
        a = UniformState(counts.copy(), np.ones(8))
        b = UniformState(counts.copy(), np.ones(8))
        SelfishUniformProtocol().execute_round(a, ring8, np.random.default_rng(9))
        SelfishUniformProtocol().execute_round(b, ring8, np.random.default_rng(9))
        np.testing.assert_array_equal(a.counts, b.counts)


class TestSelfishWeightedProtocol:
    def make_state(self, rng, n=8, m=200):
        weights = rng.uniform(0.1, 1.0, size=m)
        locations = np.zeros(m, dtype=np.int64)
        return WeightedState(locations, weights, np.ones(n))

    def test_requires_weighted_state(self, ring8, rng):
        state = UniformState(np.ones(8, dtype=int), np.ones(8))
        with pytest.raises(ProtocolError):
            SelfishWeightedProtocol().execute_round(state, ring8, rng)

    def test_invalid_rule(self):
        with pytest.raises(ProtocolError):
            SelfishWeightedProtocol(rule="bogus")

    def test_rule_property(self):
        assert SelfishWeightedProtocol(rule="flow").rule == "flow"
        assert SelfishWeightedProtocol(rule="pseudocode").rule == "pseudocode"

    def test_weight_conservation(self, ring8, rng):
        state = self.make_state(rng)
        before = state.total_weight
        protocol = SelfishWeightedProtocol()
        for _ in range(30):
            protocol.execute_round(state, ring8, rng)
        assert state.total_weight == pytest.approx(before)

    def test_threshold_state_absorbing(self, ring8, rng):
        """Once l_i - l_j <= 1/s_j everywhere, Algorithm 2 never moves."""
        m = 80
        weights = np.full(m, 0.5)
        locations = np.repeat(np.arange(8), 10)
        state = WeightedState(locations, weights, np.ones(8))
        assert is_nash(state, ring8)
        protocol = SelfishWeightedProtocol()
        for _ in range(30):
            assert protocol.execute_round(state, ring8, rng).tasks_moved == 0

    def test_expected_weight_flow_matches(self, rng):
        """Flow rule: mean migrated weight ~ f_ij of Definition 4.1."""
        graph = path_graph(2)
        m = 60
        weights = np.full(m, 0.5)
        state = WeightedState(np.zeros(m, dtype=np.int64), weights, [1.0, 1.0])
        _, _, flows = expected_flows(state, graph)
        expected = flows[flows > 0][0]
        protocol = SelfishWeightedProtocol(rule="flow")
        samples = []
        for _ in range(3000):
            trial = state.copy()
            summary = protocol.execute_round(trial, graph, rng)
            samples.append(summary.weight_moved)
        mean = float(np.mean(samples))
        standard_error = float(np.std(samples)) / np.sqrt(len(samples))
        assert abs(mean - expected) < 4 * standard_error + 1e-9

    def test_pseudocode_matches_flow_for_uniform_speeds(self, rng):
        """The two rules coincide when all speeds are equal."""
        graph = path_graph(2)
        m = 60
        weights = np.full(m, 0.5)
        means = {}
        for rule in ("flow", "pseudocode"):
            protocol = SelfishWeightedProtocol(rule=rule)
            local_rng = np.random.default_rng(123)
            moved = []
            for _ in range(2000):
                state = WeightedState(
                    np.zeros(m, dtype=np.int64), weights, [1.0, 1.0]
                )
                summary = protocol.execute_round(state, graph, local_rng)
                moved.append(summary.weight_moved)
            means[rule] = float(np.mean(moved))
        assert means["flow"] == pytest.approx(means["pseudocode"], rel=0.15)

    def test_empty_task_system(self, ring8, rng):
        state = WeightedState(
            np.zeros(0, dtype=np.int64), np.zeros(0), np.ones(8)
        )
        summary = SelfishWeightedProtocol().execute_round(state, ring8, rng)
        assert summary.tasks_moved == 0


class TestPerTaskThresholdProtocol:
    def test_light_tasks_keep_moving(self, rng):
        """A threshold-NE state can still have per-task incentives."""
        graph = path_graph(2)
        # Loads 0.9 vs 0: threshold-NE, but light tasks (0.3 < 0.9) move.
        weights = np.full(3, 0.3)
        state = WeightedState(np.zeros(3, dtype=np.int64), weights, [1.0, 1.0])
        assert is_nash(state, graph)
        protocol = PerTaskThresholdProtocol()
        moved = 0
        for _ in range(300):
            moved += protocol.execute_round(state, graph, rng).tasks_moved
        assert moved > 0

    def test_requires_weighted_state(self, ring8, rng):
        state = UniformState(np.ones(8, dtype=int), np.ones(8))
        with pytest.raises(ProtocolError):
            PerTaskThresholdProtocol().execute_round(state, ring8, rng)

    def test_weight_conserved(self, ring8, rng):
        weights = rng.uniform(0.1, 1.0, size=100)
        state = WeightedState(np.zeros(100, dtype=np.int64), weights, np.ones(8))
        before = state.total_weight
        protocol = PerTaskThresholdProtocol()
        for _ in range(30):
            protocol.execute_round(state, ring8, rng)
        assert state.total_weight == pytest.approx(before)

    def test_per_task_exact_nash_absorbing(self, rng):
        graph = path_graph(2)
        # Loads 1.0 vs 0.9; gaps 0.1 <= every weight -> per-task NE.
        state = WeightedState(
            np.array([0, 1]), np.array([1.0, 0.9]), [1.0, 1.0]
        )
        protocol = PerTaskThresholdProtocol()
        for _ in range(50):
            assert protocol.execute_round(state, graph, rng).tasks_moved == 0


def _expected_tables(graph):
    """The kernel tables, computed slot by slot from the CSR lists."""
    rows, dij, slots = [], [], []
    for node in range(graph.num_vertices):
        for position, neighbour in enumerate(graph.neighbors(node)):
            rows.append(node)
            dij.append(max(graph.degree(node), graph.degree(int(neighbour))))
            slots.append(position)
    degrees = [graph.degree(node) for node in range(graph.num_vertices)]
    return {
        "csr_rows": np.array(rows, dtype=np.int64),
        "dij_csr": np.array(dij, dtype=np.float64),
        "slot_in_row": np.array(slots, dtype=np.int64),
        "nodes_by_slot": [
            np.array([v for v, d in enumerate(degrees) if d > slot], dtype=np.int64)
            for slot in range(max(degrees))
        ],
        "deg_float": np.array(degrees, dtype=np.float64),
        "degm1": np.array(degrees, dtype=np.int64) - 1,
        "has_isolated": 0 in degrees,
    }


def _assert_tables_match(graph):
    tables = graph.kernel_tables
    for name, expected in _expected_tables(graph).items():
        actual = getattr(tables, name)
        if isinstance(expected, list):
            assert len(actual) == len(expected)
            for got, want in zip(actual, expected):
                np.testing.assert_array_equal(got, want, strict=True)
        elif isinstance(expected, np.ndarray):
            np.testing.assert_array_equal(actual, expected, strict=True)
        else:
            assert actual is expected


def _weighted_state(graph, seed):
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    return WeightedState(
        rng.integers(0, n, size=4 * n), rng.uniform(0.2, 1.0, size=4 * n), [1.0] * n
    )


class TestKernelTables:
    """The per-CSR-slot lookups the kernels read live on the graph."""

    @pytest.mark.parametrize(
        "graph",
        [
            cycle_graph(8),
            cycle_graph(3),
            star_graph(7),
            complete_graph(5),
            Graph(12, cycle_graph(11).edges, name="cycle11+isolated"),
            Graph(4, [], name="empty4"),
            cycle_graph(10).without_edges([(0, 1), (4, 5)]),
            path_graph(6).with_edges([(0, 5), (1, 4)]),
        ],
        ids=[
            "cycle8",
            "cycle3",
            "star7",
            "complete5",
            "isolated",
            "edgeless",
            "without-edges",
            "with-edges",
        ],
    )
    def test_tables_match_fresh_computation(self, graph):
        _assert_tables_match(graph)

    def test_renamed_shares_built_tables(self):
        base = star_graph(6)
        early = base.renamed("early")  # renamed before the tables exist
        tables = base.kernel_tables
        late = base.renamed("late")
        assert late.kernel_tables is tables
        assert early.kernel_tables is not tables
        _assert_tables_match(early)
        _assert_tables_match(late)

    def test_built_once_per_graph(self, monkeypatch):
        from repro.core.reference import ReferenceUniformProtocol
        from repro.model.batch import BatchUniformState, BatchWeightedState
        from repro.utils.rng import CounterStreams, spawn_rngs

        built = []
        init = KernelTables.__init__

        def counting_init(self, graph):
            built.append(graph)
            init(self, graph)

        monkeypatch.setattr(KernelTables, "__init__", counting_init)
        graph = cycle_graph(6)
        uniform = UniformState([12, 0, 3, 0, 7, 1], [1.0, 2.0, 1.0, 1.0, 2.0, 1.0])
        weighted = _weighted_state(graph, 3)
        rng = np.random.default_rng(0)
        for _ in range(3):
            for protocol in (SelfishUniformProtocol(), ReferenceUniformProtocol()):
                protocol.execute_round(uniform.copy(), graph, rng)
            for protocol in (
                SelfishWeightedProtocol(),
                SelfishWeightedProtocol(rule="pseudocode"),
                PerTaskThresholdProtocol(),
            ):
                protocol.execute_round(weighted.copy(), graph, rng)
                stack = BatchWeightedState.replicate(weighted, 2)
                protocol.execute_round_batch(stack, graph, spawn_rngs(1, 2))
                streams = CounterStreams(1, 2)
                streams.begin_round(0)
                protocol.execute_round_batch(stack, graph, streams)
            SelfishUniformProtocol().execute_round_batch(
                BatchUniformState.replicate(uniform, 2), graph, spawn_rngs(1, 2)
            )
        assert built == [graph]

    def test_protocols_hold_no_graph_state(self):
        protocol = SelfishWeightedProtocol()
        before = set(vars(protocol))
        rng = np.random.default_rng(5)
        for graph in (cycle_graph(6), star_graph(6), complete_graph(6)):
            protocol.execute_round(_weighted_state(graph, 4), graph, rng)
        assert set(vars(protocol)) == before
        assert not any(
            isinstance(value, (Graph, KernelTables)) for value in vars(protocol).values()
        )
