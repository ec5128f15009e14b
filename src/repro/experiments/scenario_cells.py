"""Picklable scenario measurement cells for the sweep executor.

Each builder here constructs one independent measurement cell in the
:mod:`repro.experiments.executor` sense — deterministic in ``(family,
n, m_factor, seed, params)``, deriving its own stream from ``(seed,
family, n, tag)`` — so the ``scenarios-*`` experiments and the ported
``robustness`` experiment fan their cells over a process pool with
results identical at any worker count.

Four kinds, one builder each:

* ``"scenario-recovery"`` (:func:`_build_recovery_cell`) — Poisson
  churn plus one mid-run load shock, on uniform *or* weighted task
  systems, measuring post-shock recovery and steady-state bands;
* ``"shock-recovery"`` (:func:`_build_shock_cell`) — the
  self-stabilization check: repeated shocks, each recovery compared to
  the Theorem 1.1 bound;
* ``"churn-band"`` (:func:`_build_churn_cell`) — stationary churn,
  checking the potential stays in a band around the balanced region;
* ``"topology-resilience"`` (:func:`_build_topology_cell`) — an
  edge-failure / network-partition / recovery cycle, tracking the
  per-round graph factor ``Delta / lambda_2`` (``inf`` through the
  disconnected window) and post-recovery re-convergence.

A builder returns the same cell record as the static kinds
(:class:`repro.experiments._common._Cell`, made by
:func:`_scenario_cell`): its ``ensemble`` is
:meth:`~repro.scenarios.ScenarioRunner.run_ensemble` bound to the
cell's runner, state factory, horizon and cell seed; its ``merge`` is
:func:`~repro.scenarios.merge_replica_results`; its ``summarize`` is
pure aggregation of a :class:`~repro.scenarios.ScenarioResult` into the
kind's frozen measurement dataclass. The executor
(:data:`~repro.experiments.executor.CELL_KINDS`) runs the ensemble, or
replica windows of it in worker processes, merges the windows and
summarizes in the parent; that is byte-identical to the monolithic run
because spawned windows draw exactly their replicas' monolithic
streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from repro.analysis.dynamics import (
    recovery_rounds,
    rolling_violation,
    steady_state_band,
    time_averaged_imbalance,
)
from repro.core.protocols import (
    Protocol,
    SelfishUniformProtocol,
    SelfishWeightedProtocol,
)
from repro.core.stopping import NashStop, PotentialThresholdStop, StoppingRule
from repro.errors import ValidationError
from repro.experiments._common import _Cell
from repro.graphs.families import get_family
from repro.model.placement import (
    adversarial_placement,
    place_weighted_random,
    random_placement,
)
from repro.model.state import UniformState, WeightedState
from repro.model.tasks import two_class_weights
from repro.scenarios import (
    EdgeFailure,
    EdgeRecovery,
    LoadShock,
    NetworkPartition,
    PoissonChurnEvent,
    Schedule,
    ScenarioResult,
    ScenarioRunner,
    at,
    every,
    merge_replica_results,
)
from repro.spectral.eigen import algebraic_connectivity
from repro.theory.bounds import GraphQuantities, theorem11_round_bound
from repro.theory.constants import psi_critical
from repro.utils.rng import derive_seed

__all__ = [
    "ScenarioCellMeasurement",
    "ShockRecoveryMeasurement",
    "ChurnBandMeasurement",
    "TopologyResilienceMeasurement",
]


def _scenario_setup(
    graph, tasks: str, m: int
) -> tuple[Protocol, StoppingRule, object]:
    """Protocol, recovery target, and state factory for one task system.

    Uniform tasks recover to the Theorem 1.1 region (``Psi_0 <= 4
    psi_c``); weighted tasks (two-class heavy/light mix) recover to the
    threshold state ``l_i - l_j <= 1/s_j`` (Algorithm 2's target).
    """
    n = graph.num_vertices
    speeds = np.ones(n, dtype=np.float64)
    if tasks == "uniform":
        lambda2 = algebraic_connectivity(graph)
        threshold = 4.0 * psi_critical(n, graph.max_degree, lambda2, 1.0)
        target: StoppingRule = PotentialThresholdStop(threshold, "psi0")

        def factory(rng: np.random.Generator) -> UniformState:
            return UniformState(random_placement(n, m, rng), speeds)

        return SelfishUniformProtocol(), target, factory
    if tasks == "weighted":
        weights = two_class_weights(m, heavy_fraction=0.1, heavy=1.0, light=0.1)

        def factory(rng: np.random.Generator) -> WeightedState:
            return WeightedState(place_weighted_random(m, n, rng), weights, speeds)

        return SelfishWeightedProtocol(), NashStop(), factory
    raise ValidationError(
        f"tasks must be 'uniform' or 'weighted', got {tasks!r}"
    )


def _scenario_cell(
    runner: ScenarioRunner,
    factory: Callable[[np.random.Generator], object],
    horizon: int,
    cell_seed: int,
    summarize: Callable[[ScenarioResult], object],
) -> _Cell:
    """The cell that runs ``horizon`` rounds of ``runner``'s ensemble."""
    return _Cell(
        partial(runner.run_ensemble, factory, rounds=horizon, seed=cell_seed),
        merge_replica_results,
        summarize,
    )


@dataclass(frozen=True)
class ScenarioCellMeasurement:
    """Churn-plus-shock scenario measurement for one (family, size) cell.

    Attributes
    ----------
    family, n, m, tasks:
        Cell configuration (``tasks`` is ``"uniform"`` or ``"weighted"``).
    engine:
        Which engine ran the replicas (``"batch"`` or ``"scalar"``).
    num_replicas, num_recovered:
        Ensemble size and how many replicas re-reached the target after
        the shock within the horizon.
    shock_round, horizon:
        The schedule's shock round and the run length.
    median_recovery, max_recovery:
        Post-shock recovery rounds over the recovered replicas (NaN / -1
        when none recovered).
    mean_imbalance:
        Pooled post-warmup time-averaged ``L_Delta``.
    violation_preshock, violation_peak, violation_settled:
        Rolling Nash-violation fraction: the pre-shock band (last full
        window before the shock), the post-shock peak, and the final
        window — the recovery signature. A recovered system settles
        back to (near) its pre-shock band; the peak is reporting-only
        since the settled value is contained in its window.
    psi0_median, psi0_p95:
        Post-warmup steady-state band of ``Psi_0``.
    """

    family: str
    n: int
    m: int
    tasks: str
    engine: str
    num_replicas: int
    num_recovered: int
    shock_round: int
    horizon: int
    median_recovery: float
    max_recovery: float
    mean_imbalance: float
    violation_preshock: float
    violation_peak: float
    violation_settled: float
    psi0_median: float
    psi0_p95: float


def _build_recovery_cell(
    family_name: str,
    target_n: int,
    m_factor: float,
    seed: int,
    tasks: str = "uniform",
    churn_rate: float = 1.0,
    churn_weight: float = 0.5,
    shock_round: int = 60,
    shock_fraction: float = 0.5,
    horizon: int = 180,
    warmup: int = 20,
    violation_window: int = 10,
) -> _Cell:
    """Recovery from a mid-churn load shock on one cell.

    ``m = ceil(m_factor * n)`` tasks from a random start, stationary
    Poisson churn every round, and one flash crowd at ``shock_round``
    relocating ``shock_fraction`` of all tasks onto node 0. The cell
    seed derives from ``(seed, family, n, "scenario-<tasks>")``.
    """
    family = get_family(family_name)
    graph = family.make(target_n)
    n = graph.num_vertices
    m = int(math.ceil(m_factor * n))
    protocol, target, factory = _scenario_setup(graph, tasks, m)
    schedule = Schedule(
        [
            every(1, PoissonChurnEvent(churn_rate, weight=churn_weight)),
            at(shock_round, LoadShock(shock_fraction, node=0)),
        ]
    )
    runner = ScenarioRunner(graph, protocol, schedule, target=target)

    def summarize(result: ScenarioResult) -> ScenarioCellMeasurement:
        recovery = recovery_rounds(result.target_satisfied, shock_round)
        recovered = recovery[recovery >= 0]
        rolling = rolling_violation(result.nash_violation, violation_window)
        post_shock = rolling[min(shock_round, rolling.shape[0] - 1) :]
        # Last rolling window made entirely of pre-shock records (record
        # shock_round itself is recorded before the shock applies).
        preshock_index = max(
            min(shock_round + 1, rolling.shape[0]) - violation_window, 0
        )
        band = steady_state_band(result.psi0, warmup)
        return ScenarioCellMeasurement(
            family=family_name,
            n=n,
            m=m,
            tasks=tasks,
            engine=result.engine,
            num_replicas=result.num_replicas,
            num_recovered=int(recovered.shape[0]),
            shock_round=shock_round,
            horizon=horizon,
            median_recovery=(
                float(np.median(recovered)) if recovered.size else float("nan")
            ),
            max_recovery=(float(recovered.max()) if recovered.size else -1.0),
            mean_imbalance=float(
                time_averaged_imbalance(result.max_load_difference, warmup).mean()
            ),
            violation_preshock=float(rolling[preshock_index].mean()),
            violation_peak=float(post_shock.max()) if post_shock.size else 0.0,
            violation_settled=float(rolling[-1].mean()),
            psi0_median=band.median,
            psi0_p95=band.p95,
        )

    return _scenario_cell(
        runner,
        factory,
        horizon,
        derive_seed(seed, family_name, n, f"scenario-{tasks}"),
        summarize,
    )



@dataclass(frozen=True)
class ShockRecoveryMeasurement:
    """Repeated-shock self-stabilization measurement for one cell.

    ``recovery_medians`` / ``recovery_maxima`` have one entry per shock
    (median / worst replica); ``initial_rounds`` is the median first
    round the adversarial start reached the target. ``within_bound`` is
    the experiment's verdict: every replica recovered from every shock
    within the Theorem 1.1 bound.
    """

    family: str
    n: int
    m: int
    engine: str
    num_replicas: int
    num_shocks: int
    bound_rounds: float
    initial_rounds: float
    recovery_medians: tuple[float, ...]
    recovery_maxima: tuple[float, ...]
    psi0_after_shocks: tuple[float, ...]
    within_bound: bool


def _build_shock_cell(
    family_name: str,
    target_n: int,
    m_factor: float,
    seed: int,
    num_shocks: int = 3,
    shock_fraction: float = 0.5,
    budget_factor: float = 2.0,
) -> _Cell:
    """Recovery from repeated adversarial shocks on one cell.

    ``m = ceil(m_factor * n^2)`` tasks start adversarially (all on one
    node); shocks relocating ``shock_fraction`` of all tasks onto node 0
    fire every ``budget_factor x bound`` rounds, giving each recovery
    the same budget the static Theorem 1.1 measurement allows. The
    memoryless protocol must re-reach ``Psi_0 <= 4 psi_c`` within the
    bound after *every* shock.
    """
    family = get_family(family_name)
    graph = family.make(target_n)
    n = graph.num_vertices
    m = int(math.ceil(m_factor * n * n))
    speeds = np.ones(n, dtype=np.float64)
    lambda2 = algebraic_connectivity(graph)
    quantities = GraphQuantities(n=n, max_degree=graph.max_degree, lambda2=lambda2)
    psi_c = psi_critical(n, graph.max_degree, lambda2, 1.0)
    bound = theorem11_round_bound(quantities, m, 1.0)
    gap = int(math.ceil(budget_factor * bound))
    shock_rounds = [gap * (index + 1) for index in range(num_shocks)]
    horizon = gap * (num_shocks + 1)

    def factory(rng: np.random.Generator) -> UniformState:
        return UniformState(adversarial_placement(speeds, m), speeds)

    schedule = Schedule([at(shock_rounds, LoadShock(shock_fraction, node=0))])
    runner = ScenarioRunner(
        graph,
        SelfishUniformProtocol(),
        schedule,
        target=PotentialThresholdStop(4.0 * psi_c, "psi0"),
    )

    def summarize(result: ScenarioResult) -> ShockRecoveryMeasurement:
        initial = recovery_rounds(result.target_satisfied, 0)
        medians: list[float] = []
        maxima: list[float] = []
        # The initial adversarial-start convergence only needs to land
        # within its budget_factor x bound segment (the historical
        # criterion); the bound itself is asserted for the *post-shock*
        # recoveries, which is the self-stabilization claim under test.
        within = bool(np.all(initial >= 0) and float(initial.max()) <= gap)
        for shock_round in shock_rounds:
            recovery = recovery_rounds(result.target_satisfied, shock_round)
            ok = bool(np.all(recovery >= 0) and float(recovery.max()) <= bound)
            within = within and ok
            medians.append(float(np.median(recovery)))
            maxima.append(float(recovery.max()))
        shock_records = result.events_named("shock")
        return ShockRecoveryMeasurement(
            family=family_name,
            n=n,
            m=m,
            engine=result.engine,
            num_replicas=result.num_replicas,
            num_shocks=num_shocks,
            bound_rounds=bound,
            initial_rounds=float(np.median(initial)),
            recovery_medians=tuple(medians),
            recovery_maxima=tuple(maxima),
            psi0_after_shocks=tuple(
                float(np.median(record.psi0_after)) for record in shock_records
            ),
            within_bound=within,
        )

    return _scenario_cell(
        runner,
        factory,
        horizon,
        derive_seed(seed, family_name, n, "shock"),
        summarize,
    )



@dataclass(frozen=True)
class ChurnBandMeasurement:
    """Stationary-churn band measurement for one cell.

    ``psi0_series`` is the per-round replica-mean potential (for the
    figure-style CSV export); the verdict ``stationary`` requires the
    pooled post-warmup p95 of ``Psi_0`` to stay within ``16 psi_c``.
    """

    family: str
    n: int
    m: int
    engine: str
    num_replicas: int
    churn_rate: float
    horizon: int
    warmup: int
    median_psi0: float
    p95_psi0: float
    psi_c: float
    stationary: bool
    psi0_series: tuple[float, ...]


def _build_churn_cell(
    family_name: str,
    target_n: int,
    m_factor: float,
    seed: int,
    churn_rate: float = 5.0,
    horizon: int = 400,
    warmup: int = 100,
) -> _Cell:
    """The stationary potential band under Poisson churn."""
    family = get_family(family_name)
    graph = family.make(target_n)
    n = graph.num_vertices
    m = int(math.ceil(m_factor * n * n))
    speeds = np.ones(n, dtype=np.float64)
    lambda2 = algebraic_connectivity(graph)
    psi_c = psi_critical(n, graph.max_degree, lambda2, 1.0)

    def factory(rng: np.random.Generator) -> UniformState:
        return UniformState(random_placement(n, m, rng), speeds)

    schedule = Schedule([every(1, PoissonChurnEvent(churn_rate))])
    runner = ScenarioRunner(graph, SelfishUniformProtocol(), schedule)

    def summarize(result: ScenarioResult) -> ChurnBandMeasurement:
        band = steady_state_band(result.psi0, warmup)
        return ChurnBandMeasurement(
            family=family_name,
            n=n,
            m=m,
            engine=result.engine,
            num_replicas=result.num_replicas,
            churn_rate=churn_rate,
            horizon=horizon,
            warmup=warmup,
            median_psi0=band.median,
            p95_psi0=band.p95,
            psi_c=psi_c,
            stationary=band.p95 <= 16.0 * psi_c,
            psi0_series=tuple(float(v) for v in result.psi0[1:].mean(axis=1)),
        )

    return _scenario_cell(
        runner,
        factory,
        horizon,
        derive_seed(seed, family_name, n, "churn"),
        summarize,
    )



@dataclass(frozen=True)
class TopologyResilienceMeasurement:
    """Edge-failure / partition / recovery measurement for one cell.

    The schedule: a random ``fail_fraction`` of live edges fail at
    ``fail_round``, the first ``n // 2`` vertices are partitioned off at
    ``partition_round``, and the base network is restored wholesale at
    ``recover_round``. Attributes track the paper's graph factor
    ``Delta / lambda_2`` through the cycle:

    ``gap_baseline`` (row 0), ``gap_degraded`` (after the edge failure,
    just before the partition), ``gap_partitioned`` (first disconnected
    row — ``inf``, never an exception), ``gap_restored`` (the final row
    equals the baseline *exactly*: the restored graph is structurally
    equal to the original, so the memoized spectral entry is reused).
    ``disconnected_rounds`` counts rows with ``lambda_2 = 0``;
    recovery statistics are measured from ``recover_round`` against the
    cell's equilibrium target. ``gap_series`` is the full ``(T + 1,)``
    trace for CSV export.
    """

    family: str
    n: int
    m: int
    tasks: str
    engine: str
    num_replicas: int
    fail_round: int
    partition_round: int
    recover_round: int
    horizon: int
    gap_baseline: float
    gap_degraded: float
    gap_partitioned: float
    gap_restored: bool
    disconnected_rounds: int
    num_recovered: int
    median_recovery: float
    max_recovery: float
    gap_series: tuple[float, ...]


def _build_topology_cell(
    family_name: str,
    target_n: int,
    m_factor: float,
    seed: int,
    tasks: str = "uniform",
    fail_fraction: float = 0.3,
    fail_round: int = 20,
    partition_round: int = 45,
    recover_round: int = 70,
    horizon: int = 140,
) -> _Cell:
    """Resilience through a failure → partition → recovery cycle.

    ``m = ceil(m_factor * n)`` tasks from a random start; the topology
    events are replica-stable (their randomness derives from the cell
    seed, not the replica streams), so both engines and both RNG
    policies see the identical graph sequence, and the cell can shard
    into replica windows under the spawned policy.
    """
    if not 0 < fail_round < partition_round < recover_round < horizon:
        raise ValidationError(
            "rounds must satisfy 0 < fail_round < partition_round < "
            f"recover_round < horizon, got ({fail_round}, {partition_round}, "
            f"{recover_round}, {horizon})"
        )
    family = get_family(family_name)
    graph = family.make(target_n)
    n = graph.num_vertices
    m = int(math.ceil(m_factor * n))
    protocol, target, factory = _scenario_setup(graph, tasks, m)
    schedule = Schedule(
        [
            at(
                fail_round,
                EdgeFailure(
                    fraction=fail_fraction,
                    seed=derive_seed(seed, family_name, n, "edge-fail"),
                ),
            ),
            at(partition_round, NetworkPartition(tuple(range(n // 2)))),
            at(recover_round, EdgeRecovery()),
        ]
    )
    runner = ScenarioRunner(graph, protocol, schedule, target=target)

    def summarize(result: ScenarioResult) -> TopologyResilienceMeasurement:
        gap = result.gap_ratio
        connected = result.connected
        recovery = recovery_rounds(result.target_satisfied, recover_round)
        recovered = recovery[recovery >= 0]
        return TopologyResilienceMeasurement(
            family=family_name,
            n=n,
            m=m,
            tasks=tasks,
            engine=result.engine,
            num_replicas=result.num_replicas,
            fail_round=fail_round,
            partition_round=partition_round,
            recover_round=recover_round,
            horizon=horizon,
            gap_baseline=float(gap[0]),
            gap_degraded=float(gap[partition_round]),
            gap_partitioned=float(gap[partition_round + 1]),
            gap_restored=bool(gap[-1] == gap[0]),
            disconnected_rounds=int(np.count_nonzero(~connected)),
            num_recovered=int(recovered.shape[0]),
            median_recovery=(
                float(np.median(recovered)) if recovered.size else float("nan")
            ),
            max_recovery=(float(recovered.max()) if recovered.size else -1.0),
            gap_series=tuple(float(v) for v in gap),
        )

    return _scenario_cell(
        runner,
        factory,
        horizon,
        derive_seed(seed, family_name, n, f"topology-{tasks}"),
        summarize,
    )
