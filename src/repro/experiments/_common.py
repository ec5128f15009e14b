"""Shared measurement helpers for the experiment modules."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.analysis.convergence import measure_convergence_rounds
from repro.core.equilibrium import is_nash
from repro.core.protocols import (
    PerTaskThresholdProtocol,
    Protocol,
    SelfishUniformProtocol,
    SelfishWeightedProtocol,
)
from repro.core.simulator import Simulator
from repro.core.stopping import NashStop, PotentialThresholdStop, StoppingRule
from repro.errors import ValidationError
from repro.graphs.families import get_family
from repro.graphs.graph import Graph
from repro.model.placement import (
    adversarial_placement,
    place_weighted_all_on_one,
    random_placement,
)
from repro.model.speeds import two_class_speeds
from repro.model.state import UniformState, WeightedState
from repro.model.tasks import two_class_weights
from repro.spectral.eigen import algebraic_connectivity
from repro.theory.bounds import (
    GraphQuantities,
    theorem11_round_bound,
    theorem12_round_bound,
    theorem13_round_bound,
)
from repro.theory.constants import psi_critical
from repro.utils.rng import derive_seed, spawn_rngs

__all__ = [
    "FamilyMeasurement",
    "VariantMeasurement",
    "WEIGHTED_VARIANT_LABELS",
    "measure_psi_threshold_time",
    "measure_exact_nash_time",
    "measure_weighted_threshold_time",
    "measure_variant_threshold_time",
    "variant_measure_seed",
    "weighted_variant_setup",
    "APPROX_SWEEP_QUICK",
    "APPROX_SWEEP_FULL",
    "EXACT_SWEEP_QUICK",
    "EXACT_SWEEP_FULL",
    "WEIGHTED_SWEEP_QUICK",
    "WEIGHTED_SWEEP_FULL",
]

#: Sweep sizes per family for the eps-approximate NE measurement.
APPROX_SWEEP_QUICK: dict[str, list[int]] = {
    "complete": [8, 16, 32],
    "ring": [8, 12, 16, 24],
    "torus": [9, 16, 25],
    "hypercube": [8, 16, 32],
}
APPROX_SWEEP_FULL: dict[str, list[int]] = {
    "complete": [8, 16, 32, 64, 128],
    "ring": [8, 12, 16, 24, 32, 48],
    "path": [8, 12, 16, 24, 32],
    "torus": [9, 16, 25, 36, 64],
    "mesh": [9, 16, 25, 36],
    "hypercube": [8, 16, 32, 64, 128],
}

#: Sweep sizes per family for the weighted threshold-state measurement.
WEIGHTED_SWEEP_QUICK: dict[str, list[int]] = {
    "ring": [8, 12],
    "torus": [9, 16],
}
WEIGHTED_SWEEP_FULL: dict[str, list[int]] = {
    "ring": [8, 12, 16, 24],
    "torus": [9, 16, 25],
    "hypercube": [8, 16, 32],
}

#: Sweep sizes per family for the exact NE measurement.
EXACT_SWEEP_QUICK: dict[str, list[int]] = {
    "complete": [8, 16, 32],
    "ring": [6, 8, 12, 16],
    "torus": [9, 16, 25],
    "hypercube": [8, 16, 32],
}
EXACT_SWEEP_FULL: dict[str, list[int]] = {
    "complete": [8, 16, 32, 64],
    "ring": [6, 8, 12, 16, 24],
    "path": [6, 8, 12, 16],
    "torus": [9, 16, 25, 36],
    "mesh": [9, 16, 25],
    "hypercube": [8, 16, 32, 64],
}


@dataclass(frozen=True)
class FamilyMeasurement:
    """Convergence measurement for one (family, size) cell.

    Attributes
    ----------
    family, n, m:
        Configuration of the cell (``n`` is the *actual* graph size).
    lambda2, max_degree:
        Measured spectral/structural quantities.
    median_rounds, mean_rounds:
        Convergence-time statistics over repetitions.
    bound_rounds:
        The paper's (concrete-constant) upper bound for this cell.
    num_converged, num_repetitions:
        Convergence bookkeeping.
    repetition_rounds:
        Per-repetition first-hitting rounds in repetition order (NaN
        where the budget ran out) — the raw sample the executor's shard
        merge and adaptive CI controller operate on.
    """

    family: str
    n: int
    m: int
    lambda2: float
    max_degree: int
    median_rounds: float
    mean_rounds: float
    bound_rounds: float
    num_converged: int
    num_repetitions: int
    repetition_rounds: tuple[float, ...] = ()


def _uniform_state_factory(graph: Graph, m: int, adversarial: bool):
    """Factory producing fresh initial uniform states per repetition."""
    n = graph.num_vertices
    speeds = np.ones(n, dtype=np.float64)

    def factory(rng: np.random.Generator) -> UniformState:
        if adversarial:
            counts = adversarial_placement(speeds, m)
        else:
            counts = random_placement(n, m, rng)
        return UniformState(counts, speeds)

    return factory


def _weighted_state_factory(
    graph: Graph, m: int, heavy_fraction: float = 0.1
):
    """Factory producing fresh weighted initial states per repetition.

    Adversarial start (all tasks on node 0) with a deterministic
    heavy/light weight mix, so replicas differ only through their
    migration randomness — the weighted analogue of the uniform
    adversarial cells.
    """
    weights = two_class_weights(m, heavy_fraction=heavy_fraction)
    speeds = np.ones(graph.num_vertices, dtype=np.float64)

    def factory(rng: np.random.Generator) -> WeightedState:
        locations = place_weighted_all_on_one(m, 0)
        return WeightedState(locations, weights, speeds)

    return factory


def measure_weighted_threshold_time(
    family_name: str,
    target_n: int,
    m_factor: float,
    repetitions: int,
    seed: int,
    max_budget: int = 200_000,
    engine: str = "auto",
    rng_policy: str = "spawned",
    replica_offset: int = 0,
    replica_count: int | None = None,
) -> FamilyMeasurement:
    """Measure Algorithm 2's rounds to the threshold state on one cell.

    The weighted counterpart of :func:`measure_exact_nash_time`: uniform
    speeds, ``m = ceil(m_factor * n)`` heavy/light tasks from an
    adversarial start, stopping at the threshold state ``l_i - l_j <=
    1/s_j`` (Algorithm 2's convergence target, an approximate NE by
    Theorem 1.3). The budget is the Theorem 1.3 *expected*-rounds bound
    with a flat 50x slack factor (the stopping target is a first-hitting
    time, not an expectation), capped at ``max_budget``. Repetitions run
    through the batched ensemble engine by default (``engine="auto"``
    stacks the per-task arrays into a padded
    :class:`~repro.model.batch.BatchWeightedState`); pass
    ``engine="scalar"`` to force the sequential reference path — both
    engines are pathwise identical for the weighted kernels.
    """
    family = get_family(family_name)
    graph = family.make(target_n)
    n = graph.num_vertices
    m = int(math.ceil(m_factor * n))
    lambda2 = algebraic_connectivity(graph)
    quantities = GraphQuantities(n=n, max_degree=graph.max_degree, lambda2=lambda2)
    bound = theorem13_round_bound(quantities, m, 1.0, 1.0)
    budget = int(min(math.ceil(bound) * 50, max_budget))
    measurement = measure_convergence_rounds(
        graph=graph,
        protocol=SelfishWeightedProtocol(),
        state_factory=_weighted_state_factory(graph, m),
        stopping=NashStop(),
        repetitions=repetitions,
        max_rounds=budget,
        seed=derive_seed(seed, family_name, n, "weighted"),
        engine=engine,
        rng_policy=rng_policy,
        replica_offset=replica_offset,
        replica_count=replica_count,
    )
    return FamilyMeasurement(
        family=family_name,
        n=n,
        m=m,
        lambda2=lambda2,
        max_degree=graph.max_degree,
        median_rounds=measurement.median_rounds,
        mean_rounds=measurement.mean_rounds,
        bound_rounds=bound,
        num_converged=measurement.num_converged,
        num_repetitions=measurement.num_repetitions,
        repetition_rounds=tuple(
            float(value) for value in measurement.repetition_rounds
        ),
    )


def measure_psi_threshold_time(
    family_name: str,
    target_n: int,
    m_factor: float,
    repetitions: int,
    seed: int,
    budget_factor: float = 2.0,
    engine: str = "auto",
    rng_policy: str = "spawned",
    replica_offset: int = 0,
    replica_count: int | None = None,
) -> FamilyMeasurement:
    """Measure rounds until ``Psi_0 <= 4 psi_c`` on one family cell.

    Uniform speeds (Table 1 omits the speed factors). ``m`` is
    ``ceil(m_factor * n^2)`` — quadratic in ``n`` so the initial potential
    is far above the critical value at every size. The start is
    adversarial (all tasks on one node). Repetitions run through the
    batched ensemble engine by default (``engine="auto"``); pass
    ``engine="scalar"`` to force the sequential reference path.
    """
    family = get_family(family_name)
    graph = family.make(target_n)
    n = graph.num_vertices
    m = int(math.ceil(m_factor * n * n))
    lambda2 = algebraic_connectivity(graph)
    quantities = GraphQuantities(n=n, max_degree=graph.max_degree, lambda2=lambda2)
    psi_c = psi_critical(n, graph.max_degree, lambda2, 1.0)
    bound = theorem11_round_bound(quantities, m, 1.0)
    stopping: StoppingRule = PotentialThresholdStop(4.0 * psi_c, "psi0")
    measurement = measure_convergence_rounds(
        graph=graph,
        protocol=SelfishUniformProtocol(),
        state_factory=_uniform_state_factory(graph, m, adversarial=True),
        stopping=stopping,
        repetitions=repetitions,
        max_rounds=int(math.ceil(budget_factor * bound)) + 10,
        seed=derive_seed(seed, family_name, n, "approx"),
        engine=engine,
        rng_policy=rng_policy,
        replica_offset=replica_offset,
        replica_count=replica_count,
    )
    return FamilyMeasurement(
        family=family_name,
        n=n,
        m=m,
        lambda2=lambda2,
        max_degree=graph.max_degree,
        median_rounds=measurement.median_rounds,
        mean_rounds=measurement.mean_rounds,
        bound_rounds=bound,
        num_converged=measurement.num_converged,
        num_repetitions=measurement.num_repetitions,
        repetition_rounds=tuple(
            float(value) for value in measurement.repetition_rounds
        ),
    )


#: Weighted-protocol variants of the Section 4 ablation: variant key ->
#: display label. The labels feed :func:`repro.utils.rng.derive_seed`, so
#: they are part of the reproducibility contract — do not rename.
WEIGHTED_VARIANT_LABELS: dict[str, str] = {
    "flow": "Alg. 2 / flow rule",
    "pseudocode": "Alg. 2 / pseudo-code rule",
    "per-task": "[6]-style per-task",
}


@dataclass(frozen=True)
class VariantMeasurement:
    """Rounds-to-threshold measurement for one weighted-protocol variant.

    Attributes
    ----------
    variant, label:
        Variant key (see :data:`WEIGHTED_VARIANT_LABELS`) and its display
        label.
    median_rounds:
        Median first-hitting round over the converged repetitions (NaN
        when any repetition blew the budget, matching the ablation's
        all-or-nothing reporting).
    num_converged, num_repetitions:
        Convergence bookkeeping.
    engine:
        Which measurement engine ran the repetitions.
    probe_converged:
        Whether the churn probe (a scalar replay of repetition 0)
        reached the threshold state within the budget.
    churn_per_round:
        Mean migrations per round over the post-convergence churn
        window.
    still_threshold_nash:
        Whether the probe state still satisfies the threshold condition
        after the churn window.
    repetition_rounds:
        Per-repetition first-hitting rounds in repetition order (NaN
        where the budget ran out), for the executor's shard merge.
    """

    variant: str
    label: str
    median_rounds: float
    num_converged: int
    num_repetitions: int
    engine: str
    probe_converged: bool
    churn_per_round: float
    still_threshold_nash: bool
    repetition_rounds: tuple[float, ...] = ()


def variant_measure_seed(seed: int, variant: str) -> int:
    """Per-cell seed for one ablation variant measurement.

    The single derivation shared by :func:`measure_variant_threshold_time`
    and the churn probe in :mod:`repro.experiments.weighted_variants` —
    the probe replays repetition 0 of the measurement, which only works
    if both sides derive the identical stream.

    Deliberately derived from the variant label only, *not* ``(family,
    n)`` like the sweep cells: the ablation runs one fixed cell per
    variant, and the historical stream is load-bearing — the pseudo-code
    rule is not guaranteed to reach the threshold state on every
    trajectory (streams exist where a repetition never converges), so
    reseeding would change the experiment's verdict, not just its
    numbers. Fanning this kind over multiple sizes would correlate the
    cells' randomness; grow the derivation (and re-baseline the
    experiment) before doing that.
    """
    return derive_seed(seed, "weighted-variants", WEIGHTED_VARIANT_LABELS[variant])


def weighted_variant_setup(
    family_name: str,
    target_n: int,
    m_factor: float,
    variant: str,
    m: int | None = None,
) -> tuple[Graph, Protocol, Callable[[np.random.Generator], WeightedState]]:
    """Graph, protocol, and state factory for one ablation variant cell.

    Shared between the executor measurement kind and the churn probe in
    :mod:`repro.experiments.weighted_variants`, so both replay the exact
    same configuration: two-class speeds (25% fast at speed 2), two-class
    weights (10% heavy), ``m = ceil(m_factor * n)`` tasks all starting on
    node 0. An explicit ``m`` overrides the factor-derived count — the
    ablation experiment fixes ``m`` exactly rather than scaling it, and
    a ``m / n`` float round-trip through ``m_factor`` could be off by
    one after ``ceil``.
    """
    if variant not in WEIGHTED_VARIANT_LABELS:
        raise ValidationError(
            f"unknown weighted variant {variant!r}; "
            f"available: {sorted(WEIGHTED_VARIANT_LABELS)}"
        )
    family = get_family(family_name)
    graph = family.make(target_n)
    n = graph.num_vertices
    if m is None:
        m = int(math.ceil(m_factor * n))
    speeds = two_class_speeds(n, fast_fraction=0.25, fast_speed=2.0)
    weights = two_class_weights(m, heavy_fraction=0.1, heavy=1.0, light=0.1)
    protocol: Protocol
    if variant == "per-task":
        protocol = PerTaskThresholdProtocol()
    else:
        protocol = SelfishWeightedProtocol(rule=variant)

    def factory(rng: np.random.Generator) -> WeightedState:
        locations = place_weighted_all_on_one(m, 0)
        return WeightedState(locations, weights, speeds)

    return graph, protocol, factory


def measure_variant_threshold_time(
    family_name: str,
    target_n: int,
    m_factor: float,
    repetitions: int,
    seed: int,
    max_rounds: int = 30_000,
    engine: str = "auto",
    rng_policy: str = "spawned",
    variant: str = "flow",
    m: int | None = None,
    churn_window: int = 200,
    replica_offset: int = 0,
    replica_count: int | None = None,
) -> VariantMeasurement:
    """Measure one ablation variant's rounds-to-threshold and churn.

    The measurement phase of the ``weighted-variants`` experiment as a
    standalone (picklable) cell so the executor can fan the variants out
    across processes — including the post-convergence churn probe, which
    would otherwise serialize in the parent. The repetition seed derives
    from the variant's display label (:func:`variant_measure_seed` — see
    its note on why ``(family, n)`` is deliberately excluded here), so
    results are identical at any worker count.

    The churn probe is one scalar run that *replays repetition 0 of the
    measurement* (same spawned child stream, and the weighted kernels
    are pathwise identical across engines), so whenever the measurement
    converged the probe is guaranteed to reach the same threshold state;
    it then keeps running for ``churn_window`` rounds counting
    migrations. A non-converged probe would make the churn numbers
    meaningless, so ``probe_converged`` is reported for the verdict.

    ``replica_offset`` / ``replica_count`` run a replica window of the
    ensemble (see :func:`measure_convergence_rounds`). The churn probe —
    a replay of global repetition 0 — only runs on the window that
    contains replica 0; other shards report NaN/False probe fields, and
    the executor's merge takes the probe columns from the first shard.
    """
    graph, protocol, factory = weighted_variant_setup(
        family_name, target_n, m_factor, variant, m=m
    )
    label = WEIGHTED_VARIANT_LABELS[variant]
    measure_seed = variant_measure_seed(seed, variant)
    measurement = measure_convergence_rounds(
        graph=graph,
        protocol=protocol,
        state_factory=factory,
        stopping=NashStop(),
        repetitions=repetitions,
        max_rounds=max_rounds,
        seed=measure_seed,
        engine=engine,
        rng_policy=rng_policy,
        replica_offset=replica_offset,
        replica_count=replica_count,
    )

    # The churn probe is always a spawned scalar replay of repetition
    # 0's stream: under the default policy it revisits the measurement's
    # exact trajectory; under rng_policy="counter" it is an independent
    # scalar probe of the same (initial state, protocol) cell. Shards
    # that do not own replica 0 skip it (it would serialize the same
    # scalar run once per shard) and report placeholder probe fields.
    if replica_offset == 0:
        rng = spawn_rngs(measure_seed, repetitions)[0]
        state = factory(rng)
        probe = Simulator(graph, protocol, rng).run(
            state, stopping=NashStop(), max_rounds=max_rounds
        )
        moved = 0
        for _ in range(churn_window):
            moved += protocol.execute_round(state, graph, rng).tasks_moved
        probe_converged = bool(probe.converged)
        churn_per_round = moved / churn_window
        still_threshold_nash = bool(is_nash(state, graph))
    else:
        probe_converged = False
        churn_per_round = float("nan")
        still_threshold_nash = False

    return VariantMeasurement(
        variant=variant,
        label=label,
        median_rounds=(
            measurement.median_rounds
            if measurement.all_converged
            else float("nan")
        ),
        num_converged=measurement.num_converged,
        num_repetitions=measurement.num_repetitions,
        engine=measurement.engine,
        probe_converged=probe_converged,
        churn_per_round=churn_per_round,
        still_threshold_nash=still_threshold_nash,
        repetition_rounds=tuple(
            float(value) for value in measurement.repetition_rounds
        ),
    )


def measure_exact_nash_time(
    family_name: str,
    target_n: int,
    m_factor: float,
    repetitions: int,
    seed: int,
    max_budget: int = 2_000_000,
    engine: str = "auto",
    rng_policy: str = "spawned",
    replica_offset: int = 0,
    replica_count: int | None = None,
) -> FamilyMeasurement:
    """Measure rounds until the exact NE on one family cell.

    Uniform speeds and ``m = ceil(m_factor * n)`` tasks from an
    adversarial start (all tasks on one node, so the endgame is reached
    after a genuine spreading phase); the stopping rule is the exact NE
    condition. The budget is the Theorem 1.2 bound capped at
    ``max_budget``. Repetitions run through the batched ensemble engine
    by default (``engine="auto"``).
    """
    family = get_family(family_name)
    graph = family.make(target_n)
    n = graph.num_vertices
    m = int(math.ceil(m_factor * n))
    lambda2 = algebraic_connectivity(graph)
    quantities = GraphQuantities(n=n, max_degree=graph.max_degree, lambda2=lambda2)
    bound = theorem12_round_bound(quantities, 1.0, 1.0)
    budget = int(min(bound, max_budget))
    measurement = measure_convergence_rounds(
        graph=graph,
        protocol=SelfishUniformProtocol(),
        state_factory=_uniform_state_factory(graph, m, adversarial=True),
        stopping=NashStop(),
        repetitions=repetitions,
        max_rounds=budget,
        seed=derive_seed(seed, family_name, n, "exact"),
        engine=engine,
        rng_policy=rng_policy,
        replica_offset=replica_offset,
        replica_count=replica_count,
    )
    return FamilyMeasurement(
        family=family_name,
        n=n,
        m=m,
        lambda2=lambda2,
        max_degree=graph.max_degree,
        median_rounds=measurement.median_rounds,
        mean_rounds=measurement.mean_rounds,
        bound_rounds=bound,
        num_converged=measurement.num_converged,
        num_repetitions=measurement.num_repetitions,
        repetition_rounds=tuple(
            float(value) for value in measurement.repetition_rounds
        ),
    )
