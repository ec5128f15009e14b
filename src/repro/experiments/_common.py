"""Shared measurement helpers for the experiment modules."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from repro.analysis.convergence import (
    ConvergenceMeasurement,
    measure_convergence_rounds,
    merge_convergence_measurements,
)
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
from repro.model.placement import adversarial_placement, place_weighted_all_on_one
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
from repro.utils.validation import check_integer, check_positive

__all__ = [
    "FamilyMeasurement",
    "VariantMeasurement",
    "WEIGHTED_VARIANT_LABELS",
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
        where the budget ran out).
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


@dataclass(frozen=True)
class _Cell:
    """One built measurement cell: its ensemble, merge and summary.

    Every executor kind builds one (see
    :data:`repro.experiments.executor.CELL_KINDS`). ``ensemble`` is
    :func:`~repro.analysis.convergence.measure_convergence_rounds` or
    :meth:`~repro.scenarios.ScenarioRunner.run_ensemble`, bound to the
    cell's graph, protocol, initial states, budget and seed; the
    executor passes it ``repetitions``, ``engine``, ``rng_policy`` and
    the replica window. ``merge`` joins the raw results of replica
    windows, given in replica order, into the monolithic result, and
    ``summarize`` turns a raw result into the kind's frozen measurement.

    Construction is deterministic in ``(kind, family, n, m_factor,
    seed, params)``, so a worker process that builds the cell for one
    replica window and the parent that rebuilds it to summarize the
    merged ensemble agree on every derived quantity.
    """

    ensemble: Callable[..., object]
    merge: Callable[[list], object]
    summarize: Callable[[object], object]


def _adversarial_uniform_factory(graph: Graph, m: int):
    """Factory producing the all-on-one-node uniform start per repetition."""
    speeds = np.ones(graph.num_vertices, dtype=np.float64)

    def factory(rng: np.random.Generator) -> UniformState:
        return UniformState(adversarial_placement(speeds, m), speeds)

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


def _family_graph(family_name: str, target_n: int) -> tuple[Graph, GraphQuantities]:
    """A family cell's graph and the quantities its bound takes."""
    graph = get_family(family_name).make(target_n)
    lambda2 = algebraic_connectivity(graph)
    return graph, GraphQuantities(
        n=graph.num_vertices, max_degree=graph.max_degree, lambda2=lambda2
    )


def _family_cell(
    family_name: str,
    graph: Graph,
    quantities: GraphQuantities,
    m: int,
    bound: float,
    protocol: Protocol,
    factory: Callable[[np.random.Generator], object],
    stopping: StoppingRule,
    max_rounds: int,
    seed: int,
) -> _Cell:
    """A family sweep cell: rounds to ``stopping`` against ``bound``."""
    ensemble = partial(
        measure_convergence_rounds,
        graph=graph,
        protocol=protocol,
        state_factory=factory,
        stopping=stopping,
        max_rounds=max_rounds,
        seed=seed,
    )

    def summarize(measurement: ConvergenceMeasurement) -> FamilyMeasurement:
        return FamilyMeasurement(
            family=family_name,
            n=quantities.n,
            m=m,
            lambda2=quantities.lambda2,
            max_degree=quantities.max_degree,
            median_rounds=measurement.median_rounds,
            mean_rounds=measurement.mean_rounds,
            bound_rounds=bound,
            num_converged=measurement.num_converged,
            num_repetitions=measurement.num_repetitions,
            repetition_rounds=tuple(
                float(value) for value in measurement.repetition_rounds
            ),
        )

    return _Cell(ensemble, merge_convergence_measurements, summarize)


def _build_approx_cell(
    family_name: str,
    target_n: int,
    m_factor: float,
    seed: int,
    budget_factor: float = 2.0,
) -> _Cell:
    """Rounds until ``Psi_0 <= 4 psi_c`` on one family cell.

    Uniform speeds (Table 1 omits the speed factors). ``m`` is
    ``ceil(m_factor * n^2)`` — quadratic in ``n`` so the initial
    potential is far above the critical value at every size. The start
    is adversarial (all tasks on one node). The budget is
    ``budget_factor`` times the Theorem 1.1 bound, plus 10 rounds.
    """
    check_positive(budget_factor, "budget_factor")
    graph, quantities = _family_graph(family_name, target_n)
    n = quantities.n
    m = int(math.ceil(m_factor * n * n))
    psi_c = psi_critical(n, quantities.max_degree, quantities.lambda2, 1.0)
    bound = theorem11_round_bound(quantities, m, 1.0)
    return _family_cell(
        family_name,
        graph,
        quantities,
        m,
        bound,
        SelfishUniformProtocol(),
        _adversarial_uniform_factory(graph, m),
        PotentialThresholdStop(4.0 * psi_c, "psi0"),
        max_rounds=int(math.ceil(budget_factor * bound)) + 10,
        seed=derive_seed(seed, family_name, n, "approx"),
    )


def _build_exact_cell(
    family_name: str,
    target_n: int,
    m_factor: float,
    seed: int,
    max_budget: int = 2_000_000,
) -> _Cell:
    """Rounds until the exact NE on one family cell.

    Uniform speeds and ``m = ceil(m_factor * n)`` tasks from an
    adversarial start (all tasks on one node, so the endgame is reached
    after a genuine spreading phase); the stopping rule is the exact NE
    condition. The budget is the Theorem 1.2 bound capped at
    ``max_budget``.
    """
    check_integer(max_budget, "max_budget", minimum=0)
    graph, quantities = _family_graph(family_name, target_n)
    n = quantities.n
    m = int(math.ceil(m_factor * n))
    bound = theorem12_round_bound(quantities, 1.0, 1.0)
    return _family_cell(
        family_name,
        graph,
        quantities,
        m,
        bound,
        SelfishUniformProtocol(),
        _adversarial_uniform_factory(graph, m),
        NashStop(),
        max_rounds=int(min(bound, max_budget)),
        seed=derive_seed(seed, family_name, n, "exact"),
    )


def _build_weighted_cell(
    family_name: str,
    target_n: int,
    m_factor: float,
    seed: int,
    max_budget: int = 200_000,
) -> _Cell:
    """Algorithm 2's rounds to the threshold state on one family cell.

    The weighted counterpart of the ``exact`` cell: uniform speeds,
    ``m = ceil(m_factor * n)`` heavy/light tasks from an adversarial
    start, stopping at the threshold state ``l_i - l_j <= 1/s_j``
    (Algorithm 2's convergence target, an approximate NE by Theorem
    1.3). The budget is the Theorem 1.3 *expected*-rounds bound with a
    flat 50x slack factor (the stopping target is a first-hitting time,
    not an expectation), capped at ``max_budget``. The weighted kernels
    are pathwise identical on both engines.
    """
    check_integer(max_budget, "max_budget", minimum=0)
    graph, quantities = _family_graph(family_name, target_n)
    n = quantities.n
    m = int(math.ceil(m_factor * n))
    bound = theorem13_round_bound(quantities, m, 1.0, 1.0)
    return _family_cell(
        family_name,
        graph,
        quantities,
        m,
        bound,
        SelfishWeightedProtocol(),
        _weighted_state_factory(graph, m),
        NashStop(),
        max_rounds=int(min(math.ceil(bound) * 50, max_budget)),
        seed=derive_seed(seed, family_name, n, "weighted"),
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
        where the budget ran out).
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

    The single derivation shared by the ensemble and the churn probe of
    :func:`_build_variant_cell` — the probe replays repetition 0 of the
    measurement, which only works if both sides derive the identical
    stream.

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

    Shared between the variant cell's ensemble and its churn probe (and
    the ``weighted-nash-counter`` benchmark workload), so all replay the
    exact same configuration: two-class speeds (25% fast at speed 2),
    two-class weights (10% heavy), ``m = ceil(m_factor * n)`` tasks all
    starting on node 0. An explicit ``m`` overrides the factor-derived count — the
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




def _build_variant_cell(
    family_name: str,
    target_n: int,
    m_factor: float,
    seed: int,
    max_rounds: int = 30_000,
    variant: str = "flow",
    m: int | None = None,
    churn_window: int = 200,
) -> _Cell:
    """One ablation variant's rounds-to-threshold and churn.

    The measurement phase of the ``weighted-variants`` experiment as an
    executor cell (see :func:`weighted_variant_setup` for the
    configuration). The repetition seed derives from the variant's
    display label (:func:`variant_measure_seed` — see its note on why
    ``(family, n)`` is deliberately excluded here), so results are
    identical at any worker count.

    ``summarize`` runs the churn probe: one scalar run that *replays
    repetition 0 of the measurement* (spawned child 0, which
    :func:`~repro.utils.rng.spawn_rngs` derives independently of the
    ensemble size, and the weighted kernels are pathwise identical
    across engines), so whenever the measurement converged the probe
    reaches the same threshold state; it then keeps running for
    ``churn_window`` rounds counting migrations. Under
    ``rng_policy="counter"`` it is an independent scalar probe of the
    same (initial state, protocol) cell. A non-converged probe would
    make the churn numbers meaningless, so ``probe_converged`` is
    reported for the verdict.
    """
    check_integer(churn_window, "churn_window", minimum=1)
    graph, protocol, factory = weighted_variant_setup(
        family_name, target_n, m_factor, variant, m=m
    )
    measure_seed = variant_measure_seed(seed, variant)
    ensemble = partial(
        measure_convergence_rounds,
        graph=graph,
        protocol=protocol,
        state_factory=factory,
        stopping=NashStop(),
        max_rounds=max_rounds,
        seed=measure_seed,
    )

    def summarize(measurement: ConvergenceMeasurement) -> VariantMeasurement:
        rng = spawn_rngs(measure_seed, 1)[0]
        state = factory(rng)
        probe = Simulator(graph, protocol, rng).run(
            state, stopping=NashStop(), max_rounds=max_rounds
        )
        moved = 0
        for _ in range(churn_window):
            moved += protocol.execute_round(state, graph, rng).tasks_moved
        return VariantMeasurement(
            variant=variant,
            label=WEIGHTED_VARIANT_LABELS[variant],
            median_rounds=(
                measurement.median_rounds
                if measurement.all_converged
                else float("nan")
            ),
            num_converged=measurement.num_converged,
            num_repetitions=measurement.num_repetitions,
            engine=measurement.engine,
            probe_converged=bool(probe.converged),
            churn_per_round=moved / churn_window,
            still_threshold_nash=bool(is_nash(state, graph)),
            repetition_rounds=tuple(
                float(value) for value in measurement.repetition_rounds
            ),
        )

    return _Cell(ensemble, merge_convergence_measurements, summarize)
