"""Convergence-time measurement over independent repetitions.

This is the measurement engine the experiments share: run a protocol from
freshly generated initial states until a stopping rule fires, across
``repetitions`` independent seeds, and summarize the first-hitting
rounds.

Engines
-------
Two execution engines produce statistically identical measurements:

* ``"batch"`` — stack all repetitions into one replica stack (the
  protocol's ``batch_state_class()``:
  :class:`~repro.model.batch.BatchUniformState` for the uniform
  protocol, the padded :class:`~repro.model.batch.BatchWeightedState`
  for the weighted protocols) and advance them together through
  :class:`~repro.core.batch.BatchSimulator`, one vectorized kernel call
  per round. Available when the protocol has a batched kernel
  (``supports_batch``) and the factory produces stackable states over
  one shared speed vector.
* ``"scalar"`` — the original one-repetition-at-a-time loop through
  :class:`~repro.core.simulator.Simulator`; kept as the reference
  implementation.

``"auto"`` (the default) picks the batch engine whenever the inputs
qualify. Under the default ``rng_policy="spawned"`` both engines derive
repetition ``k``'s randomness from the same spawned child stream (state
construction first, then migration draws), so each repetition's
first-hitting time has the same distribution either way;
``rng_policy="counter"`` swaps the batch engine's round randomness for
the vectorized Philox counter layout (one block draw per site per
round — same law, different paths; see :mod:`repro.utils.rng`). For the uniform protocol the sample paths differ (binomial chain
vs. batched multinomial — the same law), and the laws diverge only under
probability clipping with an ablation-level ``alpha < 4 s_max``;
``"auto"`` therefore keeps such uniform runs on the scalar reference
(``"batch"`` can still be forced explicitly). The weighted kernels
consume randomness exactly as the scalar kernel does (per-task Bernoulli
draws), so their batch runs are pathwise identical to scalar runs in
every regime and ``"auto"`` always batches them when stackable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.analysis.statistics import SampleSummary, summarize
from repro.core.batch import BatchSimulator
from repro.core.flows import default_alpha
from repro.core.protocols import Protocol
from repro.core.simulator import Simulator
from repro.core.stopping import StoppingRule
from repro.errors import ValidationError
from repro.graphs.graph import Graph
from repro.model.state import LoadStateBase
from repro.types import SeedLike
from repro.utils.rng import CounterStreams, check_rng_policy, spawn_rngs

__all__ = ["ConvergenceMeasurement", "measure_convergence_rounds"]

_ENGINES = ("auto", "batch", "scalar")


@dataclass(frozen=True)
class ConvergenceMeasurement:
    """Convergence rounds across repetitions.

    Attributes
    ----------
    rounds:
        First-hitting round per converged repetition (repetition order,
        unconverged repetitions dropped).
    repetition_rounds:
        ``(num_repetitions,)`` float array aligned with the repetition
        index: repetition ``k``'s first-hitting round, ``NaN`` where the
        budget ran out. Both engines fill it, so downstream attribution
        (which seed/replica converged when) is engine-independent.
    num_repetitions:
        Total repetitions attempted.
    num_converged:
        How many hit the target within the budget.
    summary:
        Statistics over the converged repetitions (``None`` if none
        converged).
    engine:
        Which engine produced the measurement (``"batch"`` or
        ``"scalar"``).
    """

    rounds: np.ndarray
    repetition_rounds: np.ndarray
    num_repetitions: int
    num_converged: int
    summary: SampleSummary | None
    engine: str = "scalar"

    @property
    def all_converged(self) -> bool:
        """Whether every repetition reached the target."""
        return self.num_converged == self.num_repetitions

    @property
    def median_rounds(self) -> float:
        """Median first-hitting round (NaN when nothing converged)."""
        if self.summary is None:
            return float("nan")
        return self.summary.median

    @property
    def mean_rounds(self) -> float:
        """Mean first-hitting round (NaN when nothing converged)."""
        if self.summary is None:
            return float("nan")
        return self.summary.mean


def _batch_state_class(protocol: Protocol) -> type | None:
    """The replica-stack type the protocol's batched kernel advances."""
    getter = getattr(protocol, "batch_state_class", None)
    return getter() if getter is not None else None


def _batch_stackable(protocol: Protocol, states: list[LoadStateBase]) -> bool:
    """Whether the repetitions can be stacked through the batch engine."""
    if not getattr(protocol, "supports_batch", False):
        return False
    batch_cls = _batch_state_class(protocol)
    return batch_cls is not None and bool(batch_cls.can_stack(states))


def _same_law_as_scalar(protocol: Protocol, states: list[LoadStateBase]) -> bool:
    """Whether batched and scalar kernels sample the identical law.

    With ``alpha >= 4 s_max`` no probability clipping can occur and the
    kernels are distribution-identical. Below that (ablation alphas) the
    scalar kernel truncates the binomial chain slot by slot while the
    batched kernel rescales the whole per-node distribution, so
    ``engine="auto"`` stays on the scalar reference there.
    """
    s_max = float(states[0].speeds.max())
    return protocol.resolve_alpha(states[0]) >= default_alpha(s_max) - 1e-12


def measure_convergence_rounds(
    graph: Graph,
    protocol: Protocol,
    state_factory: Callable[[np.random.Generator], LoadStateBase],
    stopping: StoppingRule,
    repetitions: int,
    max_rounds: int,
    seed: SeedLike = None,
    check_every: int = 1,
    engine: str = "auto",
    rng_policy: str = "spawned",
    replica_offset: int = 0,
    replica_count: int | None = None,
) -> ConvergenceMeasurement:
    """Measure first-hitting rounds of ``stopping`` over repetitions.

    Parameters
    ----------
    state_factory:
        Called once per repetition with that repetition's generator;
        must return a fresh initial state (it will be mutated).
    replica_offset, replica_count:
        Measure only the *window* of repetitions
        ``[replica_offset, replica_offset + replica_count)`` of the
        ``repetitions``-sized ensemble (``repetitions`` stays the
        monolithic total). Every windowed repetition draws exactly the
        streams it would draw in the monolithic run — spawned children
        are spawned offset-aware, counter layouts address the Philox
        counter by global replica index — so concatenating the windows'
        ``repetition_rounds`` in offset order reproduces the monolithic
        measurement byte-for-byte. The returned measurement covers just
        the window (``num_repetitions == replica_count``). Counter
        windows are only available to protocols whose draw sites are all
        fixed-width replica-addressed (the weighted kernels); a
        whole-stack site on a windowed layout raises.
    rng_policy:
        Per-replica stream layout for the *round* randomness:
        ``"spawned"`` (default) keeps the historical spawned-child
        streams and every bit-identity guarantee; ``"counter"`` uses the
        vectorized Philox counter layout (law-level equivalent,
        same-seed deterministic, and resize prefix-stable for the static
        weighted cells). Initial states are built from spawned children
        under *both* policies, so the two policies measure the same
        initial-state ensemble. The counter layout only exists for the
        batch engine — combining it with ``engine="scalar"`` raises, and
        with ``engine="auto"`` it forces the batch engine (the inputs
        must be stackable). Like an explicit ``engine="batch"``, that
        bypasses the clipped-law guard: uniform ablation runs
        (``alpha < 4 s_max``) sample the batch kernel's rescaled
        clipping law, which differs from the scalar chain rule's — the
        counter policy's scalar-law agreement holds in the unclipped
        regime every paper experiment runs in.
    engine:
        ``"auto"`` (default) uses the vectorized batch engine when the
        protocol and states qualify, else the scalar loop; ``"batch"``
        and ``"scalar"`` force the respective path (``"batch"`` raises
        when the inputs do not qualify). Qualification means the
        protocol advertises ``supports_batch`` and all repetition states
        stack into its ``batch_state_class()`` — uniform states over one
        shared speed vector for ``SelfishUniformProtocol``, weighted
        states over one shared speed vector (task counts and weights may
        differ; the ``(R, M)`` stack is padded with an active-task mask)
        for ``SelfishWeightedProtocol`` and the per-task-threshold
        baseline. ``"auto"`` additionally keeps uniform ablation-alpha
        runs (``alpha < 4 s_max``) on the scalar reference because the
        uniform kernels resolve probability clipping differently; the
        weighted kernels clip per task exactly as the scalar kernel
        does, so weighted runs batch in every regime.
    """
    if repetitions < 1:
        raise ValidationError(f"repetitions must be >= 1, got {repetitions}")
    if engine not in _ENGINES:
        raise ValidationError(f"engine must be one of {_ENGINES}, got {engine!r}")
    check_rng_policy(rng_policy)
    if rng_policy == "counter" and engine == "scalar":
        raise ValidationError(
            "rng_policy='counter' is a batch-engine stream layout; the "
            "scalar reference always consumes spawned streams"
        )
    if replica_offset < 0:
        raise ValidationError(
            f"replica_offset must be non-negative, got {replica_offset}"
        )
    count = repetitions - replica_offset if replica_count is None else replica_count
    if count < 1:
        raise ValidationError(f"replica_count must be >= 1, got {count}")
    if replica_offset + count > repetitions:
        raise ValidationError(
            f"replica window [{replica_offset}, {replica_offset + count}) "
            f"exceeds repetitions={repetitions}"
        )
    generators = spawn_rngs(seed, count, offset=replica_offset)
    states = [state_factory(rng) for rng in generators]

    stackable = _batch_stackable(protocol, states)
    if (engine == "batch" or rng_policy == "counter") and not stackable:
        raise ValidationError(
            "engine='batch' (and rng_policy='counter') requires a "
            "batch-capable protocol and states that stack into its "
            "replica layout (one node count, one shared speed vector); "
            "use engine='auto' with rng_policy='spawned' to fall back "
            "automatically"
        )
    use_batch = (
        engine == "batch"
        or rng_policy == "counter"
        or (
            engine == "auto"
            and stackable
            and (
                getattr(protocol, "batch_matches_clipped_law", False)
                or _same_law_as_scalar(protocol, states)
            )
        )
    )

    if use_batch:
        batch = _batch_state_class(protocol).from_states(states)  # type: ignore[union-attr]
        simulator = BatchSimulator(graph, protocol)
        if rng_policy == "counter":
            rngs: object = CounterStreams(
                seed,
                count,
                replica_offset=replica_offset,
                total_replicas=repetitions,
            )
        else:
            rngs = generators
        result = simulator.run(
            batch,
            stopping=stopping,
            max_rounds=max_rounds,
            check_every=check_every,
            rngs=rngs,
        )
        repetition_rounds = np.where(
            result.converged, result.stop_rounds, np.nan
        ).astype(np.float64)
        engine_used = "batch"
    else:
        repetition_rounds = np.full(count, np.nan, dtype=np.float64)
        for index, (rng, state) in enumerate(zip(generators, states)):
            simulator = Simulator(graph, protocol, rng)
            scalar_result = simulator.run(
                state,
                stopping=stopping,
                max_rounds=max_rounds,
                check_every=check_every,
            )
            if scalar_result.converged and scalar_result.stop_round is not None:
                repetition_rounds[index] = scalar_result.stop_round
        engine_used = "scalar"

    rounds = repetition_rounds[~np.isnan(repetition_rounds)].astype(np.int64)
    return ConvergenceMeasurement(
        rounds=rounds,
        repetition_rounds=repetition_rounds,
        num_repetitions=count,
        num_converged=int(rounds.shape[0]),
        summary=summarize(rounds.astype(np.float64)) if rounds.shape[0] else None,
        engine=engine_used,
    )
