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
from repro.core.batch import BatchSimulator, _plan_ensemble
from repro.core.protocols import Protocol
from repro.core.simulator import Simulator
from repro.core.stopping import StoppingRule
from repro.graphs.graph import Graph
from repro.model.state import LoadStateBase
from repro.types import SeedLike

__all__ = ["ConvergenceMeasurement", "measure_convergence_rounds"]

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
    generators, states, stack = _plan_ensemble(
        protocol,
        state_factory,
        repetitions,
        seed,
        engine,
        rng_policy,
        replica_offset,
        replica_count,
    )
    count = len(generators)
    if stack is not None:
        batch, streams = stack
        result = BatchSimulator(graph, protocol).run(
            batch,
            stopping=stopping,
            max_rounds=max_rounds,
            check_every=check_every,
            rngs=streams,
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
