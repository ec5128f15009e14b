"""The batched ensemble simulator: R independent replicas per round loop.

:class:`BatchSimulator` is the vectorized counterpart of
:class:`repro.core.simulator.Simulator`. Instead of running repetitions
one at a time, it advances a replica stack — a
:class:`~repro.model.batch.BatchUniformState` for the uniform protocol
or a :class:`~repro.model.batch.BatchWeightedState` for the weighted
protocols — with one batched kernel call per round, evaluates the
stopping rule over the whole stack, records each replica's first-hitting
round, and *retires* converged replicas from the active set so stragglers
never pay for finished work.

RNG stream layouts
------------------
Replica randomness flows through a pluggable
:class:`~repro.utils.rng.StreamLayout` (``rng_policy``):

* ``"spawned"`` (default) — child generators spawned off the simulator's
  seed with :func:`repro.utils.rng.spawn_rngs` (NumPy
  ``SeedSequence.spawn``). Child ``r`` depends only on the root seed and
  its index — not on how many replicas run — so replica ``r`` is
  reproducible in isolation: the same seed replayed with a smaller or
  larger ensemble yields bit-identical trajectories for the shared
  prefix of replicas. Retired replicas stop consuming randomness, which
  cannot perturb the others because no stream is shared. This layout
  preserves every historical bit-identity guarantee (weighted batch runs
  are pathwise identical to scalar runs).
* ``"counter"`` — a Philox counter layout
  (:class:`~repro.utils.rng.CounterStreams`): each round's draw sites
  fill the whole active stack with one vectorized block draw keyed on
  ``(root seed, round, site)``, removing the per-replica fill loop. Runs
  are same-seed deterministic and agree with the scalar reference in
  *law* (not pathwise); static weighted ensembles additionally stay
  resize prefix-stable and shardable because each replica's counter
  range depends only on its global replica index, not on which other
  replicas are still active. See the README's reproducibility-guarantees
  matrix.

Convergence-time convention (same as the scalar simulator): a replica's
*stop round* is the number of rounds executed before the stopping
condition first held for it; a replica already satisfying the condition
stops at round 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.backends import ArrayBackend, resolve_backend
from repro.core.protocols import Protocol
from repro.core.stopping import StoppingRule
from repro.errors import SimulationError
from repro.graphs.graph import Graph
from repro.model.batch import BatchStateBase
from repro.types import IntArray, SeedLike
from repro.utils.rng import (
    StreamLayout,
    as_stream_layout,
    check_rng_policy,
    make_streams,
)
from repro.utils.validation import check_integer

__all__ = ["BatchSimulationResult", "BatchSimulator", "run_protocol_batch"]


@dataclass(frozen=True)
class BatchSimulationResult:
    """Outcome of a batched ensemble run.

    Attributes
    ----------
    final_state:
        The replica stack when the run ended (the mutated object).
        Retired replicas keep the state they had when they converged.
    rounds_executed:
        Number of batched rounds executed (the rounds of the slowest
        still-active replica; retired replicas executed fewer).
    converged:
        ``(R,)`` boolean mask of replicas whose stopping rule fired
        within the budget.
    stop_rounds:
        ``(R,)`` first-hitting round per replica; ``-1`` where the rule
        never held.
    stop_reason:
        Human-readable description of why the run ended.
    any_saturation:
        ``(R,)`` whether any round clipped that replica's migration
        probabilities (only possible with ablation-level ``alpha``).
    """

    final_state: BatchStateBase
    rounds_executed: int
    converged: np.ndarray
    stop_rounds: IntArray
    stop_reason: str
    any_saturation: np.ndarray

    @property
    def num_replicas(self) -> int:
        """Ensemble size ``R``."""
        return int(self.stop_rounds.shape[0])

    @property
    def num_converged(self) -> int:
        """How many replicas hit the target within the budget."""
        return int(np.count_nonzero(self.converged))

    @property
    def all_converged(self) -> bool:
        """Whether every replica reached the target."""
        return self.num_converged == self.num_replicas

    @property
    def converged_rounds(self) -> IntArray:
        """First-hitting rounds of the converged replicas (replica order)."""
        return self.stop_rounds[self.converged]


class BatchSimulator:
    """Runs a batch-capable protocol on a replica stack until all stop.

    Parameters
    ----------
    graph:
        The processor network (shared by all replicas).
    protocol:
        A protocol whose class advertises ``supports_batch``
        (:class:`repro.core.protocols.SelfishUniformProtocol`,
        :class:`repro.core.protocols.SelfishWeightedProtocol` and its
        per-task-threshold variant). The stack passed to :meth:`run`
        must be the protocol's ``batch_state_class()``.
    seed:
        Seed for the per-replica streams (see module docstring).
    rng_policy:
        Stream layout used when :meth:`run` spawns its own randomness:
        ``"spawned"`` (default, bit-compatible with every earlier
        release) or ``"counter"`` (vectorized Philox block draws,
        law-level equivalent). Ignored when explicit ``rngs`` are passed
        to :meth:`run`.
    backend:
        Array backend for the batched kernels: a name from
        :data:`repro.backends.BACKEND_NAMES` (``"numpy"`` default,
        ``"numba"``, ``"cupy"``) or an
        :class:`~repro.backends.ArrayBackend` instance. Resolved with
        warn-and-fallback to numpy when the named backend's optional
        dependency is missing. The numpy backend is bit-identical to
        the pre-backend kernels at the same seeds.
    """

    def __init__(
        self,
        graph: Graph,
        protocol: Protocol,
        seed: SeedLike = None,
        rng_policy: str = "spawned",
        backend: "str | ArrayBackend | None" = None,
    ):
        if not getattr(protocol, "supports_batch", False):
            raise SimulationError(
                f"protocol {protocol.name!r} has no batched kernel; use the "
                "scalar Simulator instead"
            )
        self._graph = graph
        self._protocol = protocol
        self._seed = seed
        self._rng_policy = check_rng_policy(rng_policy)
        self._backend = resolve_backend(backend)

    @property
    def graph(self) -> Graph:
        """The processor network."""
        return self._graph

    @property
    def protocol(self) -> Protocol:
        """The protocol being simulated."""
        return self._protocol

    @property
    def backend(self) -> ArrayBackend:
        """The resolved array backend the kernels dispatch through."""
        return self._backend

    def swap_graph(self, graph: Graph) -> None:
        """Replace the network with ``graph`` (same vertex count).

        The batched run loop re-reads the graph every round, so a swap
        performed inside a ``before_round`` hook applies to that round's
        ``execute_round_batch`` for *all* replicas — topology events are
        replica-stable under both RNG policies because the swap consumes
        no stream randomness. Graphs are immutable; the swap installs a
        different derived instance, never mutates.
        """
        if graph.num_vertices != self._graph.num_vertices:
            raise SimulationError(
                f"cannot swap to graph {graph.name} with "
                f"{graph.num_vertices} vertices; current graph "
                f"{self._graph.name} has {self._graph.num_vertices}"
            )
        self._graph = graph

    def run(
        self,
        batch: BatchStateBase,
        stopping: StoppingRule | None = None,
        max_rounds: int = 10_000,
        check_every: int = 1,
        rngs: Sequence[np.random.Generator] | StreamLayout | None = None,
        before_round: Callable[[int, BatchStateBase], None] | None = None,
        after_round: Callable[[int, BatchStateBase], None] | None = None,
    ) -> BatchSimulationResult:
        """Run the protocol on the replica stack (mutated in place).

        Parameters
        ----------
        batch:
            Initial replica stack; will be mutated.
        stopping:
            Target condition, evaluated per replica; ``None`` runs every
            replica for the full ``max_rounds``.
        max_rounds:
            Round budget per replica.
        check_every:
            Evaluate the stopping rule only every ``check_every`` rounds
            (and at round 0), as in the scalar simulator.
        rngs:
            Optional pre-built per-replica randomness: a sequence of
            generators (length ``R``, the spawned layout) or a
            :class:`~repro.utils.rng.StreamLayout`. The measurement
            pipeline passes the same children it used to build the
            initial states; by default a fresh layout is built from the
            simulator's seed and ``rng_policy``.
        before_round:
            Optional hook ``(round_index, batch)`` invoked immediately
            before each executed batched round (after the stopping /
            retirement bookkeeping). The hook may mutate the stack —
            this is how :mod:`repro.scenarios` applies workload events
            across all replicas under non-quiescent load.
        after_round:
            Optional hook ``(round_index, batch)`` invoked immediately
            after each executed batched round's kernel. The stack is
            untouched between ``after_round(t)`` and ``before_round(t +
            1)``, so an observer recording here sees exactly the stack a
            row-``t + 1`` scenario record would — the streaming scenario
            recorder relies on that equivalence.
        """
        max_rounds = check_integer(max_rounds, "max_rounds", minimum=0)
        check_every = check_integer(check_every, "check_every", minimum=1)
        if batch.num_nodes != self._graph.num_vertices:
            raise SimulationError(
                f"batch has {batch.num_nodes} nodes but graph "
                f"{self._graph.name} has {self._graph.num_vertices} vertices"
            )
        num_replicas = batch.num_replicas
        if rngs is None:
            streams: StreamLayout = make_streams(
                self._rng_policy, self._seed, num_replicas,
                backend=self._backend,
            )
        else:
            streams = as_stream_layout(rngs)
        if len(streams) != num_replicas:
            raise SimulationError(
                f"need one generator per replica ({num_replicas}), got {len(streams)}"
            )

        active = np.ones(num_replicas, dtype=bool)
        stop_rounds = np.full(num_replicas, -1, dtype=np.int64)
        any_saturation = np.zeros(num_replicas, dtype=bool)
        rounds_executed = 0
        for round_index in range(max_rounds + 1):
            if stopping is not None and round_index % check_every == 0:
                rows = np.flatnonzero(active)
                if rows.size:
                    hit = stopping.satisfied_batch(batch, self._graph, rows)
                    newly_stopped = rows[hit]
                    stop_rounds[newly_stopped] = round_index
                    active[newly_stopped] = False
            if stopping is not None and not np.any(active):
                break
            if round_index == max_rounds:
                break
            streams.begin_round(round_index)
            if before_round is not None:
                before_round(round_index, batch)
            summary = self._protocol.execute_round_batch(
                batch, self._graph, streams, active, backend=self._backend
            )
            any_saturation |= summary.saturated
            rounds_executed += 1
            if after_round is not None:
                after_round(round_index, batch)

        converged = stop_rounds >= 0
        if stopping is None:
            stop_reason = "fixed horizon completed"
        elif bool(np.all(converged)):
            stop_reason = f"stopping rule fired: {stopping.describe()}"
        else:
            stop_reason = (
                f"round budget exhausted for "
                f"{int(np.count_nonzero(~converged))}/{num_replicas} replicas"
            )
        return BatchSimulationResult(
            final_state=batch,
            rounds_executed=rounds_executed,
            converged=converged,
            stop_rounds=stop_rounds,
            stop_reason=stop_reason,
            any_saturation=any_saturation,
        )


def run_protocol_batch(
    graph: Graph,
    protocol: Protocol,
    batch: BatchStateBase,
    stopping: StoppingRule | None = None,
    max_rounds: int = 10_000,
    seed: SeedLike = None,
    check_every: int = 1,
    rng_policy: str = "spawned",
    backend: "str | ArrayBackend | None" = None,
) -> BatchSimulationResult:
    """One-call convenience wrapper around :class:`BatchSimulator`."""
    simulator = BatchSimulator(
        graph, protocol, seed, rng_policy=rng_policy, backend=backend
    )
    return simulator.run(
        batch, stopping=stopping, max_rounds=max_rounds, check_every=check_every
    )
