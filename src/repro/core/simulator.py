"""The round-based simulator.

The paper's process runs in synchronous rounds: every task observes the
loads at the start of the round and all migrations apply simultaneously.
:class:`Simulator` wires a protocol, a stopping rule, and trace recording
into that loop.

Convergence-time convention: the *stop round* is the number of protocol
rounds executed before the stopping condition first held. A state that
already satisfies the condition stops at round 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.protocols import Protocol
from repro.core.stopping import StoppingRule
from repro.core.trace import RecordingOptions, Trace, TraceRecorder
from repro.errors import SimulationError
from repro.graphs.graph import Graph
from repro.model.state import LoadStateBase
from repro.types import SeedLike
from repro.utils.rng import make_rng
from repro.utils.validation import check_integer

__all__ = ["SimulationResult", "Simulator", "run_protocol"]


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of a simulation run.

    Attributes
    ----------
    final_state:
        The state when the run ended (the same object that was mutated).
    rounds_executed:
        Number of protocol rounds actually executed.
    converged:
        Whether the stopping rule fired within the budget.
    stop_round:
        Round index at which the rule first held (``None`` if it never
        did). Equal to ``rounds_executed`` when ``converged``.
    trace:
        Recorded observables (``None`` when recording was disabled).
    stop_reason:
        Human-readable description of why the run ended.
    any_saturation:
        Whether any round clipped migration probabilities (only possible
        with ablation-level ``alpha``).
    """

    final_state: LoadStateBase
    rounds_executed: int
    converged: bool
    stop_round: int | None
    trace: Trace | None
    stop_reason: str
    any_saturation: bool


class Simulator:
    """Runs a protocol on a graph until a stopping rule fires.

    Parameters
    ----------
    graph:
        The processor network.
    protocol:
        Any :class:`repro.core.protocols.Protocol`.
    seed:
        Seed or generator for the migration randomness.
    """

    def __init__(self, graph: Graph, protocol: Protocol, seed: SeedLike = None):
        self._graph = graph
        self._protocol = protocol
        self._rng = make_rng(seed)

    @property
    def graph(self) -> Graph:
        """The processor network."""
        return self._graph

    @property
    def protocol(self) -> Protocol:
        """The protocol being simulated."""
        return self._protocol

    def swap_graph(self, graph: Graph) -> None:
        """Replace the network with ``graph`` (same vertex count).

        The run loop re-reads the graph every round, so a swap performed
        inside a ``before_round`` hook takes effect for that very round
        — this is how :mod:`repro.scenarios` applies topology events
        (edge failures, partitions, recoveries). Graphs are immutable;
        the swap installs a different derived instance, never mutates.
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
        state: LoadStateBase,
        stopping: StoppingRule | None = None,
        max_rounds: int = 10_000,
        recording: RecordingOptions | None = None,
        record: bool = False,
        check_every: int = 1,
        before_round: Callable[[int, LoadStateBase], None] | None = None,
        after_round: Callable[[int, LoadStateBase], None] | None = None,
    ) -> SimulationResult:
        """Run the protocol on ``state`` (mutated in place).

        Parameters
        ----------
        state:
            Initial state; will be mutated.
        stopping:
            Target condition; ``None`` runs the full ``max_rounds``.
        max_rounds:
            Round budget.
        recording / record:
            Pass ``recording`` options explicitly, or ``record=True`` for
            the defaults. No trace is kept otherwise.
        check_every:
            Evaluate the stopping rule only every ``check_every`` rounds
            (and at round 0). The reported stop round is then accurate to
            that granularity; convergence-time measurements use 1.
        before_round:
            Optional hook ``(round_index, state)`` invoked immediately
            before each executed round (after the stopping check, so a
            converged run never fires it). The hook may mutate the state
            — this is how :mod:`repro.scenarios` applies workload events
            under non-quiescent load.
        after_round:
            Optional hook ``(round_index, state)`` invoked immediately
            after each executed round's kernel. Nothing touches the
            state between ``after_round(t)`` and ``before_round(t +
            1)``, so an observer here sees exactly the state round ``t +
            1``'s events will — the scenario recorder records row ``t +
            1`` here.

        Returns
        -------
        SimulationResult
        """
        max_rounds = check_integer(max_rounds, "max_rounds", minimum=0)
        check_every = check_integer(check_every, "check_every", minimum=1)
        if state.num_nodes != self._graph.num_vertices:
            raise SimulationError(
                f"state has {state.num_nodes} nodes but graph "
                f"{self._graph.name} has {self._graph.num_vertices} vertices"
            )

        recorder: TraceRecorder | None = None
        if recording is not None:
            recorder = TraceRecorder(recording)
        elif record:
            recorder = TraceRecorder(RecordingOptions())

        if recorder is not None:
            recorder.record(0, state, self._graph, None)

        any_saturation = False
        rounds_executed = 0
        for round_index in range(max_rounds + 1):
            if stopping is not None and round_index % check_every == 0:
                if stopping.satisfied(state, self._graph):
                    return SimulationResult(
                        final_state=state,
                        rounds_executed=rounds_executed,
                        converged=True,
                        stop_round=round_index,
                        trace=recorder.finalize() if recorder else None,
                        stop_reason=f"stopping rule fired: {stopping.describe()}",
                        any_saturation=any_saturation,
                    )
            if round_index == max_rounds:
                break
            if before_round is not None:
                before_round(round_index, state)
            summary = self._protocol.execute_round(state, self._graph, self._rng)
            any_saturation = any_saturation or summary.saturated
            rounds_executed += 1
            if recorder is not None:
                recorder.record(round_index + 1, state, self._graph, summary)
            if after_round is not None:
                after_round(round_index, state)

        return SimulationResult(
            final_state=state,
            rounds_executed=rounds_executed,
            converged=False,
            stop_round=None,
            trace=recorder.finalize() if recorder else None,
            stop_reason=(
                "round budget exhausted"
                if stopping is not None
                else "fixed horizon completed"
            ),
            any_saturation=any_saturation,
        )


def run_protocol(
    graph: Graph,
    protocol: Protocol,
    state: LoadStateBase,
    stopping: StoppingRule | None = None,
    max_rounds: int = 10_000,
    seed: SeedLike = None,
    record: bool = False,
    recording: RecordingOptions | None = None,
    check_every: int = 1,
    before_round: Callable[[int, LoadStateBase], None] | None = None,
) -> SimulationResult:
    """One-call convenience wrapper around :class:`Simulator`."""
    simulator = Simulator(graph, protocol, seed)
    return simulator.run(
        state,
        stopping=stopping,
        max_rounds=max_rounds,
        recording=recording,
        record=record,
        check_every=check_every,
        before_round=before_round,
    )
