"""Compile workload traces into deterministic scenario schedules.

The compiler is a pure mapping from :class:`~repro.workloads.trace.TraceEvent`
kinds onto the deterministic events of :mod:`repro.scenarios.events`:

========== ==================================================
trace kind compiled event
========== ==================================================
arrival    :class:`~repro.scenarios.events.TraceArrival`
departure  :class:`~repro.scenarios.events.TraceDeparture`
relocation :class:`~repro.scenarios.events.TraceRelocation`
adversarial :class:`~repro.scenarios.events.AdversarialArrival`
========== ==================================================

Every compiled event consumes zero replica-stream randomness (the trace
resolved all draws at generation time), so the resulting
:class:`~repro.scenarios.schedule.Schedule` reports
``is_deterministic == True`` and replays byte-identically across
engines, both RNG policies, any worker count, and sharded or monolithic
execution.
"""

from __future__ import annotations

from repro.errors import ValidationError
from repro.scenarios.events import (
    AdversarialArrival,
    Event,
    TraceArrival,
    TraceDeparture,
    TraceRelocation,
)
from repro.scenarios.schedule import Schedule, at
from repro.workloads.trace import TraceEvent, WorkloadTrace, validate_trace

__all__ = ["compile_trace", "compile_event"]


def compile_event(event: TraceEvent) -> Event | None:
    """The deterministic scenario event for one trace event.

    Returns ``None`` for no-op events (zero-task arrivals/departures,
    zero-fraction relocations) so compiled schedules stay minimal.
    """
    if event.kind == "arrival":
        if event.targets.size == 0:
            return None
        return TraceArrival(targets=event.targets, weight=event.weight)
    if event.kind == "departure":
        if event.count == 0:
            return None
        return TraceDeparture(count=event.count, start_node=event.node)
    if event.kind == "relocation":
        if event.fraction == 0.0:
            return None
        return TraceRelocation(node=event.node, fraction=event.fraction)
    if event.kind == "adversarial":
        if event.count == 0:
            return None
        return AdversarialArrival(count=event.count, weight=event.weight)
    raise ValidationError(f"unknown trace event kind {event.kind!r}")


def compile_trace(trace: WorkloadTrace, validate: bool = True) -> Schedule:
    """Compile a (validated) trace into a deterministic :class:`Schedule`.

    Entry order preserves trace order, so same-round events apply in the
    sequence the generator emitted them — the ordering the departure-
    safety account of :func:`~repro.workloads.trace.validate_trace`
    reasoned about.
    """
    if validate:
        validate_trace(trace)
    entries = []
    for trace_event in trace.events:
        compiled = compile_event(trace_event)
        if compiled is not None:
            entries.append(at(trace_event.round_index, compiled))
    return Schedule(entries)
