"""Canonical workload traces and the versioned JSONL trace-file format.

A :class:`WorkloadTrace` is the contract between workload *generation*
and *simulation*: an immutable header (vertex count, horizon, seed,
initial task count, generator label) plus an ordered stream of
:class:`TraceEvent` records. Generators (:mod:`repro.workloads.generators`)
resolve **all** randomness at generation time from
``derive_seed(trace_seed, round, site)`` — never from the replica
streams — so a trace, and therefore the schedule compiled from it
(:func:`repro.workloads.compiler.compile_trace`), is byte-identical
across engines, both RNG policies, any worker count, and any replica
shard window.

File format
-----------
``save_trace`` writes JSON Lines: the first line is a header object

.. code-block:: json

    {"format": "repro-trace", "version": 1, "num_nodes": 20,
     "horizon": 120, "seed": 7, "initial_tasks": 160,
     "generator": "mmpp", "num_events": 214}

followed by one object per event, e.g.

.. code-block:: json

    {"round": 3, "kind": "arrival", "targets": [4, 0, 17], "weight": 1.0}
    {"round": 3, "kind": "departure", "count": 2, "node": 5}
    {"round": 9, "kind": "relocation", "node": 11, "fraction": 0.5}
    {"round": 12, "kind": "adversarial", "count": 8, "weight": 1.0}

``load_trace`` refuses unknown formats and versions, and both loading
and compilation run :func:`validate_trace`, whose key guarantee is
*departure safety*: a running-total account of every arrival and
departure proves no departure can ever exceed the tasks present, so the
compiled :class:`~repro.scenarios.events.TraceDeparture` events never
clamp and the replayed ``num_tasks`` trajectory is exactly
:func:`task_timeline` for every replica under every configuration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.errors import ValidationError
from repro.types import IntArray
from repro.utils.validation import check_index_array

__all__ = [
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "TRACE_KINDS",
    "TraceEvent",
    "WorkloadTrace",
    "validate_trace",
    "task_timeline",
    "save_trace",
    "load_trace",
    "load_trace_header",
]

#: Magic string in the header line of every trace file.
TRACE_FORMAT = "repro-trace"

#: Current trace-file schema version; ``load_trace`` accepts only this.
TRACE_VERSION = 1

#: Recognised event kinds, mapping 1:1 onto the deterministic
#: compiled events in :mod:`repro.scenarios.events`.
TRACE_KINDS = ("arrival", "departure", "relocation", "adversarial")


@dataclass(frozen=True, eq=False)
class TraceEvent:
    """One workload perturbation at one round.

    Field use per kind:

    * ``arrival`` — ``targets`` (explicit node per task, any sequence of
      non-negative ints, stored as a read-only int64 array), ``weight``;
    * ``departure`` — ``count`` tasks leave, deterministic node sweep
      starting at ``node``;
    * ``relocation`` — ``fraction`` of each node's tasks moves to
      hotspot ``node``;
    * ``adversarial`` — ``count`` tasks land on the most-loaded node
      (resolved per replica at application time), ``weight``.

    Equality and hashing compare ``targets`` element by element.
    """

    round_index: int
    kind: str
    targets: IntArray = ()
    node: int = 0
    count: int = 0
    fraction: float = 0.0
    weight: float = 1.0

    def __post_init__(self):
        if (
            not isinstance(self.round_index, (int, np.integer))
            or self.round_index < 0
        ):
            raise ValidationError(
                f"round_index must be a non-negative int, got {self.round_index}"
            )
        if self.kind not in TRACE_KINDS:
            raise ValidationError(
                f"unknown trace event kind {self.kind!r}; "
                f"expected one of {TRACE_KINDS}"
            )
        object.__setattr__(self, "targets", check_index_array(self.targets, "targets"))
        if not isinstance(self.node, (int, np.integer)) or self.node < 0:
            raise ValidationError(
                f"node must be a non-negative int, got {self.node}"
            )
        if not isinstance(self.count, (int, np.integer)) or self.count < 0:
            raise ValidationError(
                f"count must be a non-negative int, got {self.count}"
            )
        if not 0.0 <= self.fraction <= 1.0:
            raise ValidationError(
                f"fraction must lie in [0, 1], got {self.fraction}"
            )
        if not 0.0 < self.weight <= 1.0:
            raise ValidationError(
                f"weight must lie in (0, 1], got {self.weight}"
            )

    def _scalars(self) -> tuple:
        return (
            self.round_index,
            self.kind,
            self.node,
            self.count,
            self.fraction,
            self.weight,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._scalars() == other._scalars() and np.array_equal(
            self.targets, other.targets
        )

    def __hash__(self) -> int:
        return hash((self._scalars(), self.targets.tobytes()))

    def __setstate__(self, state: dict) -> None:
        # Unpickling and deep copies rebuild the array writeable.
        self.__dict__.update(state)
        self.targets.flags.writeable = False

    @property
    def task_delta(self) -> int:
        """Net change in the system's task count when the event applies."""
        if self.kind == "arrival":
            return len(self.targets)
        if self.kind == "adversarial":
            return int(self.count)
        if self.kind == "departure":
            return -int(self.count)
        return 0

    @property
    def task_events(self) -> int:
        """Tasks the event touches with a count known from the trace alone.

        Arrivals and adversarial arrivals contribute their task count,
        departures theirs; relocations move a state-dependent number and
        contribute zero here. This is the unit the streaming-replay
        throughput benchmark counts.
        """
        if self.kind == "arrival":
            return len(self.targets)
        if self.kind in ("departure", "adversarial"):
            return int(self.count)
        return 0


@dataclass(frozen=True)
class WorkloadTrace:
    """An immutable workload trace: header plus ordered event stream."""

    num_nodes: int
    horizon: int
    seed: int
    initial_tasks: int
    events: tuple[TraceEvent, ...]
    generator: str = "custom"

    @property
    def num_events(self) -> int:
        return len(self.events)

    @property
    def num_task_events(self) -> int:
        """Total trace-countable task events (see ``TraceEvent.task_events``)."""
        return sum(event.task_events for event in self.events)

    @property
    def final_tasks(self) -> int:
        """Task count after the whole trace has applied."""
        return self.initial_tasks + sum(e.task_delta for e in self.events)


def validate_trace(trace: WorkloadTrace) -> WorkloadTrace:
    """Check a trace's internal consistency; returns it for chaining.

    Beyond per-field ranges this proves *departure safety*: walking the
    events in order with a running task total (starting at
    ``initial_tasks``) shows every departure leaves the total
    non-negative. Compiled departures therefore never clamp, which is
    the property that makes the replayed task-count trajectory exact
    (equal to :func:`task_timeline`) on every replica under every
    engine, RNG policy, and shard configuration.
    """
    return _validate(trace, "event {}".format)


def _check_header(
    num_nodes: object, horizon: object, seed: object, initial_tasks: object
) -> None:
    """Range-check a trace's header fields."""
    if not isinstance(num_nodes, (int, np.integer)) or num_nodes < 1:
        raise ValidationError(f"num_nodes must be a positive int, got {num_nodes}")
    if not isinstance(horizon, (int, np.integer)) or horizon < 1:
        raise ValidationError(f"horizon must be a positive int, got {horizon}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"trace seed must be a non-negative int, got {seed}")
    if not isinstance(initial_tasks, (int, np.integer)) or initial_tasks < 0:
        raise ValidationError(
            f"initial_tasks must be a non-negative int, got {initial_tasks}"
        )


def _validate(trace: WorkloadTrace, name: Callable[[int], str]) -> WorkloadTrace:
    """:func:`validate_trace`, naming the event at ``position`` ``name(position)``."""
    _check_header(trace.num_nodes, trace.horizon, trace.seed, trace.initial_tasks)
    running = int(trace.initial_tasks)
    previous_round = 0
    for position, event in enumerate(trace.events):
        if event.round_index >= trace.horizon:
            raise ValidationError(
                f"{name(position)}: fires at round {event.round_index} "
                f">= horizon {trace.horizon}"
            )
        if event.round_index < previous_round:
            raise ValidationError(
                f"{name(position)}: round {event.round_index} breaks "
                "non-decreasing round order"
            )
        previous_round = event.round_index
        if event.kind == "arrival":
            if event.targets.size and event.targets.max() >= trace.num_nodes:
                raise ValidationError(
                    f"{name(position)}: arrival target {int(event.targets.max())} "
                    f"out of range [0, {trace.num_nodes - 1}]"
                )
        elif event.node >= trace.num_nodes:
            raise ValidationError(
                f"{name(position)}: node {event.node} out of range "
                f"[0, {trace.num_nodes - 1}]"
            )
        delta = event.task_delta
        if running + delta < 0:
            raise ValidationError(
                f"{name(position)}: departure of {event.count} tasks at "
                f"round {event.round_index} exceeds the {running} tasks "
                "present — the trace is not departure-safe"
            )
        running += delta
    return trace


def task_timeline(trace: WorkloadTrace) -> IntArray:
    """Expected task count before each round, aligned with recorded rows.

    ``timeline[t]`` is the system's task count at observation row ``t``
    — after all events of rounds ``< t`` and before round ``t``'s own
    events — matching the scenario recorder's row semantics exactly.
    Length ``horizon + 1``; a validated trace's replay reproduces this
    array verbatim in every replica's ``num_tasks`` trajectory.
    """
    deltas = np.zeros(trace.horizon + 1, dtype=np.int64)
    for event in trace.events:
        deltas[event.round_index + 1] += event.task_delta
    timeline = np.cumsum(deltas)
    timeline += trace.initial_tasks
    return timeline


def _event_record(event: TraceEvent) -> dict:
    record: dict = {"round": int(event.round_index), "kind": event.kind}
    if event.kind == "arrival":
        record["targets"] = event.targets.tolist()
        record["weight"] = float(event.weight)
    elif event.kind == "departure":
        record["count"] = int(event.count)
        record["node"] = int(event.node)
    elif event.kind == "relocation":
        record["node"] = int(event.node)
        record["fraction"] = float(event.fraction)
    else:  # adversarial
        record["count"] = int(event.count)
        record["weight"] = float(event.weight)
    return record


def _json_number(value: object, what: str, integer: bool = False) -> int | float:
    """``value`` as a JSON number; ``integer`` fields must be integral.

    Strings, nulls, booleans and lists are refused, and so is ``2.7``
    for a round or a count rather than being truncated, an integer
    beyond int64, and a number beyond the float range.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    if not integer:
        try:
            return float(value)
        except OverflowError:
            raise ValidationError(f"{what} is beyond the float range") from None
    if isinstance(value, float) and not value.is_integer():
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    value = int(value)
    if not -(2**63) <= value < 2**63:
        raise ValidationError(f"{what} is beyond the int64 range")
    return value


def _json_targets(value: object, where: str) -> IntArray:
    """A record's ``targets`` list as a read-only int64 array.

    An all-int list converts in one call; integral floats load as ints,
    and bools, strings, nulls, nested lists and ints beyond int64 are
    refused, as for every other integer field.
    """
    if not isinstance(value, list):
        raise ValidationError(f"{where}: 'targets' must be a list, got {value!r}")
    if not set(map(type, value)) <= {int}:
        value = [_json_number(target, f"{where}: target", True) for target in value]
    try:
        targets = np.array(value, dtype=np.int64)
    except OverflowError:
        raise ValidationError(f"{where}: target is beyond the int64 range") from None
    targets.flags.writeable = False
    return targets


#: The record keys each event kind reads (absent keys take the
#: :class:`TraceEvent` defaults).
_KIND_FIELDS = {
    "arrival": ("targets", "weight"),
    "departure": ("count", "node"),
    "relocation": ("node", "fraction"),
    "adversarial": ("count", "weight"),
}


def _event_from_record(record: object, position: int) -> TraceEvent:
    where = f"trace line {position}"
    if not isinstance(record, dict) or "kind" not in record or "round" not in record:
        raise ValidationError(
            f"{where}: malformed event record (needs 'kind' and 'round')"
        )
    kind = record["kind"]
    if not isinstance(kind, str) or kind not in _KIND_FIELDS:
        raise ValidationError(f"{where}: unknown event kind {kind!r}")
    fields: dict = {}
    for key in _KIND_FIELDS[kind]:
        if key not in record:
            continue
        value = record[key]
        if key == "targets":
            value = _json_targets(value, where)
        else:
            value = _json_number(value, f"{where}: {key!r}", key in ("count", "node"))
        fields[key] = value
    round_index = _json_number(record["round"], f"{where}: 'round'", True)
    try:
        return TraceEvent(round_index, kind, **fields)
    except ValidationError as error:
        raise ValidationError(f"{where}: {error}") from None


def save_trace(trace: WorkloadTrace, path: str | Path) -> Path:
    """Write a validated trace as versioned JSONL; returns the path."""
    validate_trace(trace)
    path = Path(path)
    header = {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "num_nodes": int(trace.num_nodes),
        "horizon": int(trace.horizon),
        "seed": int(trace.seed),
        "initial_tasks": int(trace.initial_tasks),
        "generator": trace.generator,
        "num_events": trace.num_events,
    }
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(header) + "\n")
        for event in trace.events:
            handle.write(json.dumps(_event_record(event)) + "\n")
    return path


#: The integer header fields every trace file carries.
_HEADER_NUMBERS = ("num_nodes", "horizon", "seed", "initial_tasks")


def _parse_header(path: Path, line: str | None) -> dict:
    """A trace file's checked header object, its numbers converted."""
    if line is None:
        raise ValidationError(f"trace file {path} is empty")
    try:
        header = json.loads(line)
    except json.JSONDecodeError as error:
        raise ValidationError(
            f"trace file {path}: header is not valid JSON ({error})"
        ) from None
    if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
        raise ValidationError(
            f"trace file {path}: not a {TRACE_FORMAT!r} file"
        )
    version = header.get("version")
    if version != TRACE_VERSION:
        raise ValidationError(
            f"trace file {path}: unsupported version {version!r} "
            f"(this reader handles version {TRACE_VERSION})"
        )
    numbers = {
        key: _json_number(header.get(key), f"trace file {path}: header {key!r}", True)
        for key in _HEADER_NUMBERS
    }
    _check_header(**numbers)
    return {**header, **numbers}


def load_trace_header(path: str | Path) -> dict:
    """A trace file's header, read without its events.

    The header object :func:`save_trace` wrote, with ``num_nodes``,
    ``horizon``, ``seed`` and ``initial_tasks`` checked and converted to
    ints; a malformed header is refused as :func:`load_trace` refuses it.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        line = next((line for line in (raw.strip() for raw in handle) if line), None)
    return _parse_header(path, line)


def load_trace(path: str | Path) -> WorkloadTrace:
    """Read and validate a JSONL trace file written by :func:`save_trace`."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        lines = [line for line in (raw.strip() for raw in handle) if line]
    header = _parse_header(path, lines[0] if lines else None)
    events = []
    for position, line in enumerate(lines[1:], start=1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValidationError(
                f"trace file {path} line {position}: invalid JSON ({error})"
            ) from None
        events.append(_event_from_record(record, position))
    declared = header.get("num_events")
    if declared is not None and len(events) != _json_number(
        declared, f"trace file {path}: header 'num_events'", True
    ):
        raise ValidationError(
            f"trace file {path}: header declares {declared} events, "
            f"found {len(events)}"
        )
    trace = WorkloadTrace(
        **{key: header[key] for key in _HEADER_NUMBERS},
        events=tuple(events),
        generator=str(header.get("generator", "custom")),
    )
    return _validate(trace, lambda position: f"trace line {position + 1}")
