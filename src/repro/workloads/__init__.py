"""Trace-driven traffic layer: workload generation decoupled from simulation.

The package splits "what traffic arrives" from "how the protocol copes"
into three stages with a serialization boundary between them:

1. **Generate** (:mod:`~repro.workloads.generators`): composable trace
   generators — MMPP bursty arrivals, diurnal sinusoidal cycles,
   flash-crowd cascades, and an adversarial generator whose placements
   defer to the most-loaded node at replay time — emit a canonical
   :class:`~repro.workloads.trace.TraceEvent` stream. All randomness
   derives from ``(trace seed, round, site)``, never from replica
   streams.
2. **Persist** (:mod:`~repro.workloads.trace`): a versioned JSONL trace
   format with load/save/validate, so generated traffic — or real
   request logs converted to it — replays exactly.
3. **Compile** (:mod:`~repro.workloads.compiler`): traces become
   deterministic scenario :class:`~repro.scenarios.schedule.Schedule`\\ s
   whose replay is byte-identical across engines, both RNG policies,
   any worker count, and sharded or monolithic execution.

Million-task, multi-thousand-round traces pair with the streaming
recorder (``ScenarioRunner.run_batch(..., recording=...)``) to replay
at flat memory; the ``workloads-traffic`` experiment and the
``workload-replay`` / ``workload-adversarial`` sweep cells wire the
layer into the CLI.
"""

from repro.workloads.compiler import compile_event, compile_trace
from repro.workloads.generators import (
    adversarial_trace,
    available_workloads,
    build_workload,
    diurnal_trace,
    flash_crowd_trace,
    merge_traces,
    mmpp_trace,
)
from repro.workloads.trace import (
    TRACE_FORMAT,
    TRACE_KINDS,
    TRACE_VERSION,
    TraceEvent,
    WorkloadTrace,
    load_trace,
    load_trace_header,
    save_trace,
    task_timeline,
    validate_trace,
)

__all__ = [
    "TRACE_FORMAT",
    "TRACE_KINDS",
    "TRACE_VERSION",
    "TraceEvent",
    "WorkloadTrace",
    "validate_trace",
    "task_timeline",
    "save_trace",
    "load_trace",
    "load_trace_header",
    "mmpp_trace",
    "diurnal_trace",
    "flash_crowd_trace",
    "adversarial_trace",
    "merge_traces",
    "available_workloads",
    "build_workload",
    "compile_trace",
    "compile_event",
]
