"""Composable trace generators: bursty, diurnal, flash-crowd, adversarial.

Every generator resolves its randomness at *generation* time: the draws
for round ``r`` come from ``make_rng(derive_seed(trace_seed, r, site))``
where ``site`` names the generator — the same keying discipline as the
counter RNG layer, and crucially **never** the replica streams. The
emitted :class:`~repro.workloads.trace.WorkloadTrace` is therefore a
pure function of its arguments, and the schedule compiled from it is
byte-identical across engines, RNG policies, worker counts, and shard
windows.

Generators keep a running task total (seeded with ``initial_tasks``)
and clamp departures against it at generation time, so every emitted
trace is departure-safe by construction (see
:func:`~repro.workloads.trace.validate_trace`).
"""

from __future__ import annotations

import inspect
import math

from repro.errors import ValidationError
from repro.utils.rng import derive_seed, make_rng
from repro.workloads.trace import TraceEvent, WorkloadTrace, validate_trace

__all__ = [
    "mmpp_trace",
    "diurnal_trace",
    "flash_crowd_trace",
    "adversarial_trace",
    "merge_traces",
    "available_workloads",
    "build_workload",
]


def _round_rng(seed: int, round_index: int, site: str):
    return make_rng(derive_seed(seed, round_index, site))


def _arrival_event(rng, round_index: int, num_nodes: int, count: int, weight: float):
    targets = rng.integers(0, num_nodes, size=count)
    # Read-only in place, so the event keeps this array without a copy.
    targets.flags.writeable = False
    return TraceEvent(round_index, "arrival", targets=targets, weight=weight)


def mmpp_trace(
    num_nodes: int,
    horizon: int,
    seed: int,
    *,
    rate_low: float = 8.0,
    rate_high: float = 80.0,
    switch_probability: float = 0.05,
    initial_tasks: int = 0,
    weight: float = 1.0,
) -> WorkloadTrace:
    """Markov-modulated Poisson arrivals with matched departures.

    A two-state modulating chain (calm/burst, flip probability
    ``switch_probability`` per round) selects the round's Poisson rate;
    arrivals land on uniform-random nodes and a same-rate Poisson
    departure stream (clamped to the tasks present) keeps the expected
    task count stationary between bursts.
    """
    if rate_low < 0 or rate_high < 0:
        raise ValidationError("rates must be non-negative")
    events: list[TraceEvent] = []
    running = int(initial_tasks)
    burst = False
    for round_index in range(horizon):
        rng = _round_rng(seed, round_index, "mmpp")
        if rng.random() < switch_probability:
            burst = not burst
        rate = rate_high if burst else rate_low
        arrivals = int(rng.poisson(rate))
        if arrivals:
            events.append(
                _arrival_event(rng, round_index, num_nodes, arrivals, weight)
            )
            running += arrivals
        departures = min(int(rng.poisson(rate)), running)
        if departures:
            start = int(rng.integers(0, num_nodes))
            events.append(
                TraceEvent(round_index, "departure", count=departures, node=start)
            )
            running -= departures
    return validate_trace(
        WorkloadTrace(
            num_nodes=num_nodes,
            horizon=horizon,
            seed=seed,
            initial_tasks=int(initial_tasks),
            events=tuple(events),
            generator="mmpp",
        )
    )


def diurnal_trace(
    num_nodes: int,
    horizon: int,
    seed: int,
    *,
    base_rate: float = 12.0,
    amplitude: float = 0.6,
    period: int = 48,
    initial_tasks: int = 0,
    weight: float = 1.0,
) -> WorkloadTrace:
    """Sinusoidal day/night arrival cycle with stationary departures.

    Round ``r`` draws ``Poisson(base_rate * (1 + amplitude *
    sin(2 pi r / period)))`` arrivals on uniform-random nodes and
    ``Poisson(base_rate)`` departures (clamped), so load swells and
    drains on a diurnal cycle around a stationary mean.
    """
    if not 0.0 <= amplitude <= 1.0:
        raise ValidationError(f"amplitude must lie in [0, 1], got {amplitude}")
    if period < 1:
        raise ValidationError(f"period must be >= 1, got {period}")
    events: list[TraceEvent] = []
    running = int(initial_tasks)
    for round_index in range(horizon):
        rng = _round_rng(seed, round_index, "diurnal")
        rate = base_rate * (
            1.0 + amplitude * math.sin(2.0 * math.pi * round_index / period)
        )
        arrivals = int(rng.poisson(max(rate, 0.0)))
        if arrivals:
            events.append(
                _arrival_event(rng, round_index, num_nodes, arrivals, weight)
            )
            running += arrivals
        departures = min(int(rng.poisson(base_rate)), running)
        if departures:
            start = int(rng.integers(0, num_nodes))
            events.append(
                TraceEvent(round_index, "departure", count=departures, node=start)
            )
            running -= departures
    return validate_trace(
        WorkloadTrace(
            num_nodes=num_nodes,
            horizon=horizon,
            seed=seed,
            initial_tasks=int(initial_tasks),
            events=tuple(events),
            generator="diurnal",
        )
    )


def flash_crowd_trace(
    num_nodes: int,
    horizon: int,
    seed: int,
    *,
    crowds: int = 2,
    fraction: float = 0.5,
    echoes: int = 2,
    decay: float = 0.5,
    initial_tasks: int = 0,
) -> WorkloadTrace:
    """Flash-crowd cascades: hotspot relocations with decaying echoes.

    Each crowd picks a round and a hotspot (from the trace seed), pulls
    ``fraction`` of every node's tasks there, then echoes over the
    following ``echoes`` rounds with the fraction decaying by ``decay``
    per round — the cascading pile-on pattern of a viral event. Pure
    relocation: the task count never changes.
    """
    if crowds < 1:
        raise ValidationError(f"crowds must be >= 1, got {crowds}")
    if not 0.0 <= fraction <= 1.0:
        raise ValidationError(f"fraction must lie in [0, 1], got {fraction}")
    if not 0.0 < decay <= 1.0:
        raise ValidationError(f"decay must lie in (0, 1], got {decay}")
    rng = make_rng(derive_seed(seed, "flash-crowd"))
    crowd_rounds = sorted(
        int(r) for r in rng.choice(horizon, size=min(crowds, horizon), replace=False)
    )
    events: list[TraceEvent] = []
    for start_round in crowd_rounds:
        hotspot = int(rng.integers(0, num_nodes))
        share = fraction
        for echo in range(echoes + 1):
            round_index = start_round + echo
            if round_index >= horizon or share <= 0.0:
                break
            events.append(
                TraceEvent(
                    round_index, "relocation", node=hotspot, fraction=share
                )
            )
            share *= decay
    events.sort(key=lambda event: event.round_index)
    return validate_trace(
        WorkloadTrace(
            num_nodes=num_nodes,
            horizon=horizon,
            seed=seed,
            initial_tasks=int(initial_tasks),
            events=tuple(events),
            generator="flash-crowd",
        )
    )


def adversarial_trace(
    num_nodes: int,
    horizon: int,
    seed: int,
    *,
    count: int = 8,
    period: int = 2,
    weight: float = 1.0,
    initial_tasks: int = 0,
    match_departures: bool = True,
) -> WorkloadTrace:
    """Adversarial load: arrivals that always hit the most-loaded node.

    Every ``period`` rounds the trace emits an ``adversarial`` event —
    placement is *deferred*: the compiled
    :class:`~repro.scenarios.events.AdversarialArrival` resolves the
    target per replica as the argmax-load node at application time, so
    the adversary tracks whatever imbalance the protocol has left. With
    ``match_departures`` a same-size sweep departure (start node
    rotating through the ring) keeps the task count stationary.
    """
    if count < 0:
        raise ValidationError(f"count must be >= 0, got {count}")
    if period < 1:
        raise ValidationError(f"period must be >= 1, got {period}")
    events: list[TraceEvent] = []
    running = int(initial_tasks)
    for round_index in range(0, horizon, period):
        if count:
            events.append(
                TraceEvent(round_index, "adversarial", count=count, weight=weight)
            )
            running += count
        if match_departures and count:
            departures = min(count, running)
            if departures:
                events.append(
                    TraceEvent(
                        round_index,
                        "departure",
                        count=departures,
                        node=round_index % num_nodes,
                    )
                )
                running -= departures
    return validate_trace(
        WorkloadTrace(
            num_nodes=num_nodes,
            horizon=horizon,
            seed=seed,
            initial_tasks=int(initial_tasks),
            events=tuple(events),
            generator="adversarial",
        )
    )


def merge_traces(*traces: WorkloadTrace, generator: str | None = None) -> WorkloadTrace:
    """Superpose traces on a shared vertex set into one trace.

    Events merge by round (stable: within a round, earlier arguments'
    events apply first); the merged header takes the first trace's seed,
    the maximum horizon, and the *sum* of initial task counts — each
    constituent's running total stays an additive component of the
    merged one, so departure safety is preserved by construction.
    """
    if not traces:
        raise ValidationError("merge_traces needs at least one trace")
    num_nodes = traces[0].num_nodes
    for trace in traces[1:]:
        if trace.num_nodes != num_nodes:
            raise ValidationError(
                "merge_traces needs a shared vertex count; got "
                f"{num_nodes} and {trace.num_nodes}"
            )
    merged = [event for trace in traces for event in trace.events]
    merged.sort(key=lambda event: event.round_index)
    label = generator or "+".join(trace.generator for trace in traces)
    return validate_trace(
        WorkloadTrace(
            num_nodes=num_nodes,
            horizon=max(trace.horizon for trace in traces),
            seed=traces[0].seed,
            initial_tasks=sum(trace.initial_tasks for trace in traces),
            events=tuple(merged),
            generator=label,
        )
    )


def _keywords(*generators) -> frozenset[str]:
    """The keyword-only parameters of ``generators`` but ``initial_tasks``."""
    return frozenset(
        name
        for generator in generators
        for name, p in inspect.signature(generator).parameters.items()
        if p.kind is p.KEYWORD_ONLY and name != "initial_tasks"
    )


def _mmpp_flash(num_nodes, horizon, seed, *, initial_tasks=0, **overrides):
    flash_keys = _keywords(flash_crowd_trace)
    flash_args = {k: v for k, v in overrides.items() if k in flash_keys}
    mmpp_args = {k: v for k, v in overrides.items() if k not in flash_keys}
    return merge_traces(
        mmpp_trace(
            num_nodes, horizon, seed, initial_tasks=initial_tasks, **mmpp_args
        ),
        flash_crowd_trace(num_nodes, horizon, seed, **flash_args),
        generator="mmpp+flash-crowd",
    )


#: Named workloads for ``--workload NAME`` and the sweep cells, each
#: with the generators whose keywords it takes.
_WORKLOADS = {
    "mmpp": (mmpp_trace, (mmpp_trace,)),
    "diurnal": (diurnal_trace, (diurnal_trace,)),
    "flash-crowd": (flash_crowd_trace, (flash_crowd_trace,)),
    "adversarial": (adversarial_trace, (adversarial_trace,)),
    "mmpp-flash": (_mmpp_flash, (mmpp_trace, flash_crowd_trace)),
}


def available_workloads() -> list[str]:
    """Sorted names accepted by :func:`build_workload` (and ``--workload``)."""
    return sorted(_WORKLOADS)


def build_workload(
    name: str,
    num_nodes: int,
    horizon: int,
    seed: int,
    *,
    initial_tasks: int = 0,
    **overrides,
) -> WorkloadTrace:
    """Build a named workload trace (see :func:`available_workloads`).

    ``overrides`` are the generator's keywords; ``"mmpp-flash"`` takes
    those of :func:`mmpp_trace` and :func:`flash_crowd_trace`.
    """
    try:
        builder, generators = _WORKLOADS[name]
    except KeyError:
        raise ValidationError(
            f"unknown workload {name!r}; available: {available_workloads()}"
        ) from None
    unknown = sorted(set(overrides) - _keywords(*generators))
    if unknown:
        raise ValidationError(
            f"workload {name!r} does not take {unknown}; "
            f"it takes {sorted(_keywords(*generators))}"
        )
    return builder(
        num_nodes, horizon, seed, initial_tasks=initial_tasks, **overrides
    )
