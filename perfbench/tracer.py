"""In-memory span tracer for the benchmark's traced run.

The traced run wraps the simulator's public callables at the attribute
their callers look up (a module global, a class method, a graph
family's ``make``), records one span per call — name, layer, parent,
start, end — plus per-layer work counts, and restores every attribute
when the run ends. Nothing inside ``src/`` is instrumented.

A layer's self time is the duration of its spans minus the time their
child spans cover. Every span opened while tracing is enabled nests
under the workload's top-level public call, so the self times of all
layers (including the tracer's own bookkeeping) sum to the traced
wall-clock.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable

import numpy as np

#: Layer name -> the counters it reports (besides ``self_s``).
LAYER_COUNTS: dict[str, tuple[str, ...]] = {
    "streams": ("calls", "words", "runs"),
    "kernel": ("calls", "replica_rounds", "tasks_moved"),
    "state": ("calls",),
    "stopping": ("calls", "rows_checked"),
    "loop": ("rounds",),
    "events": ("calls", "tasks_added", "tasks_removed"),
    "scenario": (),
    "convergence": (),
    "spectral": ("calls",),
    "executor": ("cells",),
}

# Span record fields (a list per span keeps the hot path allocation-light).
_NAME, _LAYER, _PARENT, _START, _END, _CHILD = range(6)


def _assign(owner: object, name: str, value: object) -> None:
    """Set an attribute on a class, a module or a frozen dataclass."""
    if isinstance(owner, type):
        setattr(owner, name, value)
    else:
        object.__setattr__(owner, name, value)


def _subclasses(base: type) -> list[type]:
    found, pending = [base], [base]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found


def _contiguous_runs(rows: np.ndarray) -> int:
    """Maximal runs of consecutive values in a non-empty row set (one fill each)."""
    return int(np.count_nonzero(np.diff(np.unique(rows)) > 1)) + 1


class Tracer:
    """Records spans and counts while :attr:`enabled` is true."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def _open(self, name: str, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, parent, time.perf_counter(), 0.0, 0.0])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        span = self.spans[index]
        span[_END] = end
        self._stack.pop()
        if span[_PARENT] >= 0:
            self.spans[span[_PARENT]][_CHILD] += end - span[_START]

    def _outermost(self, index: int) -> bool:
        """Whether the span is not nested in a span of its own layer."""
        parent = self.spans[index][_PARENT]
        return parent < 0 or self.spans[parent][_LAYER] != self.spans[index][_LAYER]

    def wrap(
        self,
        fn: Callable,
        layer: str,
        count: Callable | None = None,
        prepare: Callable | None = None,
    ) -> Callable:
        """``fn`` traced as a ``layer`` span.

        ``count(counts, args, kwargs, result)`` records work done by the
        outermost call into the layer; it runs in a ``tracer`` span so
        its cost is not charged to the layer being measured.
        ``prepare(args, kwargs)`` may rewrite the arguments first (the
        loop wraps the scenario hooks it is handed).
        """
        tracer = self
        name = getattr(fn, "__qualname__", repr(fn))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            index = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if count is not None and tracer._outermost(index):
                book = tracer._open("count", "tracer")
                try:
                    count(tracer.counts, args, kwargs, result)
                finally:
                    tracer._close(book)
            return result

        return traced

    def patch(self, owner: object, name: str, layer: str, **options) -> None:
        """Replace ``owner.name`` by its traced wrapper until :meth:`restore`."""
        original = owner.__dict__[name]
        self._patches.append((owner, name, original))
        _assign(owner, name, self.wrap(original, layer, **options))

    def patch_everywhere(self, fn: Callable, layer: str, **options) -> None:
        """Trace ``fn`` in every loaded ``repro`` module that binds it."""
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "repro" or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, layer, **options)

    def patch_overrides(self, base: type, method: str, layer: str, **options) -> None:
        """Trace ``method`` on ``base`` and every subclass that overrides it."""
        for cls in _subclasses(base):
            if method in cls.__dict__:
                self.patch(cls, method, layer, **options)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            _assign(owner, name, original)

    # -- results -------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Per-layer self time summed over every recorded span."""
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span[_LAYER]] += span[_END] - span[_START] - span[_CHILD]
        return totals

    def wall_time(self) -> float:
        """Summed duration of the top-level spans."""
        return sum(
            span[_END] - span[_START] for span in self.spans if span[_PARENT] < 0
        )


# -- per-layer counting hooks -------------------------------------------
def _arg(args: tuple, kwargs: dict, position: int, name: str):
    if len(args) > position:
        return args[position]
    return kwargs.get(name)


def _count_site_uniforms(counts, args, kwargs, result) -> None:
    layout, rows = args[0], np.asarray(_arg(args, kwargs, 2, "rows"), dtype=np.int64)
    width = int(_arg(args, kwargs, 3, "width"))
    counts["streams.calls"] += 1
    counts["streams.words"] += rows.size * width
    if rows.size and width:
        counts["streams.runs"] += _contiguous_runs(rows + layout.replica_offset)


def _count_site(counts, args, kwargs, result) -> None:
    counts["streams.calls"] += 1
    counts["streams.runs"] += 1


def _count_kernel(counts, args, kwargs, result) -> None:
    batch = args[1]
    active = _arg(args, kwargs, 4, "active")
    tasks = batch.num_tasks
    if active is not None:
        tasks = tasks[np.asarray(active, dtype=bool)]
    counts["kernel.calls"] += 1
    counts["kernel.replica_rounds"] += tasks.size
    counts["kernel.active_tasks"] += int(tasks.sum())
    counts["kernel.tasks_moved"] += int(result.tasks_moved.sum())


def _count_calls(layer: str) -> Callable:
    def count(counts, args, kwargs, result) -> None:
        counts[f"{layer}.calls"] += 1

    return count


def _count_stopping(counts, args, kwargs, result) -> None:
    hits = np.asarray(result, dtype=bool)
    counts["stopping.calls"] += 1
    counts["stopping.rows_checked"] += hits.size
    counts["stopping.hits"] += int(np.count_nonzero(hits))


def _count_loop(counts, args, kwargs, result) -> None:
    counts["loop.rounds"] += result.rounds_executed


def _count_events(counts, args, kwargs, result) -> None:
    counts["events.calls"] += 1
    counts["events.tasks_added"] += int(result.tasks_added.sum())
    counts["events.tasks_removed"] += int(result.tasks_removed.sum())


def _count_cells(counts, args, kwargs, result) -> None:
    counts["executor.cells"] += len(result.results)


def install_layers(tracer: Tracer) -> None:
    """Wrap each simulator layer's public boundary (see ``LAYER_COUNTS``)."""
    from repro.analysis import convergence
    from repro.core.batch import BatchSimulator
    from repro.core.protocols import Protocol
    from repro.core.stopping import StoppingRule
    from repro.experiments import executor
    from repro.graphs.families import FAMILIES
    from repro.model.batch import BatchUniformState, BatchWeightedState
    from repro.scenarios import ScenarioRunner
    from repro.scenarios.events import Event
    from repro.spectral.eigen import algebraic_connectivity
    from repro.utils.rng import CounterStreams

    tracer.patch(CounterStreams, "site_uniforms", "streams", count=_count_site_uniforms)
    tracer.patch(CounterStreams, "site", "streams", count=_count_site)
    tracer.patch_overrides(Protocol, "execute_round_batch", "kernel", count=_count_kernel)
    for cls, methods in (
        (BatchWeightedState, ("apply_moves", "add_tasks", "remove_tasks", "compact")),
        (BatchUniformState, ("apply_flows", "adjust_counts")),
    ):
        for method in methods:
            tracer.patch(cls, method, "state", count=_count_calls("state"))
    tracer.patch_overrides(StoppingRule, "satisfied_batch", "stopping", count=_count_stopping)

    def hooks_as_scenario(args, kwargs):
        # The scenario runner's recording and event hooks run inside the
        # round loop; charge them to the scenario layer, not the loop.
        for key in ("before_round", "after_round"):
            if kwargs.get(key) is not None:
                kwargs[key] = tracer.wrap(kwargs[key], "scenario")
        return args, kwargs

    tracer.patch(BatchSimulator, "run", "loop", count=_count_loop, prepare=hooks_as_scenario)
    tracer.patch_overrides(Event, "apply_batch", "events", count=_count_events)
    tracer.patch(ScenarioRunner, "run_batch", "scenario")
    tracer.patch(ScenarioRunner, "run_ensemble", "scenario")
    tracer.patch_everywhere(convergence.measure_convergence_rounds, "convergence")
    tracer.patch_everywhere(algebraic_connectivity, "spectral", count=_count_calls("spectral"))
    for family in FAMILIES.values():
        tracer.patch(family, "make", "spectral", count=_count_calls("spectral"))
    tracer.patch_everywhere(executor.execute_cells_report, "executor", count=_count_cells)


def layer_metrics(tracer: Tracer, iterations: int) -> dict[str, float]:
    """Per-iteration self times and counts of every layer."""
    selfs = tracer.self_times()
    counts = tracer.counts
    metrics: dict[str, float] = {}
    for layer, names in LAYER_COUNTS.items():
        metrics[f"{layer}.self_s"] = selfs.get(layer, 0.0) / iterations
        for name in names:
            metrics[f"{layer}.{name}"] = counts.get(f"{layer}.{name}", 0.0) / iterations
    active_tasks = counts.get("kernel.active_tasks", 0.0)
    rows = counts.get("stopping.rows_checked", 0.0)
    rounds = counts.get("loop.rounds", 0.0)
    metrics["kernel.move_ratio"] = (
        counts.get("kernel.tasks_moved", 0.0) / active_tasks if active_tasks else 0.0
    )
    metrics["stopping.hit_ratio"] = counts.get("stopping.hits", 0.0) / rows if rows else 0.0
    metrics["loop.active_mean"] = (
        counts.get("kernel.replica_rounds", 0.0) / rounds if rounds else 0.0
    )
    metrics["tracer.self_s"] = selfs.get("tracer", 0.0) / iterations
    metrics["tracer.wall_s"] = tracer.wall_time() / iterations
    return metrics
