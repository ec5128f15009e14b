"""The simulator's benchmark: one workload per run, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload weighted-nash-counter --seed 1 \
        --seconds 10 --trace 0

The workloads and why each was chosen are described in ``suite.py``.
``--seed`` is the only source of workload randomness. Seed
:data:`HELD_OUT_SEED` is held out: tune nothing on it, and a claimed
gain must also hold there.

A run builds the workload's inputs :data:`SETUP_REPEATS` times, warms
up for :data:`WARMUP_SECONDS`, then repeats the workload's public call
until ``--seconds`` have passed (at least :data:`MIN_ITERATIONS` times)
and checks every output.

A shared host can drift in speed by up to half over tens of seconds,
which no median within one run removes. So a fixed reference kernel
(:class:`_Reference`, no simulator code) is timed between consecutive
calls, and each call's duration is rescaled by
:data:`REFERENCE_NOMINAL_S` over the mean of the two reference times
around it: "normalized seconds" are seconds on a host where the
reference kernel takes :data:`REFERENCE_NOMINAL_S`. A change to the
simulator moves them in proportion to raw seconds; a change in host
speed mostly cancels. Set-up repeats are normalized the same way.

``--trace 0`` reports the end-to-end metrics, all from untraced calls:

* ``setup_s`` — a fresh interpreter importing the package plus building
  the inputs (graphs, spectral quantities, initial stacks, trace
  generation and compilation): the median over the repeats, in
  normalized seconds;
* ``wall_norm_s`` — median normalized duration of the public call, the
  time to a solution;
* ``replica_rounds_per_norm_s`` — replica-rounds executed per
  normalized second of ``wall_norm_s`` (the count is fixed by the seed);
* ``cells_per_norm_s`` — measurement cells completed per normalized
  second (13 on the Table-1 sweep, 1 on the others);
* ``peak_rss_mb`` — peak resident memory of this process.

``--trace 1`` alternates untraced and traced calls and reports per-layer
self times and counts from the traced ones (see ``tracer.py``), plus
``tracer.overhead``, the traced median wall-clock over the untraced
one, minus one.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
carries informational fields: the output digest (equal digests mean
bit-identical outputs), the failed-check fraction, task events per
normalized second, the raw and normalized call durations, the reference
times, and the machine block.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
SETUP_REPEATS = 5
MIN_ITERATIONS = 3
WARMUP_SECONDS = 1.0
REFERENCE_LOOP_STEPS = 1000
REFERENCE_PLAIN_STEPS = 70000
REFERENCE_GATHER_STEPS = 90
REFERENCE_NOMINAL_S = 0.08

_IMPORT_STATEMENT = (
    "import repro, repro.experiments.executor, repro.scenarios, repro.workloads"
)


def _import_seconds() -> float:
    """Start a fresh interpreter that imports the package; its wall time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", _IMPORT_STATEMENT], cwd=ROOT, env=env, check=True
    )
    return time.perf_counter() - start


class _Reference:
    """The fixed reference kernel; it touches no simulator code.

    Its time splits about evenly between small numpy operations in an
    interpreter loop, plain interpreter work on dicts, lists and
    attributes, and random gathers over a 4 MB array, so it slows with
    the host the way the simulator's mix of interpreter work and memory
    traffic does.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.table = rng.random((64, 64))
        self.values = rng.random(1 << 19)
        self.index = rng.integers(0, 1 << 19, 1 << 15)

    def seconds(self) -> float:
        import numpy as np

        table, tally = self.table, {}
        bins = [[step] for step in range(64)]
        start = time.perf_counter()
        for step in range(REFERENCE_LOOP_STEPS):
            sums = np.cumsum(table, axis=1)
            picks = sums.argmax(axis=1)
            table = table + 1e-9 * sums
            tally[step % 17] = tally.get(step % 17, 0) + int(picks[step % 64])
        for step in range(REFERENCE_PLAIN_STEPS):
            held = bins[step & 63]
            held.append(step)
            if len(held) > 8:
                del held[:4]
            tally[step * 7 % 257] = tally.get(step * 7 % 257, 0) + held[-1]
        for _ in range(REFERENCE_GATHER_STEPS):
            gathered = self.values.take(self.index)
            np.bincount(self.index & 4095, weights=gathered, minlength=4096)
            np.argsort(gathered[:2048])
        return time.perf_counter() - start


def _machine() -> dict:
    import numpy

    from repro.backends import resolve_backend

    try:
        import numba

        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": numba_version,
        "backend_effective": resolve_backend("numpy", warn=False).name,
    }


class _Checks:
    """Counts correctness checks; an exception counts as a failed one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: dict[str, int] = {}

    def record(self, results: dict[str, bool]) -> None:
        for name, passed in results.items():
            self.attempted += 1
            if not passed:
                self.failed[name] = self.failed.get(name, 0) + 1

    @property
    def failures(self) -> int:
        return sum(self.failed.values())


def _timed_call(workload, checks: _Checks, tracer=None) -> tuple[float, object]:
    """One call of the workload, checked; returns ``(seconds, output)``."""
    args = workload.fresh()
    # Garbage from the previous call is collected here, not inside the
    # timed region of this one.
    gc.collect()
    if tracer is not None:
        tracer.enabled = True
    try:
        start = time.perf_counter()
        output = workload.call(*args)
        seconds = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.enabled = False
    checks.record(workload.checks(output))
    return seconds, output


def _normalized(durations: list[float], references: list[float]) -> list[float]:
    """Rescale each duration by the mean of the reference times either side."""
    return [
        elapsed * REFERENCE_NOMINAL_S / statistics.fmean(references[i : i + 2])
        for i, elapsed in enumerate(durations)
    ]


def measure(name: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None):
    """Run one workload; returns ``(result, detail)`` dictionaries."""
    from suite import WORKLOADS

    import tracer as tracing

    cls = WORKLOADS[name]
    options = cls.full if sizes is None else sizes
    reference = _Reference()
    setup_references = [reference.seconds()]
    setups, facts = [], []
    for _ in range(SETUP_REPEATS):
        import_s = _import_seconds()
        start = time.perf_counter()
        workload = cls(seed, **options)
        setups.append(import_s + time.perf_counter() - start)
        facts.append(workload.setup_facts)
        setup_references.append(reference.seconds())

    checks = _Checks()
    plain: list[float] = []
    traced: list[float] = []
    recorder = None
    if trace:
        recorder = tracing.Tracer()
        tracing.install_layers(recorder)
    try:
        # Calls before timing: lazy imports, graph caches and allocator
        # pools are paid once per process, not per solution.
        warm_until = time.perf_counter() + WARMUP_SECONDS
        while True:
            _timed_call(workload, checks)
            if time.perf_counter() >= warm_until:
                break
        references = [reference.seconds()]
        deadline = time.perf_counter() + seconds
        while len(plain) < MIN_ITERATIONS or time.perf_counter() < deadline:
            elapsed, output = _timed_call(workload, checks)
            plain.append(elapsed)
            references.append(reference.seconds())
            if recorder is not None:
                traced.append(_timed_call(workload, checks, recorder)[0])
    except Exception:
        traceback.print_exc()
        checks.record({"call raised": False})
    finally:
        if recorder is not None:
            recorder.restore()
    if not plain or (trace and not traced):
        raise RuntimeError(f"workload {name} completed no timed call")

    wall = statistics.median(plain)
    normalized = _normalized(plain, references)
    wall_norm = statistics.median(normalized)
    work = workload.work(output)
    if trace:
        metrics = tracing.layer_metrics(recorder, len(traced))
        for key in ("workloads.generate_s", "workloads.compile_s", "workloads.task_events"):
            metrics[key] = statistics.median(fact.get(key, 0.0) for fact in facts)
        metrics["tracer.overhead"] = statistics.median(traced) / wall - 1.0
    else:
        metrics = {
            "setup_s": statistics.median(_normalized(setups, setup_references)),
            "wall_norm_s": wall_norm,
            "replica_rounds_per_norm_s": work["replica_rounds"] / wall_norm,
            "cells_per_norm_s": work["cells"] / wall_norm,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    result = {
        "correct": checks.failures == 0,
        "attempted": checks.attempted,
        "failed": checks.failures,
        "metrics": metrics,
    }
    detail = {
        "workload": name,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "iterations": len(plain),
        "setup_s_samples": setups,
        "wall_s": wall,
        "wall_s_samples": plain,
        "wall_norm_s_samples": normalized,
        "reference_s_samples": references,
        "traced_iterations": len(traced),
        "digest": workload.digest(output),
        "failed_fraction": checks.failures / checks.attempted,
        "failed_checks": checks.failed,
        "task_events_per_norm_s": work["task_events"] / wall_norm,
        "machine": _machine(),
    }
    return result, detail


def with_units(metrics: dict[str, float]) -> dict[str, dict]:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from suite import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result["metrics"] = with_units(result["metrics"])
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
