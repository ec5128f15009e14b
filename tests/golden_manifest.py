"""The golden manifest: digests of every quick experiment and benchmark.

``tests/golden/manifest.json`` maps an entry name to a 16-hex digest:

* ``experiment/<id>/<rng>`` — the sha256 of the quick JSON artifact of
  registered experiment ``<id>`` under ``--rng <rng>`` (both policies),
  ``run_meta`` dropped (:func:`quick_json.digest`);
* ``perfbench/<workload>/seed<seed>`` — the output digest of each
  ``perfbench`` workload at its full size and seeds 1 and 7919;
* ``scenario/<tasks>/<run>`` — the sha256 of every field of one small
  :class:`~repro.scenarios.ScenarioResult` or
  :class:`~repro.scenarios.StreamingScenarioResult` (arrays with their
  dtypes, the event log with ``psi0_after``, the spectral trace, the
  streaming summaries and counters) for ``<tasks>`` in {uniform,
  weighted} and ``<run>`` one of :data:`SCENARIO_RUNS`: the scalar
  ``run``, spawned and counter batch ensembles, each fully recorded and
  streamed, plus one spawned replica window. The schedule churns every
  round and fires a shock, a speed change, an edge failure and an edge
  recovery.
* ``trace/<workload>`` — the sha256 of the ``save_trace`` JSONL bytes
  and the ``task_timeline`` of every named workload in
  :func:`~repro.workloads.available_workloads`, built at a small fixed
  size and seed (:data:`TRACE_ARGS`), so trace generation is pinned
  byte for byte.

``tests/test_golden_manifest.py`` recomputes every entry in-process and
lists the entries that moved. A change that moves an entry on purpose
rewrites the file with::

    PYTHONPATH=src python tests/golden_manifest.py

and says in CHANGES.md which entries moved and why.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import quick_json

from repro.core.protocols import SelfishUniformProtocol, SelfishWeightedProtocol
from repro.core.stopping import PotentialThresholdStop
from repro.experiments.registry import available_experiments, run_experiment
from repro.graphs.families import get_family
from repro.model.placement import place_weighted_random, random_placement
from repro.model.state import UniformState, WeightedState
from repro.model.tasks import two_class_weights
from repro.scenarios import (
    EdgeFailure,
    EdgeRecovery,
    LoadShock,
    PoissonChurnEvent,
    ScenarioRunner,
    Schedule,
    SpeedChange,
    StreamingRecording,
    at,
    every,
)
from repro.utils.serialization import to_json
from repro.workloads import available_workloads, build_workload, save_trace, task_timeline

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from suite import WORKLOADS  # noqa: E402

MANIFEST = Path(__file__).resolve().parent / "golden" / "manifest.json"
RNG_POLICIES = ("spawned", "counter")
PERFBENCH_SEEDS = (1, 7919)
SCENARIO_TASKS = ("uniform", "weighted")
SCENARIO_RUNS = (
    "scalar-full",
    "scalar-streaming",
    "spawned-full",
    "spawned-streaming",
    "counter-full",
    "counter-streaming",
    "window-full",
)
SCENARIO_SEED = 2024
SCENARIO_REPLICAS = 4
SCENARIO_ROUNDS = 24
TRACE_ARGS = dict(num_nodes=12, horizon=60, seed=11, initial_tasks=50)


def experiment_digest(experiment_id: str, rng_policy: str) -> str:
    """Digest of one quick experiment run, as the CLI's ``--json`` holds it."""
    with warnings.catch_warnings():
        # Experiments without an rng_policy parameter warn and run spawned.
        warnings.simplefilter("ignore", RuntimeWarning)
        result = run_experiment(experiment_id, quick=True, rng_policy=rng_policy)
    doc = {experiment_id: {"passed": result.passed, **result.data}}
    return quick_json.digest(json.loads(to_json(doc)))


def perfbench_digest(workload: str, seed: int) -> str:
    """Output digest of one full-size ``perfbench`` workload call."""
    cls = WORKLOADS[workload]
    instance = cls(seed, **cls.full)
    return instance.digest(instance.call(*instance.fresh()))


def _scenario_runner(tasks: str):
    """A 4x4 torus under churn, a shock, a speed change and a link outage."""
    graph = get_family("torus").make(16)
    n = graph.num_vertices
    speeds = np.where(np.arange(n) % 3 == 0, 2.0, 1.0)
    if tasks == "uniform":
        protocol = SelfishUniformProtocol()
        target = PotentialThresholdStop(400.0)
        churn = PoissonChurnEvent(2.0)

        def factory(rng):
            return UniformState(random_placement(n, 10 * n, rng), speeds)

    else:
        protocol = SelfishWeightedProtocol()
        target = PotentialThresholdStop(15.0)
        churn = PoissonChurnEvent(1.0, weight=0.5)
        weights = two_class_weights(4 * n, heavy_fraction=0.25)

        def factory(rng):
            return WeightedState(place_weighted_random(4 * n, n, rng), weights, speeds)

    schedule = Schedule(
        [
            every(1, churn),
            at(5, LoadShock(0.5, node=0)),
            at(8, SpeedChange(node=3, factor=2.0)),
            at(10, EdgeFailure(fraction=0.25, seed=3)),
            at(15, EdgeRecovery()),
        ]
    )
    return ScenarioRunner(graph, protocol, schedule, target=target), factory


def _fold(sha, value) -> None:
    """Feed ``value`` (arrays with dtype and shape) into ``sha``."""
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            sha.update(field.name.encode())
            _fold(sha, getattr(value, field.name))
    elif isinstance(value, dict):
        for key in sorted(value):
            sha.update(str(key).encode())
            _fold(sha, value[key])
    elif isinstance(value, (list, tuple)):
        sha.update(f"[{len(value)}]".encode())
        for item in value:
            _fold(sha, item)
    elif isinstance(value, np.ndarray):
        array = np.ascontiguousarray(value)
        sha.update(f"{array.dtype.str}{array.shape}".encode())
        sha.update(array.tobytes())
    else:
        sha.update(f"{type(value).__name__}:{value!r}".encode())


def scenario_digest(tasks: str, run: str) -> str:
    """Digest of every field of one scenario result (see module docstring)."""
    runner, factory = _scenario_runner(tasks)
    engine, mode = run.split("-")
    recording = (
        StreamingRecording(thin_every=3, chunk_rounds=4) if mode == "streaming" else None
    )
    if engine == "scalar":
        state = factory(np.random.default_rng(SCENARIO_SEED))
        result = runner.run(state, SCENARIO_ROUNDS, rng=SCENARIO_SEED, recording=recording)
    elif engine == "window":
        result = runner.run_ensemble(
            factory,
            SCENARIO_REPLICAS,
            SCENARIO_ROUNDS,
            seed=SCENARIO_SEED,
            engine="batch",
            replica_offset=1,
            replica_count=2,
        )
    else:
        result = runner.run_ensemble(
            factory,
            SCENARIO_REPLICAS,
            SCENARIO_ROUNDS,
            seed=SCENARIO_SEED,
            engine="batch",
            rng_policy=engine,
            recording=recording,
        )
    fields = {
        field.name: getattr(result, field.name)
        for field in dataclasses.fields(result)
        if field.name != "final_state"
    }
    final = result.final_state
    fields["final_state"] = (type(final).__name__, np.asarray(final.loads), final.num_tasks)
    sha = hashlib.sha256()
    _fold(sha, fields)
    return sha.hexdigest()[:16]


def trace_digest(workload: str) -> str:
    """Digest of one workload's saved JSONL bytes and its task timeline."""
    trace = build_workload(workload, **TRACE_ARGS)
    with tempfile.TemporaryDirectory() as directory:
        path = save_trace(trace, Path(directory) / "trace.jsonl")
        saved = path.read_bytes()
    sha = hashlib.sha256(saved)
    _fold(sha, task_timeline(trace))
    return sha.hexdigest()[:16]


def entry_names() -> list[str]:
    from_experiments = [
        f"experiment/{experiment_id}/{rng}"
        for experiment_id in available_experiments()
        for rng in RNG_POLICIES
    ]
    from_perfbench = [
        f"perfbench/{workload}/seed{seed}"
        for workload in WORKLOADS
        for seed in PERFBENCH_SEEDS
    ]
    from_scenarios = [
        f"scenario/{tasks}/{run}" for tasks in SCENARIO_TASKS for run in SCENARIO_RUNS
    ]
    from_traces = [f"trace/{workload}" for workload in available_workloads()]
    return from_experiments + from_perfbench + from_scenarios + from_traces


def compute(name: str) -> str:
    """Recompute manifest entry ``name``."""
    kind, label, *variant = name.split("/")
    if kind == "trace":
        return trace_digest(label)
    (variant,) = variant
    if kind == "experiment":
        return experiment_digest(label, variant)
    if kind == "scenario":
        return scenario_digest(label, variant)
    return perfbench_digest(label, int(variant.removeprefix("seed")))


def load() -> dict[str, str]:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def main() -> int:
    entries = {name: compute(name) for name in entry_names()}
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(entries, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {MANIFEST.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
