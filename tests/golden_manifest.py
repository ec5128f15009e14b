"""The golden manifest: digests of every quick experiment and benchmark.

``tests/golden/manifest.json`` maps an entry name to a 16-hex digest:

* ``experiment/<id>/<rng>`` — the sha256 of the quick JSON artifact of
  registered experiment ``<id>`` under ``--rng <rng>`` (both policies),
  ``run_meta`` dropped (:func:`quick_json.digest`);
* ``perfbench/<workload>/seed<seed>`` — the output digest of each
  ``perfbench`` workload at its full size and seeds 1 and 7919.

``tests/test_golden_manifest.py`` recomputes every entry in-process and
lists the entries that moved. A change that moves an entry on purpose
rewrites the file with::

    PYTHONPATH=src python tests/golden_manifest.py

and says in CHANGES.md which entries moved and why.
"""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path

import quick_json

from repro.experiments.registry import available_experiments, run_experiment
from repro.utils.serialization import to_json

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from suite import WORKLOADS  # noqa: E402

MANIFEST = Path(__file__).resolve().parent / "golden" / "manifest.json"
RNG_POLICIES = ("spawned", "counter")
PERFBENCH_SEEDS = (1, 7919)


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
    return from_experiments + from_perfbench


def compute(name: str) -> str:
    """Recompute manifest entry ``name``."""
    kind, label, variant = name.split("/")
    if kind == "experiment":
        return experiment_digest(label, variant)
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
