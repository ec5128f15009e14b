"""Bench: cold start of the simulator core.

A fresh interpreter imports the package, the sweep executor, the
scenario layer and the workload layer — what every sweep worker and
every benchmark process pays before its first round. Only the spectral
layer needs scipy, and it loads it on first use, so this import must
leave scipy unloaded. The baseline is the same import followed by the
scipy modules the spectral layer needs (``scipy.sparse``,
``scipy.sparse.linalg``, ``scipy.linalg``): the cost a process pays
once it evaluates a spectral quantity.

Without scipy's import churn the allocator starts with low trim
thresholds, so a kernel that allocated fresh full-stack blocks every
round would fault its pages in again every round. The weighted counter
round reuses its protocol's buffers instead; the second test pins its
per-call minor page faults in a process that never loaded scipy.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

import pytest

import repro
from benchmarks.conftest import record_bench

SAMPLES = 7

CORE_IMPORT = (
    "import sys, repro, repro.experiments.executor, repro.scenarios, repro.workloads"
)
SPECTRAL_IMPORT = "import scipy.sparse, scipy.sparse.linalg, scipy.linalg"
REPORT = "import json; print(json.dumps('scipy' in sys.modules))"

#: Minor page faults one weighted-nash call may take once warm (about
#: 160 with reused buffers; tens of thousands when the round allocates
#: its blocks afresh).
MAX_CALL_FAULTS = 1000

WEIGHTED_NASH_CALL = """
import gc, json, resource, sys
from repro.analysis.convergence import measure_convergence_rounds
from repro.core.stopping import NashStop
from repro.experiments._common import weighted_variant_setup

graph, protocol, factory = weighted_variant_setup("torus", 64, 8.0, "flow")

def call():
    measure_convergence_rounds(
        graph, protocol, factory, NashStop(), repetitions=64,
        max_rounds=20_000, seed=1, rng_policy="counter",
    )

call()  # warm-up: graph caches, buffers, lazy imports
faults = []
for _ in range(3):
    gc.collect()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    call()
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps({"scipy_loaded": "scipy" in sys.modules, "faults": faults}))
"""


def _fresh_interpreter(script: str) -> tuple[float, object]:
    """Wall time of a new interpreter running ``script``; its JSON output."""
    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    start = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        env=env,
        check=True,
        text=True,
    )
    return time.perf_counter() - start, json.loads(completed.stdout)


@pytest.mark.slow
def test_cold_import_leaves_scipy_unloaded():
    core, with_scipy = [], []
    # Alternate the two so host drift hits both alike.
    for _ in range(SAMPLES):
        seconds, loaded = _fresh_interpreter("; ".join([CORE_IMPORT, REPORT]))
        assert not loaded
        core.append(seconds)
        seconds, loaded = _fresh_interpreter(
            "; ".join([CORE_IMPORT, SPECTRAL_IMPORT, REPORT])
        )
        assert loaded
        with_scipy.append(seconds)
    core_s, scipy_s = statistics.median(core), statistics.median(with_scipy)
    record_bench(
        "cold-import repro+executor+scenarios+workloads",
        "n/a",
        core_s,
        scipy_s / core_s,
        baseline="same import plus the spectral layer's scipy modules",
        baseline_seconds=round(scipy_s, 6),
        samples=SAMPLES,
        scipy_loaded=False,
    )
    assert core_s < scipy_s


@pytest.mark.slow
@pytest.mark.skipif(
    sys.platform != "linux", reason="ru_minflt counts minor faults on Linux"
)
def test_weighted_counter_call_faults_without_scipy():
    _, report = _fresh_interpreter(WEIGHTED_NASH_CALL)
    assert not report["scipy_loaded"]
    assert max(report["faults"]) <= MAX_CALL_FAULTS, report["faults"]
