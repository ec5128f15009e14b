"""Cold start: the simulator core imports without scipy.

Only the spectral layer needs scipy, and it imports it the first time a
spectral function runs. A fresh interpreter that imports the package,
the sweep executor, the scenario layer and the workload layer must
leave scipy unloaded; the spectral functions must then load it and
return exactly what they return in this process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.graphs.generators import torus_graph
from repro.model.speeds import two_class_speeds
from repro.spectral import eigen
from repro.spectral.eigen import algebraic_connectivity, generalized_lambda2
from repro.spectral.laplacian import laplacian_matrix, laplacian_sparse

SCRIPT = """
import json, sys
import repro, repro.experiments.executor, repro.scenarios, repro.workloads
before = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

from repro.graphs.generators import torus_graph
from repro.model.speeds import two_class_speeds
from repro.spectral import eigen
from repro.spectral.eigen import algebraic_connectivity, generalized_lambda2
from repro.spectral.laplacian import laplacian_sparse

graph = torus_graph(4)
speeds = two_class_speeds(graph.num_vertices, 0.25, 2.0)
result = {
    "before": before,
    "lambda2": algebraic_connectivity(graph),
    "mu2": generalized_lambda2(graph, speeds),
    "laplacian": laplacian_sparse(graph).toarray().tolist(),
}
eigen.DENSE_CUTOFF = 4  # the sparse eigensolver paths
fiedler = eigen.fiedler_vector(graph)
result.update(
    after="scipy" in sys.modules,
    sparse_lambda2=algebraic_connectivity(graph),
    sparse_mu2=generalized_lambda2(graph, speeds),
    fiedler=fiedler.tolist(),
)
print(json.dumps(result))
"""


@pytest.fixture(scope="module")
def cold():
    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        env=env,
        check=True,
        text=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def test_core_imports_leave_scipy_unloaded(cold):
    assert cold["before"] == []


def test_spectral_call_loads_scipy_and_matches(cold):
    graph = torus_graph(4)
    speeds = two_class_speeds(graph.num_vertices, 0.25, 2.0)
    assert cold["after"]
    assert cold["lambda2"] == algebraic_connectivity(graph)
    assert cold["mu2"] == generalized_lambda2(graph, speeds)
    np.testing.assert_array_equal(
        np.array(cold["laplacian"]), laplacian_sparse(graph).toarray()
    )


def test_sparse_paths_agree_with_dense(cold):
    graph = torus_graph(4)
    lambda2 = cold["lambda2"]
    assert cold["sparse_lambda2"] == pytest.approx(lambda2, rel=1e-8)
    assert cold["sparse_mu2"] == pytest.approx(cold["mu2"], rel=1e-8)
    fiedler = np.array(cold["fiedler"])
    np.testing.assert_allclose(
        laplacian_matrix(graph) @ fiedler, lambda2 * fiedler, atol=1e-8
    )
    assert eigen.DENSE_CUTOFF == 1500  # the subprocess patched only itself
