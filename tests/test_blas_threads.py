"""One BLAS thread, whatever the environment exports.

A threaded OpenBLAS splits the long reduction of a short, wide GEMM
(the MLP's ``a_prev^T @ delta`` weight gradient over 3 000 rows) across
threads and sums the partials in a different order, so MLP parameters
would depend on ``OPENBLAS_NUM_THREADS``.  ``import repro`` pins it to 1
before NumPy loads; this runs the same training in two interpreters
that export different thread counts and asks for identical bits.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from repro.datasets import load_mlp
from repro.sgd.reference import reference_problem

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def test_mlp_params_do_not_depend_on_exported_blas_threads(tmp_path):
    ds = load_mlp("covtype", "small")
    _, _, key = reference_problem("mlp", "covtype", ds, None)
    cache = tmp_path / "cache"
    cache.mkdir()
    # A pinned optimum: both runs train, neither solves the reference.
    (cache / "reference_losses.json").write_text(json.dumps({key: 1e-6}))
    params = {}
    for threads in ("2", "1"):
        out = tmp_path / f"model-{threads}.json"
        subprocess.run(
            [
                sys.executable, "-m", "repro", "train", "--task", "mlp",
                "--dataset", "covtype", "--scale", "small",
                "--strategy", "synchronous", "--architecture", "cpu-par",
                "--epochs", "3", "--model-out", str(out),
            ],
            env={
                **os.environ,
                "PYTHONPATH": SRC,
                "REPRO_CACHE_DIR": str(cache),
                "OMP_NUM_THREADS": threads,
                "OPENBLAS_NUM_THREADS": threads,
                "MKL_NUM_THREADS": threads,
            },
            check=True,
            capture_output=True,
        )
        (result,) = json.loads(out.read_text())["results"]
        params[threads] = result["params"]
    assert params["2"] == params["1"]


def test_manifests_record_whether_the_pin_took_effect():
    """The pin cannot act on a BLAS NumPy already loaded: a process that
    imported NumPy before the package says so in its manifests."""
    probe = (
        "import repro; from repro.telemetry import build_grid_manifest; "
        "print(repro.BLAS_PINNED, build_grid_manifest([])['blas_pinned'])"
    )
    for prelude, expected in (("", "True True"), ("import numpy; ", "False False")):
        out = subprocess.run(
            [sys.executable, "-c", prelude + probe],
            env={**os.environ, "PYTHONPATH": SRC},
            check=True,
            capture_output=True,
            text=True,
        )
        assert out.stdout.strip() == expected, prelude
