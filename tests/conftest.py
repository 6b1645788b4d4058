"""Shared fixtures for the repro test suite.

All fixtures are deterministic: dataset generation, model init and
schedules derive from fixed seeds, so failures reproduce exactly.
"""

from __future__ import annotations

from multiprocessing.process import BaseProcess

# First, so its one-BLAS-thread pin is set before NumPy loads BLAS.
import repro  # noqa: F401

import numpy as np
import pytest

from repro.datasets import clear_cache, load, load_mlp
from repro.linalg import CSRMatrix
from repro.models import make_model
from repro.sgd import clear_reference_cache
from repro.utils import make_rng


@pytest.fixture(scope="session", autouse=True)
def _clean_caches():
    """Start the session with empty dataset/reference caches."""
    clear_cache()
    clear_reference_cache()
    yield


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return make_rng(1234)


@pytest.fixture(scope="session")
def tiny_sparse():
    """The tiny-scale w8a dataset (sparse CSR, has empty rows)."""
    return load("w8a", "tiny")


@pytest.fixture(scope="session")
def tiny_dense():
    """The tiny-scale covtype dataset (fully dense)."""
    return load("covtype", "tiny")


@pytest.fixture(scope="session")
def tiny_mlp_data():
    """The tiny-scale w8a dataset transformed for the MLP task."""
    return load_mlp("w8a", "tiny")


@pytest.fixture(scope="session")
def lr_tiny(tiny_sparse):
    """(model, dataset) pair: LR on tiny w8a."""
    return make_model("lr", tiny_sparse), tiny_sparse


@pytest.fixture()
def started_processes(monkeypatch) -> list:
    """Every process this process starts while the test runs."""
    started: list = []
    original = BaseProcess.start

    def start(self):
        started.append(self)
        original(self)

    monkeypatch.setattr(BaseProcess, "start", start)
    return started


@pytest.fixture()
def small_csr(rng) -> CSRMatrix:
    """A small random CSR matrix with empty rows and varied lengths."""
    dense = rng.standard_normal((12, 9))
    dense[dense < 0.4] = 0.0
    dense[3, :] = 0.0  # guaranteed empty row
    return CSRMatrix.from_dense(dense)
