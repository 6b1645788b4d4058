"""Table II's primitives: the synchronous epoch and its costing.

Table II's shape checks live in the artifact registry (``repro
experiments``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.linalg import recording
from repro.sgd.runner import full_scale_factor, working_set_bytes

from conftest import small_lr


@pytest.mark.parametrize("dataset", ["covtype", "rcv1"])
def test_benchmark_sync_epoch(dataset):
    ds, model, w = small_lr(dataset)
    assert np.all(np.isfinite(model.full_grad(ds.X, ds.y, w)))


def test_benchmark_trace_costing(ctx):
    """Hardware-model evaluation (one epoch trace, 3 backends)."""
    ds, model, w = small_lr("rcv1")
    with recording() as tr:
        model.full_grad(ds.X, ds.y, w)
    trace = tr.scaled(full_scale_factor(ds, "lr"))
    ws = working_set_bytes(ds, model, "lr")
    cpu = sum(ctx.cpu.sync_epoch_time(trace, n, ws) for n in (1, 56))
    assert cpu + ctx.gpu.sync_epoch_time(trace) > 0
