"""Table III's primitives: the Hogwild epoch and its costing.

Table III's shape checks live in the artifact registry (``repro
experiments``).
"""

from __future__ import annotations

import pytest

from repro.asyncsim import AsyncSchedule, run_async_epoch
from repro.hardware import AsyncWorkload
from repro.utils import derive_rng

from conftest import small_lr


@pytest.mark.parametrize("concurrency", [1, 56])
def test_benchmark_hogwild_epoch(concurrency):
    ds, model, w = small_lr("w8a")
    schedule = AsyncSchedule(concurrency=concurrency)
    run_async_epoch(model, ds.X, ds.y, w, 0.5, schedule, derive_rng(0, "bench"))


def test_benchmark_async_workload_costing(ctx):
    ds, model, _ = small_lr("news")
    workload = AsyncWorkload.for_linear(ds, model)
    cpu = sum(ctx.cpu.async_epoch_time(workload, n) for n in (1, 56))
    assert cpu + ctx.gpu.async_epoch_time(workload) > 0
