"""Regression gate on the modelled cost of the paper's configurations.

``sim.seconds_per_epoch`` is the analytical machine models pricing the
*paper's* hardware from operation traces, so it is deterministic on any
host: a cell that moves means a code change moved the cost model or the
optimisation under it.  Each of the twelve cells below is pinned to the
value this checkout produces; a cell more than 10 % slower than its pin
fails, a faster one passes (re-pin it in the change that earned it).

This says nothing about how fast the library itself runs — that is
``python -m bench run`` and ``compare`` (bench/README.md).
"""

import pytest

import repro
from repro.telemetry import Telemetry, keys

THRESHOLD = 0.10

#: (task, dataset, architecture, strategy) -> modelled seconds per epoch
#: at ``scale="tiny", max_epochs=60``.
PINNED = {
    ("lr", "covtype", "cpu-seq", "synchronous"): 0.044321929625000006,
    ("lr", "covtype", "cpu-seq", "asynchronous"): 0.1274740328,
    ("lr", "covtype", "cpu-par", "synchronous"): 0.003482533564453125,
    ("lr", "covtype", "cpu-par", "asynchronous"): 0.290506,
    ("lr", "covtype", "gpu", "synchronous"): 0.0028100268515625004,
    ("lr", "covtype", "gpu", "asynchronous"): 0.0098125775,
    ("svm", "w8a", "cpu-seq", "synchronous"): 0.02362960097439649,
    ("svm", "w8a", "cpu-seq", "asynchronous"): 0.011501848399999999,
    ("svm", "w8a", "cpu-par", "synchronous"): 0.0004564617431668551,
    ("svm", "w8a", "cpu-par", "asynchronous"): 0.008679582438921475,
    ("svm", "w8a", "gpu", "synchronous"): 0.00027967404155084126,
    ("svm", "w8a", "gpu", "asynchronous"): 0.004517635087063726,
}


def regressed(fresh: float, pinned: float) -> bool:
    """Whether *fresh* is slower than *pinned* beyond the threshold."""
    return fresh / pinned > 1.0 + THRESHOLD


def modelled_seconds_per_epoch(task, dataset, architecture, strategy) -> float:
    tel = Telemetry()
    repro.train(
        task,
        dataset,
        architecture=architecture,
        strategy=strategy,
        scale="tiny",
        max_epochs=60,
        telemetry=tel,
    )
    return tel.gauges()[keys.SIM_SECONDS_PER_EPOCH]


@pytest.mark.parametrize("cell", PINNED, ids="/".join)
def test_cell_not_slower_than_pinned(cell):
    fresh = modelled_seconds_per_epoch(*cell)
    assert not regressed(fresh, PINNED[cell]), (
        f"{keys.SIM_SECONDS_PER_EPOCH} {PINNED[cell]:.6g} -> {fresh:.6g}"
    )


def test_gate_trips_on_a_doubled_cost():
    """The comparison must be able to fail: a 2x slowdown is a regression,
    a speed-up is not."""
    for pinned in PINNED.values():
        assert regressed(2.0 * pinned, pinned)
        assert not regressed(0.5 * pinned, pinned)
