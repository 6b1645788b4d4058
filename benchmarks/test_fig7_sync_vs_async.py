"""Fig. 7's loss curves: every panel yields a finite plot series.

Fig. 7's shape checks live in the artifact registry (``repro
experiments``); after ``make shapes``'s report run, the panels replay
from its result store.
"""

import math

from repro.experiments import run_fig7


def test_benchmark_loss_curve_extraction(ctx):
    total = 0.0
    for p in run_fig7(ctx).panels:
        xs, ys = p.sync_gpu.loss_vs_time()
        total += float(xs[-1]) + float(ys[-1])
    assert math.isfinite(total)
