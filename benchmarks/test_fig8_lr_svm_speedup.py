"""Fig. 8 at the suite's scale: one bar per task, dataset and system.

Fig. 8's shape checks live in the artifact registry (``repro
experiments``).
"""

from repro.experiments import run_fig8


def test_benchmark_fig8(ctx):
    result = run_fig8(ctx)
    assert len(result.entries) == 2 * 5 * 3  # tasks x datasets x systems
