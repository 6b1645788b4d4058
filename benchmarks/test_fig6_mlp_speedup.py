"""Fig. 6's sweep on a caller-chosen architecture list.

Fig. 6's shape checks live in the artifact registry (``repro
experiments``).
"""

from repro.experiments import run_fig6


def test_benchmark_fig6_sweep(ctx):
    result = run_fig6(ctx, architectures=((50, 10, 5, 2), (50, 200, 100, 2)))
    assert len(result.points) == 2
