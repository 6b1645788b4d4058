"""Fig. 9 at the suite's scale: one bar per dataset and system.

Fig. 9's shape checks live in the artifact registry (``repro
experiments``).
"""

from repro.experiments import run_fig9


def test_benchmark_fig9(ctx):
    result = run_fig9(ctx)
    assert len(result.entries) == 5 * 3
