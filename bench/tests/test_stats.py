import statistics
import time

import pytest

from bench import harness


def test_the_tail_level_needs_ten_samples_beyond_it():
    assert harness.TAIL_MIN_SAMPLES * (100 - harness.TAIL_LEVEL) / 100 >= 10
    # Too few samples for any tail level: the median, never a made-up p90.
    assert harness.tail_latency([3.0, 1.0, 2.0]) == 2.0
    assert harness.tail_latency([float(i) for i in range(99)]) == 49.0
    samples = [float(i) for i in range(100)]
    assert harness.tail_latency(samples) == pytest.approx(harness.percentile(samples, 90))


def test_percentile_interpolates():
    values = [4.0, 1.0, 3.0, 2.0]
    assert harness.percentile(values, 0) == 1.0
    assert harness.percentile(values, 100) == 4.0
    assert harness.percentile(values, 50) == 2.5
    assert harness.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def test_quartiles_and_spread_follow_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert harness.quartiles(values) == (q1, q2, q3)
    assert harness.spread(values) == pytest.approx((q3 - q1) / q2)
    assert harness.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert harness.spread([3.0]) == 0.0


class FixedYardstick(harness.Yardstick):
    """The arithmetic of the real one, fed known samples: no helper, no clock."""

    def __init__(self, nominal_ms):
        self.nominal_ms = nominal_ms
        self.samples_ms, self._times, self.spent_s = [], [], 0.0

    def sample(self):
        pass


def test_the_yardstick_factor_scales_only_the_computing_share():
    yard = FixedYardstick(nominal_ms=1.0)
    yard._times = [0.0, 10.0, 20.0, 30.0]
    yard.samples_ms = [9.0, 2.0, 2.0, 9.0]
    # Only the samples within PAD_S of [10, 20] count: the host ran the
    # slice at half speed.  All computing: the time halves; half of it
    # waiting: 1 / (0.5 + 0.5 * 2); none of it computing: as measured.
    assert yard.factor(10.0, 20.0, 1.0) == pytest.approx(0.5)
    assert yard.factor(10.0, 20.0, 0.5) == pytest.approx(1 / 1.5)
    assert yard.factor(10.0, 20.0, 0.0) == 1.0


def test_a_window_reports_the_median_over_its_normalised_slices():
    win = harness.Window(slices=[
        harness.Slice(wall_s=2.0, work=100.0, ops=1, p50_ms=2000.0, tail_ms=2000.0, factor=0.5),
        harness.Slice(wall_s=1.0, work=100.0, ops=1, p50_ms=1000.0, tail_ms=1000.0, factor=1.0),
        harness.Slice(wall_s=9.0, work=100.0, ops=1, p50_ms=9000.0, tail_ms=9000.0, factor=1.0),
    ])
    # The slow host's slice reads as the quiet one; the outlier does not
    # set the number.
    assert win.latency_ms_p50 == win.latency_ms_tail == 1000.0
    assert win.work_per_s == 100.0
    assert not win.has_tail


def test_sequential_window_counts_a_raising_operation_as_failed():
    from bench.trace import NullTracer

    calls = iter([5.0, RuntimeError("boom"), 5.0])
    yard = FixedYardstick(nominal_ms=1.0)
    yard._times, yard.samples_ms = [time.perf_counter()], [1.0]

    def op():
        item = next(calls)
        if isinstance(item, Exception):
            raise item
        return item

    def window():
        return harness.sequential_window(op, 0.0, NullTracer(), "op", "layer", yard, 0.0)

    # A zero-second window stops after its first operation.
    win = window()
    assert (win.attempted, win.failed, [s.work for s in win.slices]) == (1, 0, [5.0])
    win = window()
    assert (win.attempted, win.failed, win.slices) == (1, 1, [])
    assert "boom" in win.messages[0]
