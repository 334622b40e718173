import math

import pytest

from benchlib import hostspeed


class FakeHost:
    """A clock the kernel advances by a set time per call."""

    def __init__(self, kernel_ms):
        self.now = 0.0
        self.kernel_ms = kernel_ms
        self.calls = 0

    def clock(self):
        return self.now

    def kernel(self):
        self.calls += 1
        self.now += self.kernel_ms / 1e3
        return 0.0


def make(kernel_ms, every_s=0.2):
    host = FakeHost(kernel_ms)
    return host, hostspeed.HostSpeed(every_s=every_s, clock=host.clock, kernel=host.kernel)


def test_samples_once_after_warm_up_then_every_interval():
    host, speed = make(2.0)
    assert host.calls == hostspeed.WARM_UP + 1 and len(speed.samples_ms) == 1
    speed.maybe_sample()  # not due yet
    assert len(speed.samples_ms) == 1
    host.now += 0.2
    speed.maybe_sample()
    assert len(speed.samples_ms) == 2
    assert speed.paused_s == pytest.approx(0.004)


def test_infinite_interval_keeps_the_first_sample_only():
    host, speed = make(1.0, every_s=math.inf)
    host.now += 1e6
    speed.maybe_sample()
    assert len(speed.samples_ms) == 1


def test_normalize_scales_the_named_times_down_on_a_slow_host():
    _, speed = make(2.0 * hostspeed.NOMINAL_MS)
    assert speed.factor() == pytest.approx(2.0)
    measured = {"setup_s": 1.0, "throughput": 50.0, "p50_ms": 8.0, "peak_rss_mb": 100.0}
    normalized = speed.normalize(measured, times=("setup_s", "p50_ms"))
    assert normalized == pytest.approx(
        {"setup_s": 0.5, "throughput": 50.0, "p50_ms": 4.0, "peak_rss_mb": 100.0})
    assert measured["setup_s"] == 1.0  # left as it was


def test_local_factors_use_the_samples_near_each_time_on_the_paused_clock():
    host, speed = make(1.0)  # sampled after 5 ms of warm-up
    host.now += 1.0
    host.kernel_ms = 3.0
    speed.sample()
    host.now += 0.5
    host.kernel_ms = 2.0
    speed.sample()
    # Apart by the time between samples on the paused clock, whatever the kernel took.
    assert speed.sampled_at == pytest.approx([0.005, 1.005, 1.505])
    assert speed.local_factors([0.0, 0.6, 1.2, 5.0], window_s=0.5) == pytest.approx(
        [1.0, 3.0, 2.5, speed.factor()])


def test_normalized_ms_divides_each_span_by_the_factor_at_its_midpoint():
    host, speed = make(1.0)
    host.now += 1.0
    host.kernel_ms = 2.0
    speed.sample()  # at 1.005 on the paused clock
    spans = [(0.0, 0.01), (0.99, 1.01), (1.0, 1.0)]
    assert speed.normalized_ms(spans) == pytest.approx([10.0, 10.0, 0.0])


def test_reference_kernel_is_deterministic():
    assert hostspeed.reference_kernel() == hostspeed.reference_kernel()
