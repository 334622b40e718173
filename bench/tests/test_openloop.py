import pytest

from benchlib import openloop


class FakeTime:
    """A clock that only moves when slept on or when a request is served."""

    def __init__(self, oversleep=0.0):
        self.now = 0.0
        self.oversleep = oversleep

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds + self.oversleep


def serving(fake, durations):
    """A blocking send whose i-th request takes durations[i] seconds."""
    def send(outcome):
        fake.now += durations[outcome.index]
        outcome.done = fake.now
        outcome.ok = True
    return send


def test_on_time_generator_has_no_lateness():
    fake = FakeTime()
    dues = list(enumerate(openloop.fixed_schedule(10.0, 1.0, start=0.0)))
    outcomes = openloop.run_open_loop(dues, serving(fake, [0.01] * 10), cutoff=1.0,
                                      clock=fake.clock, sleep=fake.sleep)
    summary = openloop.summarize(outcomes, cutoff=1.0)
    assert summary.failed == 0 and summary.unsent == 0
    assert summary.lateness_ms == pytest.approx([0.0] * 10)
    assert summary.latencies_ms == pytest.approx([10.0] * 10)


def test_oversleeping_generator_is_late_and_invalid():
    fake = FakeTime(oversleep=0.006)
    dues = list(enumerate(openloop.fixed_schedule(10.0, 1.0, start=0.0)))
    outcomes = openloop.run_open_loop(dues, serving(fake, [0.001] * 10), cutoff=2.0,
                                      clock=fake.clock, sleep=fake.sleep)
    summary = openloop.summarize(outcomes, cutoff=2.0)
    # The first request is due at once; each later one wakes 6 ms late.
    assert summary.lateness_ms == pytest.approx([0.0] + [6.0] * 9)
    # Latency runs from the due instant, so the lateness is charged too.
    assert summary.latencies_ms[1] == pytest.approx(7.0)
    valid, detail = openloop.lateness_valid(summary.lateness_ms)
    assert not valid and detail == "lateness max 6.000 ms"


def test_lateness_tail_is_the_highest_percentile_with_ten_samples_beyond():
    # 360 requests (as at 16 req/s): p97.2 stands in for the p99, so
    # nine stalls do not invalidate the run and a dozen do.
    assert openloop.lateness_valid([0.1] * 351 + [30.0] * 9) == (True, "lateness p97.2 0.100 ms")
    assert not openloop.lateness_valid([0.1] * 348 + [30.0] * 12)[0]
    assert openloop.lateness_valid([0.1] * 1000) == (True, "lateness p99 0.100 ms")


def test_stall_is_charged_to_later_requests_not_to_the_generator():
    fake = FakeTime()
    dues = list(enumerate(openloop.fixed_schedule(10.0, 0.5, start=0.0)))  # 0, .1, .2, .3, .4
    durations = [0.35, 0.01, 0.01, 0.01, 0.01]  # the first reply blocks the connection
    outcomes = openloop.run_open_loop(dues, serving(fake, durations), cutoff=1.0,
                                      clock=fake.clock, sleep=fake.sleep)
    summary = openloop.summarize(outcomes, cutoff=1.0)
    assert summary.lateness_ms == pytest.approx([0.0] * 5)
    # Request 1 (due 0.1) starts at 0.35 and ends at 0.36.
    assert summary.latencies_ms[1] == pytest.approx(260.0)
    assert summary.failed == 0


def test_requests_unsent_at_cutoff_fail_and_show_backlog():
    fake = FakeTime()
    dues = list(enumerate(openloop.fixed_schedule(10.0, 1.0, start=0.0)))
    durations = [0.65] + [0.01] * 9  # a stall past the cutoff and its grace
    outcomes = openloop.run_open_loop(dues, serving(fake, durations), cutoff=0.5,
                                      clock=fake.clock, sleep=fake.sleep)
    summary = openloop.summarize(outcomes, cutoff=0.5)
    assert summary.unsent == 9 and summary.failed == 9 and summary.attempted == 10
    assert summary.backlog_ms == pytest.approx(400.0)  # request 1 was due at 0.1


def test_late_wakeup_inside_the_grace_still_sends():
    fake = FakeTime(oversleep=0.003)
    dues = [(0, 0.0), (1, 0.1)]
    outcomes = openloop.run_open_loop(dues, serving(fake, [0.001, 0.001]), cutoff=0.101,
                                      clock=fake.clock, sleep=fake.sleep)
    assert openloop.summarize(outcomes, cutoff=0.101).unsent == 0


def test_failed_send_counts_as_failure():
    fake = FakeTime()

    def send(outcome):
        if outcome.index == 1:
            raise ConnectionResetError("peer closed")
        outcome.done, outcome.ok = fake.now, True

    dues = [(0, 0.0), (1, 0.1), (2, 0.2)]
    outcomes = openloop.run_open_loop(dues, send, cutoff=1.0, clock=fake.clock, sleep=fake.sleep)
    summary = openloop.summarize(outcomes, cutoff=1.0)
    assert summary.failed == 1 and len(summary.latencies_ms) == 2
    assert "ConnectionResetError" in outcomes[1].error


def test_closed_loop_throughput():
    fake = FakeTime()
    outcomes = openloop.run_closed_loop(serving(fake, [0.05] * 100), deadline=1.0,
                                        clock=fake.clock)
    assert len(outcomes) == 20
    assert openloop.closed_throughput(outcomes, start=0.0) == pytest.approx(20.0)
    assert openloop.closed_throughput([], start=0.0) == 0.0
