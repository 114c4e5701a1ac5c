"""Open-loop timing on a fake clock: latency from the due time, lateness."""

import pytest

import loadgen
import spans as sp


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(sp, "clock", fake)
    return fake


def test_latency_counts_from_the_due_time(clock):
    service = [2.5, 0.1, 0.1, 0.1]

    def send(i):
        clock.now += service[i]
        return 200

    samples, lateness = loadgen.open_loop([0.0, 1.0, 2.0, 3.0], send, 10.0, clock.sleep)
    # Request 0 stalls 2.5 s; the two due behind it carry the stall.
    assert [s.latency for s in samples] == pytest.approx([2.5, 1.6, 0.7, 0.1])
    assert [s.start for s in samples] == pytest.approx([0.0, 2.5, 2.6, 3.0])
    # The generator itself was never late: the server set these numbers.
    assert lateness == pytest.approx([0.0, 0.0, 0.0, 0.0])


def test_lateness_is_the_generators_own_delay(clock):
    def oversleep(seconds):
        clock.now += seconds + 0.05

    def send(i):
        clock.now += 0.01
        return 304

    samples, lateness = loadgen.open_loop([1.0, 2.0], send, 10.0, oversleep)
    assert lateness == pytest.approx([0.05, 0.05])
    assert [s.latency for s in samples] == pytest.approx([0.06, 0.06])


def test_requests_due_after_the_window_are_not_sent(clock):
    sent = []

    def send(i):
        sent.append(i)
        return 200

    samples, _ = loadgen.open_loop([0.0, 1.0, 2.0, 3.0], send, 2.0, clock.sleep)
    assert sent == [0, 1] and len(samples) == 2


def test_failed_refresh_misses_every_limit():
    ok = loadgen.Refresh(due=0.0, end=1.5, statuses=[200, 304, 200])
    bad = loadgen.Refresh(due=0.0, end=1.5, statuses=[200, 500, 304])
    assert ok.latency == pytest.approx(1.5)
    assert bad.latency == float("inf")
