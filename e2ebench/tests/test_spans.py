"""Span arithmetic, the tail rule, and the recorder."""

import threading

import pytest

import spans as sp


def span(sid, start, end, parent=None):
    return {"id": sid, "start": start, "end": end, "parent": parent}


class TestTailRule:
    def test_p99_needs_ten_samples_beyond_it(self):
        values = list(range(1, 1001))  # 1000 samples: 10 lie beyond p99
        assert sp.tail(values) == (99.0, 990, 1000)

    def test_one_sample_short_falls_back_to_p95(self):
        values = list(range(1, 1000))  # 999 samples: only 9 beyond p99
        pct, value, n = sp.tail(values)
        assert (pct, n) == (95.0, 999)
        assert sp.beyond(values, pct) >= 10
        assert value == 950

    def test_p999_from_ten_thousand_samples(self):
        values = list(range(10_000))
        pct, _, n = sp.tail(values)
        assert (pct, n) == (99.9, 10_000)
        assert sp.beyond(values, 99.9) == 10

    def test_too_few_samples_is_an_error(self):
        with pytest.raises(ValueError):
            sp.tail(list(range(15)))


class TestSelfTime:
    def test_children_are_subtracted(self):
        parent = span(1, 0.0, 10.0)
        kids = [span(2, 1.0, 3.0, 1), span(3, 6.0, 7.0, 1)]
        assert sp.self_time(parent, kids) == pytest.approx(7.0)

    def test_overlapping_children_from_two_threads_count_once(self):
        parent = span(1, 0.0, 10.0)
        # Two request threads working under one parent at the same time.
        kids = [span(2, 1.0, 5.0, 1), span(3, 2.0, 6.0, 1)]
        assert sp.self_time(parent, kids) == pytest.approx(5.0)

    def test_children_are_clipped_to_the_parent(self):
        parent = span(1, 2.0, 4.0)
        kids = [span(2, 1.0, 3.0, 1), span(3, 3.5, 9.0, 1)]
        assert sp.self_time(parent, kids) == pytest.approx(0.5)

    def test_recorded_threads_keep_their_own_parents(self):
        rec = sp.Recorder()
        barrier = threading.Barrier(2)

        def request(rid):
            rec.request_id = rid
            with rec.span("http.handle_get"):
                barrier.wait()
                with rec.span("service.snapshot"):
                    barrier.wait()

        threads = [threading.Thread(target=request, args=(r,)) for r in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        by_id = {s["id"]: s for s in rec.spans}
        for s in rec.spans:
            if s["name"] == "service.snapshot":
                parent = by_id[s["parent"]]
                assert parent["name"] == "http.handle_get"
                assert parent["rid"] == s["rid"]
                assert parent["thread"] == s["thread"]
        kids = sp.children_of(rec.spans)
        for s in rec.spans:
            if s["name"] == "http.handle_get":
                assert 0 <= sp.self_time(s, kids[s["id"]]) <= sp.duration(s)


def test_median_and_percentile():
    assert sp.median([3, 1, 2]) == 2
    assert sp.median([4, 1, 2, 3]) == 2.5
    assert sp.percentile([5, 1, 4, 2, 3], 50) == 3
    assert sp.percentile([5, 1, 4, 2, 3], 100) == 5


def test_recorder_loses_nothing_under_thread_contention():
    import sys

    rec = sp.Recorder()
    per_thread, n_threads = 300, 8

    def work():
        for _ in range(per_thread):
            with rec.span("outer"):
                with rec.span("inner"):
                    rec.count("events")

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    total = per_thread * n_threads
    assert len(rec.spans) == 2 * total
    assert len({s["id"] for s in rec.spans}) == 2 * total
    assert len(rec.counters["events"]) == total
    by_id = {s["id"]: s for s in rec.spans}
    for s in rec.spans:
        if s["name"] == "inner":
            assert by_id[s["parent"]]["thread"] == s["thread"]
