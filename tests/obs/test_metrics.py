"""Metrics registry tests: counters (incl. atomicity), gauges, histograms."""

import threading

import pytest

from repro.obs import MetricsRegistry, registry


class TestCounter:
    def test_increments(self):
        counter = registry().counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            registry().counter("c").inc(-1)

    def test_concurrent_increments_are_not_lost(self):
        counter = registry().counter("atomic")
        workers, per_worker = 8, 2000

        def hammer():
            for _ in range(per_worker):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == workers * per_worker


class TestGauge:
    def test_last_write_wins(self):
        gauge = registry().gauge("g")
        gauge.set(1.5)
        gauge.set(2.5)
        assert gauge.value == 2.5


class TestHistogram:
    def test_summary_statistics(self):
        from repro.obs.hist import BucketHistogram

        histogram = registry().histogram("h")
        same = BucketHistogram()
        for value in range(1, 101):
            histogram.observe(value)
            same.observe(value)
        assert histogram.count == 100
        assert histogram.sum == 5050.0
        assert histogram.mean == 50.5
        row = histogram.row()
        assert row["min"] == 1.0 and row["max"] == 100.0
        width = 10 ** (1 / 12)  # one bucket's relative width
        for q, true in ((50.0, 50.5), (95.0, 95.05)):
            assert histogram.quantile(q) == same.quantile(q)
            assert true / width <= histogram.quantile(q) <= true * width
        assert row["p50"] == same.quantile(50.0)
        assert row["p95"] == same.quantile(95.0)

    def test_empty_histogram_row(self):
        row = registry().histogram("empty").row()
        assert row["count"] == 0
        assert row["min"] == 0.0 and row["max"] == 0.0


class TestBucketBackedHistogram:
    def test_row_carries_buckets_and_p99(self):
        from repro.obs.hist import DEFAULT_BOUNDS, BucketHistogram

        histogram = registry().histogram("lat")
        expected = BucketHistogram()
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
            expected.observe(value)
        row = histogram.row()
        assert row["buckets"] == {"bounds": list(DEFAULT_BOUNDS),
                                  "counts": expected.counts}
        assert sum(row["buckets"]["counts"]) == 3
        assert row["count"] == 3
        assert "p99" in row and "p95" in row and "p50" in row

    def test_merge_bucket_folds_in_a_run(self):
        from repro.obs.hist import BucketHistogram

        run = BucketHistogram()
        for value in (0.5, 5.0):
            run.observe(value)
        histogram = registry().histogram("lat")
        histogram.observe(50.0)
        histogram.merge_bucket(run)
        assert histogram.count == 3
        expected = BucketHistogram()
        for value in (0.5, 5.0, 50.0):
            expected.observe(value)
        assert histogram.row()["buckets"]["counts"] == expected.counts

    def test_quantile_uses_exact_buckets(self):
        histogram = registry().histogram("lat")
        histogram.observe(15.0)
        assert histogram.quantile(100.0) == 15.0


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        assert registry().counter("same") is registry().counter("same")

    def test_type_mismatch_raises(self):
        registry().counter("typed")
        with pytest.raises(ValueError):
            registry().gauge("typed")

    def test_snapshot_schema(self):
        reg = MetricsRegistry()
        reg.counter("a.count").inc(2)
        reg.gauge("b.gauge").set(3.0)
        reg.histogram("c.hist").observe(1.0)
        rows = reg.snapshot()
        assert [row["name"] for row in rows] == ["a.count", "b.gauge", "c.hist"]
        assert [row["type"] for row in rows] == ["counter", "gauge",
                                                "histogram"]

    def test_reset_drops_instruments(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        reg.reset()
        assert reg.snapshot() == []
        assert reg.counter("x").value == 0


class TestScrapeConsistency:
    """The live-scrape contract (DESIGN.md §15): ``snapshot()`` stays
    internally consistent per row while worker threads mutate every
    instrument mid-scrape — no torn histograms, no backward counters,
    no renderer crashes."""

    def test_snapshot_under_concurrent_mutation(self):
        from repro.obs import span, span_snapshot
        from repro.obs.promtext import render_openmetrics

        reg = MetricsRegistry()
        stop = threading.Event()

        def writer(seed: int) -> None:
            count = 0
            while not stop.is_set():
                reg.counter("hammer.requests_total").inc()
                reg.gauge("hammer.depth").set(float(count % 7))
                reg.histogram("hammer.lat_ms") \
                    .observe(float((count * (seed + 1)) % 120))
                reg.histogram("hammer.res").observe(float(count % 9))
                with span("hammer/score"):
                    pass
                count += 1

        threads = [threading.Thread(target=writer, args=(i,), daemon=True)
                   for i in range(4)]
        for thread in threads:
            thread.start()
        last_counter = 0
        try:
            for _ in range(50):
                rows = reg.snapshot() + span_snapshot()
                by_name = {row["name"]: row for row in rows}
                counter = by_name.get("hammer.requests_total")
                if counter is not None:
                    # cumulative: never moves backwards across scrapes
                    assert counter["value"] >= last_counter
                    last_counter = counter["value"]
                bucketed = by_name.get("hammer.lat_ms")
                if bucketed is not None and "buckets" in bucketed:
                    # read under the instrument lock: the facets agree
                    assert sum(bucketed["buckets"]["counts"]) \
                        == bucketed["count"]
                    assert len(bucketed["buckets"]["counts"]) \
                        == len(bucketed["buckets"]["bounds"]) + 1
                # and the renderer never sees a torn row
                text = render_openmetrics(rows, prefix="hammer")
                assert text.endswith("# EOF\n")
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
        assert last_counter > 0, "writers never ran"
