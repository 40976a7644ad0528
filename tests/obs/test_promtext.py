"""OpenMetrics renderer tests: family typing, sanitation, escaping."""

from repro.obs import registry, span
from repro.obs.promtext import export_prom, render_openmetrics


class TestRender:
    def test_counter_gets_total_suffix_and_type(self):
        text = render_openmetrics(
            [{"type": "counter", "name": "cache.hit", "value": 3}])
        assert "# TYPE repro_cache_hit counter" in text
        assert "repro_cache_hit_total 3" in text

    def test_counter_named_total_does_not_double_suffix(self):
        text = render_openmetrics(
            [{"type": "counter", "name": "serve.requests_total",
              "value": 3}])
        assert "repro_serve_requests_total 3" in text
        assert "_total_total" not in text

    def test_gauge_renders_plain_sample(self):
        text = render_openmetrics(
            [{"type": "gauge", "name": "train.pairs_per_sec",
              "value": 812.5}])
        assert "# TYPE repro_train_pairs_per_sec gauge" in text
        assert "repro_train_pairs_per_sec 812.5" in text

    def test_histogram_renders_as_summary(self):
        text = render_openmetrics(
            [{"type": "histogram", "name": "epoch.loss", "count": 4,
              "sum": 2.0, "min": 0.1, "max": 0.9, "p50": 0.4, "p95": 0.9}])
        assert "# TYPE repro_epoch_loss summary" in text
        assert 'repro_epoch_loss{quantile="0.5"} 0.4' in text
        assert 'repro_epoch_loss{quantile="0.95"} 0.9' in text
        assert "repro_epoch_loss_count 4" in text
        assert "repro_epoch_loss_sum 2" in text

    def _bucket_row(self):
        from repro.obs.hist import BucketHistogram

        hist = BucketHistogram([1.0, 10.0, 100.0])
        for value in (0.5, 5.0, 5.0, 50.0, 500.0):
            hist.observe(value)
        return hist.row("load.latency_ms")

    def test_bucket_histogram_renders_classic_le_family(self):
        text = render_openmetrics([self._bucket_row()])
        assert "# TYPE repro_load_latency_ms histogram" in text
        assert 'repro_load_latency_ms_bucket{le="1"} 1' in text
        assert 'repro_load_latency_ms_bucket{le="10"} 3' in text
        assert 'repro_load_latency_ms_bucket{le="100"} 4' in text
        assert 'repro_load_latency_ms_bucket{le="+Inf"} 5' in text
        assert "repro_load_latency_ms_count 5" in text
        # a bucket family is a histogram, never a summary
        assert 'quantile=' not in text

    def test_bucket_family_cumulative_counts_monotone(self):
        text = render_openmetrics([self._bucket_row()])
        counts = [int(line.rsplit(" ", 1)[1])
                  for line in text.splitlines() if "_bucket{" in line]
        assert counts == sorted(counts)

    def test_inf_bucket_equals_count_even_with_overflow(self):
        row = self._bucket_row()
        text = render_openmetrics([row])
        inf_line = next(line for line in text.splitlines()
                        if 'le="+Inf"' in line)
        count_line = next(line for line in text.splitlines()
                          if line.startswith("repro_load_latency_ms_count"))
        assert inf_line.rsplit(" ", 1)[1] == count_line.rsplit(" ", 1)[1]

    def test_eof_still_terminal_with_bucket_families(self):
        text = render_openmetrics([
            self._bucket_row(),
            {"type": "counter", "name": "zz", "value": 1}])
        assert text.endswith("# EOF\n")
        assert text.count("# EOF") == 1

    def test_span_rows_share_one_labelled_family(self):
        rows = [{"type": "span", "name": "fit/epoch", "count": 2,
                 "total_seconds": 0.5, "p50_seconds": 0.2,
                 "p95_seconds": 0.3},
                {"type": "span", "name": "serve/full", "count": 1,
                 "total_seconds": 0.1, "p50_seconds": 0.1,
                 "p95_seconds": 0.1}]
        text = render_openmetrics(rows)
        assert text.count("# TYPE repro_span_seconds summary") == 1
        assert 'repro_span_seconds{span="fit/epoch",quantile="0.5"} 0.2' \
            in text
        assert 'repro_span_seconds_count{span="serve/full"} 1' in text

    def test_trace_and_meta_rows_are_not_scraped(self):
        rows = [{"type": "meta", "schema_version": 2},
                {"type": "trace", "trace_id": "abc", "duration_ms": 1.0}]
        assert render_openmetrics(rows) == "# EOF\n"

    def test_ends_with_eof_and_families_sorted(self):
        rows = [{"type": "counter", "name": "zz", "value": 1},
                {"type": "counter", "name": "aa", "value": 2}]
        text = render_openmetrics(rows)
        assert text.endswith("# EOF\n")
        assert text.index("repro_aa_total") < text.index("repro_zz_total")

    def test_name_sanitation_and_label_escaping(self):
        text = render_openmetrics(
            [{"type": "counter", "name": "a-b.c d", "value": 1},
             {"type": "span", "name": 'odd"name\\x', "count": 1,
              "total_seconds": 0.0, "p50_seconds": 0.0,
              "p95_seconds": 0.0}])
        assert "repro_a_b_c_d_total 1" in text
        assert 'span="odd\\"name\\\\x"' in text

    def test_leading_digit_and_empty_prefix(self):
        text = render_openmetrics(
            [{"type": "counter", "name": "9lives", "value": 1}], prefix="")
        assert "_9lives_total 1" in text


class TestShardLabels:
    """PR 10: rows may carry ``labels`` (the fleet scrape's per-shard
    facets) and every sample line of the family must braced-render
    them, composing with the renderer's own ``le``/``quantile``."""

    def test_labeled_counter_and_gauge(self):
        text = render_openmetrics(
            [{"type": "counter", "name": "serve.requests_total",
              "value": 3, "labels": {"shard": "2"}},
             {"type": "gauge", "name": "serve.depth", "value": 1.5,
              "labels": {"shard": "0"}}])
        assert 'repro_serve_requests_total{shard="2"} 3' in text
        assert 'repro_serve_depth{shard="0"} 1.5' in text

    def test_labeled_bucket_family_composes_with_le(self):
        text = render_openmetrics(
            [{"type": "histogram", "name": "serve.request_ms",
              "count": 2, "sum": 6.0, "min": 1.0, "max": 5.0,
              "p50": 1.0, "p95": 5.0,
              "buckets": {"bounds": [1.0, 10.0], "counts": [1, 1, 0]},
              "labels": {"shard": "1"}}])
        assert 'repro_serve_request_ms_bucket{shard="1",le="1"} 1' in text
        assert 'repro_serve_request_ms_bucket{shard="1",le="10"} 2' \
            in text
        assert 'repro_serve_request_ms_bucket{shard="1",le="+Inf"} 2' \
            in text
        assert 'repro_serve_request_ms_count{shard="1"} 2' in text
        assert 'repro_serve_request_ms_sum{shard="1"} 6' in text

    def test_labeled_summary_and_span_rows(self):
        text = render_openmetrics(
            [{"type": "histogram", "name": "lat", "count": 1, "sum": 2.0,
              "min": 2.0, "max": 2.0, "p50": 2.0, "p95": 2.0,
              "labels": {"shard": "0"}},
             {"type": "span", "name": "serve/score", "count": 1,
              "total_seconds": 0.1, "p50_seconds": 0.1,
              "p95_seconds": 0.1, "labels": {"shard": "2"}}])
        assert 'repro_lat{shard="0",quantile="0.5"} 2' in text
        assert 'repro_span_seconds{shard="2",span="serve/score",' \
               'quantile="0.5"} 0.1' in text
        assert 'repro_span_seconds_count{shard="2",span="serve/score"} 1' \
            in text

    def test_same_family_mixes_labeled_and_unlabeled_rows(self):
        """An aggregated family (unlabeled sum) and per-shard facets
        coexist; unlabeled rows render byte-identically to pre-PR-10."""
        text = render_openmetrics(
            [{"type": "counter", "name": "hits", "value": 5},
             {"type": "counter", "name": "hits", "value": 3,
              "labels": {"shard": "1"}}])
        assert "repro_hits_total 5" in text
        assert 'repro_hits_total{shard="1"} 3' in text
        assert text.count("# TYPE repro_hits counter") == 1

    def test_label_values_escape(self):
        text = render_openmetrics(
            [{"type": "counter", "name": "c", "value": 1,
              "labels": {"shard": 'we"ird\\2'}}])
        assert 'shard="we\\"ird\\\\2"' in text


class TestExportProm:
    def test_writes_registry_and_span_snapshot(self, tmp_path):
        registry().counter("cache.hit").inc(2)
        with span("fit"):
            pass
        out = export_prom(tmp_path / "deep" / "run.prom")
        text = out.read_text()
        assert "repro_cache_hit_total 2" in text
        assert 'repro_span_seconds_count{span="fit"} 1' in text
        assert text.endswith("# EOF\n")
