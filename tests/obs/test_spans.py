"""Span timer tests: nesting, aggregation, disabled path, profile."""

from repro.obs import (format_profile, registry, reset_spans,
                       set_spans_enabled, span, span_snapshot, spans_enabled)
from repro.obs.report import format_span_table


def _by_name(rows):
    return {row["name"]: row for row in rows}


class TestNesting:
    def test_nested_spans_build_slash_paths(self):
        with span("fit"):
            with span("epoch"):
                with span("labels"):
                    pass
        names = {row["name"] for row in span_snapshot()}
        assert names == {"fit", "fit/epoch", "fit/epoch/labels"}

    def test_top_level_slash_name_matches_nested_bucket(self):
        with span("fit"):
            with span("epoch"):
                pass
        with span("fit/epoch"):
            pass
        rows = _by_name(span_snapshot())
        assert rows["fit/epoch"]["count"] == 2

    def test_sibling_spans_share_parent(self):
        with span("fit"):
            with span("plan"):
                pass
            with span("epoch"):
                pass
        names = {row["name"] for row in span_snapshot()}
        assert {"fit/plan", "fit/epoch"} <= names


class TestAggregation:
    def test_counts_and_totals_accumulate(self):
        for _ in range(5):
            with span("work"):
                pass
        [row] = span_snapshot()
        assert row["count"] == 5
        assert row["total_seconds"] >= 0.0
        assert row["p50_seconds"] <= row["p95_seconds"]

    def test_elapsed_available_after_exit(self):
        with span("timed") as sp:
            sum(range(1000))
        assert sp.elapsed > 0.0

    def test_reset_clears_aggregate(self):
        with span("gone"):
            pass
        reset_spans()
        assert span_snapshot() == []

    def test_exception_still_records(self):
        try:
            with span("raises"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        [row] = span_snapshot()
        assert row["name"] == "raises" and row["count"] == 1


class TestDisabled:
    def test_disabled_spans_record_nothing(self):
        set_spans_enabled(False)
        assert not spans_enabled()
        with span("invisible"):
            pass
        assert span_snapshot() == []

    def test_disabled_spans_still_measure_elapsed(self):
        set_spans_enabled(False)
        with span("still-timed") as sp:
            sum(range(1000))
        assert sp.elapsed > 0.0


class TestProfileReport:
    def test_empty_profile_is_empty_string(self):
        assert format_profile() == ""

    def test_tree_rendering_indents_children(self):
        with span("fit"):
            with span("epoch"):
                pass
        report = format_profile()
        lines = report.splitlines()
        assert any(line.startswith("fit") for line in lines)
        assert any(line.startswith("  epoch") for line in lines)
        assert "count" in lines[0]

    def test_live_profile_is_the_report_table(self):
        with span("fit"):
            with span("epoch"):
                pass
        assert format_profile() == format_span_table(span_snapshot())


class TestAggregateBeyondCapacity:
    def test_span_count_and_total_stay_exact(self):
        stream = 10_000
        for _ in range(stream):
            with span("hot"):
                pass
        [row] = span_snapshot()
        assert row["count"] == stream  # exact, not capped at capacity
        assert row["total_seconds"] >= 0.0

    def test_histogram_count_and_sum_stay_exact(self):
        hist = registry().histogram("hot.loss")
        stream = 10_000
        for _ in range(stream):
            hist.observe(1.0)
        row = hist.row()
        assert row["count"] == stream
        assert row["sum"] == float(stream)
        assert row["p50"] == 1.0
