"""Metrics-diff tests: flattening, regression policy, bench loading."""

import json

import pytest

from repro.obs.diff import (DEFAULT_WATCH, DiffEntry, diff_rows,
                            find_regressions, flatten_rows, format_diff,
                            load_rows)


def entry(name, old, new):
    return DiffEntry(name, old, new)


class TestFlatten:
    def test_each_instrument_kind_flattens(self):
        rows = [
            {"type": "counter", "name": "hits", "value": 3},
            {"type": "gauge", "name": "depth", "value": 1.5},
            {"type": "histogram", "name": "loss", "count": 2, "sum": 0.5,
             "min": 0.1, "max": 0.4, "p50": 0.2, "p95": 0.4},
            {"type": "span", "name": "fit/epoch", "count": 4,
             "total_seconds": 2.0, "p50_seconds": 0.4, "p95_seconds": 0.9},
            {"type": "meta", "schema_version": 2},
            {"type": "trace", "trace_id": "x", "duration_ms": 9.0},
        ]
        flat = flatten_rows(rows)
        assert flat["hits"] == 3.0
        assert flat["depth"] == 1.5
        assert flat["loss.p95"] == 0.4
        assert flat["fit/epoch.total_seconds"] == 2.0
        assert flat["fit/epoch.p50"] == 0.4
        assert not any(key.startswith("trace") for key in flat)

    def test_one_sided_metrics_survive_with_none(self):
        old = [{"type": "counter", "name": "gone", "value": 1}]
        new = [{"type": "counter", "name": "born", "value": 2}]
        entries = {e.name: e for e in diff_rows(old, new)}
        assert entries["gone"].new is None
        assert entries["born"].old is None
        assert entries["gone"].delta is None  # never a regression


class TestRegressionPolicy:
    def test_watched_increase_past_threshold_breaches(self):
        entries = [entry("serve.latency_ms", 10.0, 20.0)]
        assert find_regressions(entries, threshold_pct=25.0) == entries

    def test_unwatched_names_never_breach(self):
        entries = [entry("cache.hits", 10.0, 1000.0)]
        assert find_regressions(entries, threshold_pct=1.0) == []

    def test_improvements_never_breach(self):
        entries = [entry("serve.latency_ms", 20.0, 10.0)]
        assert find_regressions(entries) == []

    def test_min_delta_noise_floor(self):
        entries = [entry("fit.p95", 0.001, 0.002)]  # +100% but tiny
        assert find_regressions(entries, threshold_pct=25.0,
                                min_delta=0.01) == []
        assert find_regressions(entries, threshold_pct=25.0,
                                min_delta=0.0005) == entries

    def test_threshold_is_relative(self):
        entries = [entry("fit.total_seconds", 100.0, 110.0)]
        assert find_regressions(entries, threshold_pct=25.0) == []
        assert find_regressions(entries, threshold_pct=5.0) == entries

    def test_custom_watch_globs(self):
        entries = [entry("queue.depth", 1.0, 10.0)]
        assert find_regressions(entries, threshold_pct=10.0,
                                watch=("queue.*",)) == entries

    def test_default_watch_covers_time_shaped_names(self):
        for name in ("span_seconds", "encode_s", "handle_ms",
                     "loss.p50", "fit/epoch.p95", "trace.duration_x"):
            entries = [entry(name, 1.0, 10.0)]
            assert find_regressions(entries) == entries, name


class TestLoadRows:
    def test_bench_report_becomes_synthetic_gauges(self, tmp_path):
        doc = {"mode": "quick", "paths": {
            "encode_images": {"optimized_s": 0.5, "reference_s": 1.5,
                              "speedup": 3.0, "note": "text"}}}
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(doc))
        rows = load_rows(path)
        flat = flatten_rows(rows)
        assert flat["bench.encode_images.optimized_s"] == 0.5
        assert flat["bench.encode_images.speedup"] == 3.0
        assert "bench.encode_images.note" not in flat

    def test_jsonl_loads_as_rows(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(
            '{"type": "counter", "name": "hits", "value": 1}\n')
        assert flatten_rows(load_rows(path)) == {"hits": 1.0}

    def test_bench_vs_jsonl_diff_gates_on_regression(self, tmp_path):
        """The CI-gate shape: committed bench baseline vs a fresh run
        with a seeded regression on one watched series."""
        old = tmp_path / "baseline.json"
        old.write_text(json.dumps(
            {"paths": {"score": {"optimized_s": 1.0}}}))
        new = tmp_path / "current.json"
        new.write_text(json.dumps(
            {"paths": {"score": {"optimized_s": 2.0}}}))
        entries = diff_rows(load_rows(old), load_rows(new))
        breaches = find_regressions(entries, threshold_pct=50.0)
        assert [b.name for b in breaches] == ["bench.score.optimized_s"]


class TestFormat:
    def test_table_marks_breaches_and_pct(self):
        entries = [entry("a.latency_ms", 10.0, 20.0),
                   entry("b.count", 5.0, 5.0)]
        breaches = find_regressions(entries)
        text = format_diff(entries, breaches)
        lines = text.splitlines()
        assert lines[0].split() == ["metric", "old", "new", "delta", "pct"]
        assert any(line.startswith("!") and "a.latency_ms" in line
                   and "+100.0%" in line for line in lines)
        assert any(line.startswith(" ") and "b.count" in line
                   for line in lines)

    def test_changed_only_hides_stable_rows(self):
        entries = [entry("same", 1.0, 1.0), entry("moved", 1.0, 2.0),
                   entry("new", None, 3.0)]
        text = format_diff(entries, changed_only=True)
        assert "same" not in text
        assert "moved" in text
        assert "new" in text  # one-sided rows always visible

    def test_infinite_pct_renders(self):
        text = format_diff([entry("fresh", 0.0, 2.0)])
        assert "inf" in text


class TestWatchDrop:
    """Higher-is-better metrics regress by falling."""

    def test_watched_drop_past_threshold_breaches(self):
        entries = [entry("bench.kmeans_pq.speedup", 2.70, 0.93)]
        assert find_regressions(entries, watch_drop=("*.speedup",)) \
            == entries

    def test_drop_is_ignored_without_watch_drop(self):
        entries = [entry("bench.kmeans_pq.speedup", 2.70, 0.93)]
        assert find_regressions(entries, watch=("*.speedup",)) == []

    def test_rise_on_a_drop_watch_never_breaches(self):
        entries = [entry("recall_at10", 0.5, 0.99)]
        assert find_regressions(entries, watch_drop=("recall*",)) == []

    def test_drop_threshold_and_noise_floor(self):
        entries = [entry("recall_at10", 0.99, 0.90)]    # -9.1 %
        assert find_regressions(entries, threshold_pct=10.0,
                                watch_drop=("recall*",)) == []
        assert find_regressions(entries, threshold_pct=5.0,
                                watch_drop=("recall*",)) == entries
        assert find_regressions(entries, threshold_pct=5.0, min_delta=0.1,
                                watch_drop=("recall*",)) == []

    def test_both_directions_in_one_pass(self):
        entries = [entry("a.latency_ms", 10.0, 20.0),
                   entry("a.speedup", 4.0, 1.0),
                   entry("b.speedup", 1.0, 4.0)]
        assert [e.name for e in find_regressions(
            entries, watch_drop=("*.speedup",))] == ["a.latency_ms",
                                                      "a.speedup"]


def test_cli_watch_drop_fails_a_fallen_speedup(tmp_path, capsys):
    """The k-means trainer reverted to its per-cluster loop: the bench
    row's speedup fell from 2.70x to 0.93x.  A ``--watch`` on it passes
    (a fall is not an increase); ``--watch-drop`` fails the gate."""
    from repro import cli

    old = tmp_path / "baseline.json"
    old.write_text(json.dumps({"mode": "quick", "paths": {
        "kmeans_pq": {"optimized_s": 0.120, "reference_s": 0.324,
                      "speedup": 2.70}}}))
    new = tmp_path / "current.json"
    new.write_text(json.dumps({"mode": "quick", "paths": {
        "kmeans_pq": {"optimized_s": 0.301, "reference_s": 0.280,
                      "speedup": 0.93}}}))
    assert cli.main(["obs", "diff", str(old), str(new),
                     "--watch", "bench.kmeans_pq.speedup"]) == 0
    capsys.readouterr()
    assert cli.main(["obs", "diff", str(old), str(new),
                     "--watch", "bench.kmeans_pq.speedup",
                     "--watch-drop", "bench.kmeans_pq.speedup",
                     "--threshold-pct", "50", "--min-delta", "0.1"]) == 1
    captured = capsys.readouterr()
    assert "bench.kmeans_pq.speedup: 2.7 -> 0.93 (-65.6%)" in captured.err


def test_cli_rejects_a_drop_gate_that_cannot_fail(tmp_path):
    """A value can fall by at most 100 %, so a drop watch at a 100 %
    threshold would pass every run."""
    from repro import cli

    doc = tmp_path / "bench.json"
    doc.write_text(json.dumps({"paths": {"a": {"speedup": 2.0}}}))
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["obs", "diff", str(doc), str(doc),
                  "--watch-drop", "bench.a.speedup",
                  "--threshold-pct", "100"])
    assert exit_info.value.code == 2
