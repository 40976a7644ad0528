"""CLI tests (exercised in-process against the tiny bundles)."""

import io
import json
import socket

import numpy as np
import pytest

import repro.cli as cli
from repro.obs import read_jsonl


@pytest.fixture(autouse=True)
def tiny_benchmarks(monkeypatch, tiny_bundle, tiny_dataset):
    """Route every CLI benchmark name to the shared tiny fixtures so CLI
    tests never trigger full-scale pre-training."""
    monkeypatch.setattr(cli, "_load",
                        lambda name, seed: (tiny_bundle, tiny_dataset))


class TestCLI:
    def test_stats(self, capsys):
        assert cli.main(["stats", "cub"]) == 0
        out = capsys.readouterr().out
        assert "vertices" in out and "candidate_pairs" in out

    def test_match_hard(self, capsys):
        # the hard prompt has no trainable parameters, so even with
        # --epochs 1 this is a zero-training run
        assert cli.main(["match", "cub", "--method", "hard",
                         "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert "H@1=" in out

    def test_match_plus_and_save(self, capsys, tmp_path):
        path = str(tmp_path / "tuned.npz")
        assert cli.main(["match", "cub", "--method", "plus",
                         "--epochs", "1", "--save", path]) == 0
        out = capsys.readouterr().out
        assert "saved tuned matcher" in out

    def test_clean(self, capsys):
        assert cli.main(["clean", "cub", "--inject", "2",
                         "--z-threshold", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "flagged" in out

    def test_benchmark_flag_alias(self, capsys):
        assert cli.main(["match", "--benchmark", "cub", "--method", "hard",
                         "--epochs", "1"]) == 0
        assert "H@1=" in capsys.readouterr().out

    def test_match_requires_some_benchmark(self):
        with pytest.raises(SystemExit):
            cli.main(["match", "--method", "hard"])

    def test_metrics_out_zero_epoch_run(self, capsys, tmp_path):
        """--metrics-out captures efficiency + eval rows even when no
        epoch ever runs (the hard prompt has nothing to tune)."""
        path = tmp_path / "m.jsonl"
        assert cli.main(["match", "cub", "--method", "hard", "--epochs", "1",
                         "--metrics-out", str(path),
                         "--log-level", "off"]) == 0
        assert "wrote" in capsys.readouterr().out
        rows = read_jsonl(path)
        by_name = {row.get("name"): row for row in rows}
        assert rows[0]["type"] == "meta"
        assert rows[0]["benchmark"] == "cub" and rows[0]["method"] == "hard"
        assert by_name["efficiency.seconds_per_epoch"]["value"] == 0.0
        assert by_name["efficiency.peak_memory_mb"]["value"] >= 0.0
        assert by_name["eval.hits1"]["type"] == "gauge"
        assert any(row["type"] == "span" and row["name"] == "fit"
                   for row in rows)

    def test_metrics_out_training_run(self, tmp_path):
        """A tuned run exports per-epoch loss/throughput metrics and the
        hierarchical span profile (the acceptance-criteria schema)."""
        path = tmp_path / "m.jsonl"
        assert cli.main(["match", "cub", "--method", "plus", "--epochs", "2",
                         "--metrics-out", str(path),
                         "--log-level", "off"]) == 0
        rows = read_jsonl(path)
        by_name = {row.get("name"): row for row in rows}
        loss = by_name["train.epoch_loss"]
        assert loss["type"] == "histogram" and loss["count"] == 2
        assert {"sum", "min", "max", "p50", "p95"} <= set(loss)
        assert by_name["train.pairs_per_sec"]["type"] == "gauge"
        assert by_name["train.batches"]["value"] > 0
        assert by_name["efficiency.seconds_per_epoch"]["value"] > 0.0
        assert by_name["plan.partitions"]["value"] >= 1
        assert by_name["pcp.partition_images"]["type"] == "histogram"
        assert by_name["ns.negatives_per_partition"]["count"] >= 1
        span_names = {row["name"] for row in rows if row["type"] == "span"}
        assert {"fit", "fit/epoch", "fit/epoch/labels",
                "fit/plan"} <= span_names
        epoch_span = by_name["fit/epoch"]
        assert epoch_span["count"] == 2
        assert epoch_span["p50_seconds"] <= epoch_span["p95_seconds"]

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["stats", "imagenet"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            cli.main([])


class TestCLIValidation:
    """Bad numeric flags die at parse time with an argparse error, not a
    stack trace from inside training."""

    @pytest.mark.parametrize("argv", [
        ["match", "cub", "--test-fraction", "0"],
        ["match", "cub", "--test-fraction", "1"],
        ["match", "cub", "--test-fraction", "1.5"],
        ["match", "cub", "--test-fraction", "-0.1"],
        ["match", "cub", "--test-fraction", "half"],
        ["match", "cub", "--epochs", "0"],
        ["match", "cub", "--epochs", "-3"],
        ["match", "cub", "--epochs", "two"],
        ["match", "cub", "--checkpoint-every", "0"],
        ["serve", "cub", "--epochs", "0"],
        ["serve", "cub", "--conn-inflight", "0"],
        ["serve", "cub", "--drain-timeout-s", "0"],
        ["serve", "cub", "--top-k", "0"],
        ["serve", "cub", "--shard-count", "0"],
        ["serve", "cub", "--shard-slot", "-1"],
        ["route", "cub", "--listen", ":0", "--shard-timeout-ms", "0"],
        ["route", "cub", "--listen", ":0", "--conn-inflight", "0"],
        ["route", "cub", "--listen", ":0", "--trace-sample-rate", "1.5"],
        ["route", "cub", "--listen", ":0", "--drain-timeout-s", "0"],
        ["serve", "cub", "--trace-sample-rate", "1.5"],
        ["serve", "cub", "--trace-sample-rate", "-0.1"],
        ["load", "run", "cub", "--rate", "0"],
        ["load", "run", "cub", "--rate", "-5"],
        ["load", "run", "cub", "--rate", "fast"],
        ["load", "run", "cub", "--duration", "0"],
        ["load", "run", "cub", "--duration", "-1"],
        ["load", "run", "cub", "--bad-fraction", "1.5"],
        ["load", "run", "cub", "--skew", "-1"],
        ["load", "run", "cub", "--budget-ms", "0"],
        ["load", "run", "cub", "--trace-sample-rate", "2"],
        ["load", "sweep", "cub", "--rates", ""],
        ["load", "sweep", "cub", "--rates", "0,5"],
        ["load", "sweep", "cub", "--rates", "5,5"],
        ["load", "sweep", "cub", "--rates", "10,5"],
        ["load", "sweep", "cub", "--rates", "1,x"],
        ["load", "replay", "t.jsonl", "cub", "--speedup", "0"],
        # the threaded mode's knobs are gone from every subcommand
        ["serve", "cub", "--capacity", "16"],
        ["route", "cub", "--listen", ":0", "--workers", "1"],
        ["load", "run", "cub", "--workers", "2"],
        # so are the micro-batcher's, the service breaker's, the
        # deadline's and the serve-time index's: every request is a
        # slice of the answer table
        ["serve", "cub", "--batch-window-ms", "2"],
        ["serve", "cub", "--max-batch", "16"],
        ["serve", "cub", "--max-pending", "256"],
        ["serve", "cub", "--batch-workers", "2"],
        ["serve", "cub", "--default-budget-ms", "100"],
        ["serve", "cub", "--breaker-threshold", "0.5"],
        ["serve", "cub", "--index", "shard.npz"],
        ["route", "cub", "--listen", ":0", "--batch-window-ms", "2"],
        ["route", "cub", "--listen", ":0", "--default-budget-ms", "100"],
        ["load", "run", "cub", "--index", "shard.npz"],
        ["load", "run", "cub", "--default-budget-ms", "100"],
        # and the router's hedge and per-shard breakers: a request past
        # the merged table asks every shard once
        ["route", "cub", "--listen", ":0", "--hedge-fraction", "0.5"],
        ["route", "cub", "--listen", ":0", "--breaker-window", "8"],
        ["route", "cub", "--listen", ":0", "--breaker-threshold", "0.5"],
        ["route", "cub", "--listen", ":0", "--breaker-min-calls", "3"],
        ["route", "cub", "--listen", ":0", "--breaker-cooldown-ms", "100"],
    ])
    def test_rejected_at_parse_time(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err

    def test_boundary_values_accepted(self, capsys):
        assert cli.main(["match", "cub", "--method", "hard", "--epochs", "1",
                         "--test-fraction", "0.99",
                         "--checkpoint-every", "1"]) == 0
        assert "H@1=" in capsys.readouterr().out


class TestCLIServe:
    def test_serve_round_trip_over_stdio(self, capsys, monkeypatch,
                                         tiny_dataset, tmp_path):
        vertex = int(list(tiny_dataset.entity_vertices)[0])
        requests = [
            json.dumps({"id": "q1", "vertex": vertex, "top_k": 2}),
            "not json at all",
            json.dumps({"id": "q2", "vertex": -1}),
        ]
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("".join(r + "\n" for r in requests)))
        metrics = tmp_path / "serve.jsonl"
        assert cli.main(["serve", "cub", "--method", "hard", "--epochs", "1",
                         "--log-level", "off",
                         "--metrics-out", str(metrics)]) == 0
        captured = capsys.readouterr()
        responses = [json.loads(line)
                     for line in captured.out.splitlines() if line]
        assert len(responses) == 3
        by_id = {r["id"]: r for r in responses}
        assert by_id["q1"]["ok"] is True
        assert by_id["q1"]["tier"] == "full"
        assert len(by_id["q1"]["matches"]) == 2
        assert by_id[None]["error"]["type"] == "bad_request"
        assert by_id["q2"]["error"]["type"] == "bad_request"
        # diagnostics stay on stderr, stdout is pure response JSONL
        assert "serving" in captured.err and "served 3 responses" in captured.err
        # every response — ok, parse failure, bad request — is traceable
        assert all(r["trace_id"] for r in responses)
        assert len({r["trace_id"] for r in responses}) == 3
        all_rows = read_jsonl(metrics)
        rows = {row.get("name"): row for row in all_rows}
        assert rows["serve.requests_total"]["value"] == 3
        assert rows["serve.ok_total"]["value"] == 1
        traces = {row["trace_id"]: row for row in all_rows
                  if row["type"] == "trace"}
        assert set(traces) == {r["trace_id"] for r in responses}
        assert traces[by_id["q2"]["trace_id"]]["flags"] == ["error"]
        # a scrape-ready OpenMetrics snapshot lands next to the JSONL
        prom = metrics.with_suffix(".prom").read_text()
        assert "repro_serve_requests_total 3" in prom
        assert prom.endswith("# EOF\n")

    def test_serve_sample_rate_zero_keeps_only_errors(
            self, capsys, monkeypatch, tiny_dataset, tmp_path):
        vertex = int(list(tiny_dataset.entity_vertices)[0])
        requests = [json.dumps({"id": "ok", "vertex": vertex}),
                    json.dumps({"id": "bad", "vertex": -1})]
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("".join(r + "\n" for r in requests)))
        metrics = tmp_path / "serve.jsonl"
        assert cli.main(["serve", "cub", "--method", "hard", "--epochs", "1",
                         "--log-level", "off", "--trace-sample-rate", "0",
                         "--metrics-out", str(metrics)]) == 0
        capsys.readouterr()
        traces = [row for row in read_jsonl(metrics)
                  if row["type"] == "trace"]
        assert len(traces) == 1
        assert traces[0]["sampled"] == "forced"


class TestCLIRoute:
    def test_route_exits_1_when_the_router_cannot_boot(
            self, monkeypatch, capsys, tmp_path):
        """Every worker is up, but none answers ``info`` or ``table``
        (nothing listens where they say they do): the router refuses to
        open, the fleet is stopped, and ``repro route`` exits 1."""
        probe = socket.create_server(("127.0.0.1", 0))
        address = probe.getsockname()[:2]
        probe.close()
        stopped = []

        class SilentFleet:
            def __init__(self, command_for_slot, count, work_dir, config):
                self.count = count

            def start(self, *, wait_healthy=True):
                return self

            def address_of(self, slot):
                return address

            def stop(self):
                stopped.append(True)

        monkeypatch.setattr("repro.shard.WorkerSupervisor", SilentFleet)
        assert cli.main(["route", "cub", "--listen", "127.0.0.1:0",
                         "--shards", "2", "--work-dir", str(tmp_path),
                         "--log-level", "off"]) == 1
        assert stopped == [True]
        assert "router did not boot" in capsys.readouterr().err


class TestCLIObs:
    @staticmethod
    def jsonl(path, rows):
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        return path

    def test_obs_report_renders_traces(self, capsys, tmp_path):
        export = self.jsonl(tmp_path / "run.jsonl", [
            {"type": "meta", "schema_version": 2},
            {"type": "span", "name": "fit", "count": 1,
             "total_seconds": 0.5, "p50_seconds": 0.5, "p95_seconds": 0.5},
            {"type": "trace", "trace_id": "aaa", "name": "serve.request",
             "flags": ["degraded"], "sampled": "forced",
             "duration_ms": 12.0,
             "spans": {"name": "serve.request", "start_ms": 0.0,
                       "duration_ms": 12.0,
                       "events": [{"kind": "degrade", "at_ms": 1.0}],
                       "children": []}}])
        assert cli.main(["obs", "report", str(export), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "== span profile ==" in out
        assert "trace aaa" in out and "flags=degraded" in out
        assert "* degrade" in out

    def test_obs_diff_gates_on_seeded_regression(self, capsys, tmp_path):
        old = self.jsonl(tmp_path / "old.jsonl", [
            {"type": "gauge", "name": "encode.latency_ms", "value": 10.0}])
        new = self.jsonl(tmp_path / "new.jsonl", [
            {"type": "gauge", "name": "encode.latency_ms", "value": 20.0}])
        assert cli.main(["obs", "diff", str(old), str(new),
                         "--threshold-pct", "25"]) == 1
        captured = capsys.readouterr()
        assert "encode.latency_ms" in captured.out
        assert "regressed" in captured.err
        # same exports under a lenient threshold: clean exit
        assert cli.main(["obs", "diff", str(old), str(new),
                         "--threshold-pct", "150"]) == 0

    def test_obs_diff_min_delta_noise_floor(self, tmp_path, capsys):
        old = self.jsonl(tmp_path / "old.jsonl", [
            {"type": "gauge", "name": "fit.p95", "value": 0.001}])
        new = self.jsonl(tmp_path / "new.jsonl", [
            {"type": "gauge", "name": "fit.p95", "value": 0.002}])
        assert cli.main(["obs", "diff", str(old), str(new),
                         "--min-delta", "0.01"]) == 0
        capsys.readouterr()

    def test_obs_diff_accepts_bench_baseline(self, capsys, tmp_path):
        old = tmp_path / "baseline.json"
        old.write_text(json.dumps(
            {"mode": "quick", "paths": {"score": {"optimized_s": 1.0}}}))
        new = tmp_path / "current.json"
        new.write_text(json.dumps(
            {"mode": "quick", "paths": {"score": {"optimized_s": 3.0}}}))
        assert cli.main(["obs", "diff", str(old), str(new)]) == 1
        assert "bench.score.optimized_s" in capsys.readouterr().out

    def test_obs_prom_renders_to_stdout_and_file(self, capsys, tmp_path):
        export = self.jsonl(tmp_path / "run.jsonl", [
            {"type": "counter", "name": "cache.hit", "value": 2}])
        assert cli.main(["obs", "prom", str(export)]) == 0
        assert "repro_cache_hit_total 2" in capsys.readouterr().out
        out = tmp_path / "run.prom"
        assert cli.main(["obs", "prom", str(export),
                         "-o", str(out)]) == 0
        assert out.read_text().endswith("# EOF\n")

    def test_serve_rejects_invalid_sample_rate(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["serve", "cub", "--trace-sample-rate", "2"])
        assert excinfo.value.code == 2
        assert "--trace-sample-rate" in capsys.readouterr().err


class TestCLILoad:
    def test_load_run_writes_report_and_metrics(self, capsys, tmp_path):
        report_path = tmp_path / "run.json"
        metrics = tmp_path / "run.jsonl"
        assert cli.main(["load", "run", "cub", "--method", "hard",
                         "--epochs", "1", "--process", "uniform",
                         "--rate", "100", "--duration", "0.2",
                         "--log-level", "off",
                         "--output", str(report_path),
                         "--metrics-out", str(metrics)]) == 0
        captured = capsys.readouterr()
        assert "latency (from intended arrival)" in captured.out
        doc = json.loads(report_path.read_text())
        assert doc["schema"] == "repro.loadreport/1"
        assert doc["summary"]["offered"] == 20
        assert doc["summary"]["outcomes"]["lost"] == 0
        rows = {row.get("name"): row for row in read_jsonl(metrics)}
        assert rows["load.offered_total"]["value"] == 20
        assert "buckets" in rows["load.latency_ms"]
        prom = metrics.with_suffix(".prom").read_text()
        assert "# TYPE repro_load_latency_ms histogram" in prom
        assert 'le="+Inf"' in prom

    def test_load_sweep_frontier_slo_diff_round_trip(self, capsys,
                                                     tmp_path):
        """The CI gate end to end: sweep → frontier artifact → obs slo
        verdict → obs diff against itself stays clean."""
        frontier = tmp_path / "frontier.json"
        assert cli.main(["load", "sweep", "cub", "--method", "hard",
                         "--epochs", "1", "--process", "uniform",
                         "--duration", "0.2", "--rates", "20,50",
                         "--log-level", "off",
                         "--p99-ms", "10000", "--availability", "0.3",
                         "--output", str(frontier)]) == 0
        captured = capsys.readouterr()
        assert "knee:" in captured.out
        doc = json.loads(frontier.read_text())
        assert doc["schema"] == "repro.frontier/1"
        assert doc["knee"]["rate"] == 50.0
        assert len(doc["points"]) == 2

        assert cli.main(["obs", "slo", str(frontier),
                         "--p99-ms", "10000", "--availability", "0.3"]) == 0
        assert "PASS" in capsys.readouterr().out
        assert cli.main(["obs", "slo", str(frontier),
                         "--p99-ms", "0.0001"]) == 1
        assert "VIOLATED" in capsys.readouterr().out

        assert cli.main(["obs", "diff", str(frontier), str(frontier),
                         "--watch", "frontier.knee.interarrival_ms"]) == 0
        capsys.readouterr()

    def test_load_sweep_requires_an_objective(self, capsys, tmp_path):
        assert cli.main(["load", "sweep", "cub", "--rates", "5,10"]) == 2
        assert "needs an SLO" in capsys.readouterr().err

    def test_load_replay_from_trace_export(self, capsys, tmp_path):
        metrics = tmp_path / "recorded.jsonl"
        assert cli.main(["load", "run", "cub", "--method", "hard",
                         "--epochs", "1", "--process", "uniform",
                         "--rate", "50", "--duration", "0.2",
                         "--trace-sample-rate", "1", "--log-level", "off",
                         "--metrics-out", str(metrics)]) == 0
        capsys.readouterr()
        replay_report = tmp_path / "replay.json"
        assert cli.main(["load", "replay", str(metrics), "cub",
                         "--method", "hard", "--epochs", "1",
                         "--speedup", "4", "--log-level", "off",
                         "--output", str(replay_report)]) == 0
        captured = capsys.readouterr()
        assert "replaying 10 requests" in captured.err
        doc = json.loads(replay_report.read_text())
        assert doc["summary"]["offered"] == 10
        assert doc["meta"]["speedup"] == 4.0

    def test_load_replay_empty_export_fails(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text(json.dumps({"type": "meta",
                                     "schema_version": 3}) + "\n")
        assert cli.main(["load", "replay", str(empty), "cub"]) == 2
        assert "no replayable traces" in capsys.readouterr().err

    def test_obs_slo_on_load_report(self, capsys, tmp_path):
        report_path = tmp_path / "run.json"
        assert cli.main(["load", "run", "cub", "--method", "hard",
                         "--epochs", "1", "--process", "uniform",
                         "--rate", "100", "--duration", "0.1",
                         "--log-level", "off",
                         "--output", str(report_path)]) == 0
        capsys.readouterr()
        assert cli.main(["obs", "slo", str(report_path),
                         "--availability", "0.5",
                         "--p99-ms", "10000"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "burn rate" in out

    def test_obs_slo_requires_an_objective(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"summary": {}}))
        assert cli.main(["obs", "slo", str(path)]) == 2
        assert "needs an SLO" in capsys.readouterr().err


class TestCLICheckpointing:
    def test_checkpoint_then_resume(self, capsys, tmp_path):
        ckpt_dir = tmp_path / "ckpts"
        assert cli.main(["match", "cub", "--method", "soft", "--epochs", "1",
                         "--checkpoint-dir", str(ckpt_dir)]) == 0
        assert list(ckpt_dir.glob("ckpt-*.ckpt"))
        assert cli.main(["match", "cub", "--method", "soft", "--epochs", "2",
                         "--checkpoint-dir", str(ckpt_dir), "--resume"]) == 0
        assert "H@1=" in capsys.readouterr().out

    def test_resume_without_checkpoint_dir_rejected(self, capsys):
        assert cli.main(["match", "cub", "--method", "soft", "--epochs", "1",
                         "--resume"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_resume_with_empty_dir_trains_fresh(self, capsys, tmp_path):
        assert cli.main(["match", "cub", "--method", "soft", "--epochs", "1",
                         "--checkpoint-dir", str(tmp_path / "empty"),
                         "--resume"]) == 0
        assert "H@1=" in capsys.readouterr().out
