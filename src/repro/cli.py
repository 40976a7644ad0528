"""Command-line interface: ``python -m repro <command>``.

Five commands cover the common workflows without writing code:

* ``stats`` — print the Table-I-style statistics of a benchmark.
* ``match`` — fit a matcher on a benchmark and report H@k / MRR.
* ``serve`` — fit a matcher, then answer match queries as a resilient
  JSON-lines service on stdin/stdout (every answer a slice of the
  answer table, typed failures — README "Serving").  Every
  response carries a ``trace_id``; sampled request traces export with
  the metrics.
* ``clean`` — run the data-cleaning detectors over a benchmark's
  repository with injected corruption (demo of the future-work module).
* ``load`` — open-loop load generation against the serving layer
  (README "Load testing & SLOs"): ``load run`` drives one workload
  (Poisson / bursty / uniform arrivals, heavy-tailed query mix) and
  writes a latency/outcome report, ``load sweep`` steps offered rates
  and emits a latency/throughput frontier artifact with its SLO knee,
  ``load replay`` re-offers the arrival spacing and query shapes
  recorded in an exported trace JSONL.
* ``obs`` — telemetry analysis, offline and live: ``obs report``
  renders the span profile, bucket histograms and slowest
  traces, ``obs diff`` compares two exports (or frontier artifacts)
  with regression thresholds (non-zero exit on breach, the CI gate),
  ``obs slo`` evaluates an SLO spec against a load report or frontier
  — or, with ``--connect``, judges a *running* fleet from live scrape
  deltas (non-zero exit on violation), ``obs prom`` re-renders an
  export as OpenMetrics text, and ``obs scrape --connect`` pulls a
  point-in-time fleet snapshot off a live server or router without
  stopping it (README "Fleet observability").

Dataset commands accept the benchmark positionally or via
``--benchmark``.  ``match`` and ``serve`` additionally expose the
telemetry layer: ``--log-level`` overrides ``REPRO_LOG_LEVEL`` and
``--metrics-out PATH`` writes the run's metrics registry, span profile
and sampled traces as JSONL (:mod:`repro.obs.export` documents the
schema); ``serve`` also drops a scrape-ready ``.prom`` snapshot next to
the JSONL.

Numeric options are validated at parse time (fractions in their open
interval, counts at least 1) so a typo is an argparse error naming the
flag, not a stack trace from deep inside training.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["main"]

_BENCHMARKS = ("cub", "sun", "fb2k", "fb6k", "fb10k")
_LOG_LEVELS = ("debug", "info", "warning", "error", "off")


# -- parse-time validators --------------------------------------------------
def _open_fraction(text: str) -> float:
    """A float strictly inside (0, 1)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(
            f"must be strictly between 0 and 1, got {text}")
    return value


def _positive_int(text: str) -> int:
    """An integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def _non_negative_int(text: str) -> int:
    """An integer >= 0 (a shard slot)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be non-negative, got {text}")
    return value


def _positive_float(text: str) -> float:
    """A float > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _non_negative_float(text: str) -> float:
    """A float >= 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be non-negative, got {text}")
    return value


def _address(text: str) -> str:
    """A HOST:PORT spec, validated now, parsed again where used."""
    from .loadgen.socketdrv import parse_address

    try:
        parse_address(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return text


def _unit_interval(text: str) -> float:
    """A float in [0, 1] (a sampling rate; 0 = head-sample nothing)."""
    value = _non_negative_float(text)
    if value > 1.0:
        raise argparse.ArgumentTypeError(f"must be at most 1, got {text}")
    return value


def _rate_list(text: str) -> List[float]:
    """Comma-separated, strictly ascending, positive rates (req/s)."""
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("needs at least one rate")
    values = [_positive_float(part) for part in parts]
    if any(b <= a for a, b in zip(values, values[1:])):
        raise argparse.ArgumentTypeError(
            f"rates must be strictly ascending, got {text}")
    return values


def _load(name: str, seed: int):
    from .datasets import (cub_bundle, fb_bundle, load_cub, load_fbimg,
                           load_sun, sun_bundle)

    if name == "cub":
        return cub_bundle(seed), load_cub(seed)
    if name == "sun":
        return sun_bundle(seed), load_sun(seed)
    return fb_bundle(seed), load_fbimg(name, seed)


def _cmd_stats(args: argparse.Namespace) -> int:
    _, dataset = _load(args.benchmark, args.seed)
    print(f"{dataset.name}:")
    for key, value in dataset.statistics().items():
        print(f"  {key:16s} {value}")
    return 0


def _make_matcher(args: argparse.Namespace, bundle):
    """Build the (unfitted) matcher a command asked for."""
    from .core import (CrossEM, CrossEMConfig, CrossEMPlus,
                       CrossEMPlusConfig)

    aggregator = "sage" if args.benchmark.startswith("fb") else "gnn"
    if args.method == "plus":
        return CrossEMPlus(bundle, CrossEMPlusConfig(
            epochs=args.epochs, lr=args.lr, aggregator=aggregator,
            seed=args.seed))
    return CrossEM(bundle, CrossEMConfig(
        prompt=args.method, epochs=args.epochs, lr=args.lr,
        aggregator=aggregator, seed=args.seed))


def _cmd_match(args: argparse.Namespace) -> int:
    from .datasets import train_test_split
    from .obs import (configure_logging, export_jsonl, registry,
                      reset_spans)

    if args.log_level:
        configure_logging(args.log_level)
    # A fresh registry/profile per invocation keeps --metrics-out
    # self-contained when main() is driven in-process (tests, notebooks).
    reg = registry()
    reg.reset()
    reset_spans()

    if args.resume and not args.checkpoint_dir:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 2

    bundle, dataset = _load(args.benchmark, args.seed)
    split = train_test_split(dataset, args.test_fraction, seed=args.seed)
    matcher = _make_matcher(args, bundle)
    matcher.fit(dataset.graph, dataset.images, dataset.entity_vertices,
                checkpoint_dir=args.checkpoint_dir,
                checkpoint_every=args.checkpoint_every,
                resume_from=args.checkpoint_dir if args.resume else None)
    result = matcher.evaluate(dataset, list(split.test))
    print(f"{dataset.name} / {args.method}: {result}")
    # Efficiency goes through the registry (not just stdout) so
    # --metrics-out captures it even for zero-epoch runs.
    reg.gauge("efficiency.seconds_per_epoch").set(
        matcher.efficiency.seconds_per_epoch)
    reg.gauge("efficiency.peak_memory_mb").set(
        matcher.efficiency.peak_memory_mb)
    if matcher.efficiency.seconds_per_epoch:
        print(f"efficiency: {matcher.efficiency}")
    if args.save:
        from .core import save_matcher

        saved = save_matcher(matcher, args.save)
        print(f"saved tuned matcher to {saved}")
    if args.metrics_out:
        rows = export_jsonl(args.metrics_out,
                            meta={"benchmark": args.benchmark,
                                  "method": args.method,
                                  "epochs": args.epochs,
                                  "seed": args.seed})
        print(f"wrote {rows} metric rows to {args.metrics_out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .serve import MatchService, ServeConfig, serve_loop

    _reset_telemetry(args)
    if (args.shard_slot is None) != (args.shard_count is None):
        print("--shard-slot and --shard-count must be given together",
              file=sys.stderr)
        return 2
    if args.shard_count is not None and \
            not args.shard_slot < args.shard_count:
        print("--shard-slot must be below --shard-count", file=sys.stderr)
        return 2
    if args.port_file and not args.listen:
        print("--port-file requires --listen", file=sys.stderr)
        return 2
    bundle, dataset = _load(args.benchmark, args.seed)
    matcher = _make_matcher(args, bundle)
    matcher.fit(dataset.graph, dataset.images, dataset.entity_vertices)
    config = ServeConfig(
        top_k_default=args.top_k,
        trace_sample_rate=args.trace_sample_rate,
        trace_capacity=args.trace_capacity,
        shard_slot=args.shard_slot, shard_count=args.shard_count)
    service = MatchService(matcher, config=config).warmup()
    exit_code = 0
    if args.listen:
        from .loadgen.socketdrv import parse_address
        from .netserve import NetServeConfig, NetServer

        host, port = parse_address(args.listen)
        server = NetServer(service, NetServeConfig(
            host=host, port=port, conn_inflight=args.conn_inflight,
            drain_timeout_s=args.drain_timeout_s))

        def _announce(bound) -> None:
            # stderr, flushed: scripts poll for this line (or the port)
            shard = "" if args.shard_count is None else \
                f", shard {args.shard_slot}/{args.shard_count}"
            print(f"listening on {bound[0]}:{bound[1]} — "
                  f"{dataset.name} / {args.method}{shard}", file=sys.stderr,
                  flush=True)
            if args.port_file:
                # atomic: a supervisor polling this file never reads a
                # half-written address
                from .iosafe import atomic_write_bytes

                atomic_write_bytes(
                    Path(args.port_file),
                    f"{bound[0]}:{bound[1]}\n".encode("utf-8"))

        exit_code = server.run(ready=_announce)
        print(f"drained ({'clean' if exit_code == 0 else 'timed out'})",
              file=sys.stderr)
    else:
        # Diagnostics go to stderr; stdout carries only response JSONL.
        print(f"serving {dataset.name} / {args.method}: "
              f"{len(matcher.vertex_ids)} vertices, {len(matcher.images)} "
              f"images — one JSON request per stdin line", file=sys.stderr)
        served = serve_loop(service, sys.stdin, sys.stdout)
        print(f"served {served} responses", file=sys.stderr)
    _export_telemetry(args, benchmark=args.benchmark, method=args.method,
                      command="serve", seed=args.seed)
    return exit_code


def _export_telemetry(args: argparse.Namespace, **meta) -> None:
    """``--metrics-out``: the registry as JSONL plus a scrape-ready
    ``.prom`` snapshot next to it.  Diagnostics go to stderr."""
    from pathlib import Path

    from .obs import export_jsonl, export_prom

    if not args.metrics_out:
        return
    rows = export_jsonl(args.metrics_out, meta=meta)
    print(f"wrote {rows} metric rows to {args.metrics_out}", file=sys.stderr)
    prom_path = export_prom(Path(args.metrics_out).with_suffix(".prom"))
    print(f"wrote OpenMetrics snapshot to {prom_path}", file=sys.stderr)


def _cmd_route(args: argparse.Namespace) -> int:
    import tempfile
    from pathlib import Path

    from .loadgen.socketdrv import parse_address
    from .shard import (RouterBootError, RouterConfig, ShardRouter,
                        SupervisorConfig, WorkerSupervisor)

    _reset_telemetry(args)
    host, port = parse_address(args.listen)
    work_dir = Path(args.work_dir) if args.work_dir else \
        Path(tempfile.mkdtemp(prefix="repro-shards-"))

    def command_for_slot(slot: int, port_file: Path) -> list:
        # each worker is an ordinary `repro serve --listen` on an
        # ephemeral port, fitted identically (same benchmark, same
        # seed) and told which slice of the image space it owns
        command = [sys.executable, "-m", "repro",
                   "--seed", str(args.seed),
                   "serve", args.benchmark,
                   "--method", args.method,
                   "--epochs", str(args.epochs), "--lr", str(args.lr),
                   "--top-k", str(args.top_k),
                   "--listen", "127.0.0.1:0",
                   "--port-file", str(port_file),
                   "--shard-slot", str(slot),
                   "--shard-count", str(args.shards)]
        if args.log_level:
            command += ["--log-level", args.log_level]
        return command

    supervisor = WorkerSupervisor(
        command_for_slot, args.shards, work_dir,
        SupervisorConfig(spawn_timeout_s=args.spawn_timeout_s,
                         backoff_base_s=args.restart_backoff_s,
                         flap_max=args.flap_max,
                         flap_window_s=args.flap_window_s))
    print(f"spawning {args.shards} shard workers "
          f"({args.benchmark} / {args.method}; logs in {work_dir})",
          file=sys.stderr, flush=True)
    try:
        supervisor.start(wait_healthy=True)
    except RuntimeError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    router = ShardRouter(supervisor, RouterConfig(
        host=host, port=port,
        shard_timeout_ms=args.shard_timeout_ms,
        conn_inflight=args.conn_inflight,
        drain_timeout_s=args.drain_timeout_s,
        trace_sample_rate=args.trace_sample_rate,
        trace_capacity=args.trace_capacity))

    def _announce(bound) -> None:
        # stderr, flushed: scripts poll for this line (or the port)
        print(f"routing on {bound[0]}:{bound[1]} — {args.shards} shards "
              f"({args.benchmark} / {args.method})", file=sys.stderr,
              flush=True)

    try:
        exit_code = router.run(ready=_announce)
    except RouterBootError as exc:
        supervisor.stop()
        print(f"router did not boot: {exc}", file=sys.stderr)
        return 1
    print(f"drained ({'clean' if exit_code == 0 else 'timed out'})",
          file=sys.stderr)
    _export_telemetry(args, benchmark=args.benchmark, method=args.method,
                      command="route", shards=args.shards, seed=args.seed)
    return exit_code


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from .obs.diff import load_rows
    from .obs.report import format_report

    print(format_report(load_rows(args.path), top=args.top))
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    from .obs.diff import (DEFAULT_WATCH, diff_rows, find_regressions,
                           format_diff, load_rows)

    entries = diff_rows(load_rows(args.old), load_rows(args.new))
    watch = tuple(args.watch) if args.watch else DEFAULT_WATCH
    regressions = find_regressions(entries, threshold_pct=args.threshold_pct,
                                   min_delta=args.min_delta, watch=watch,
                                   watch_drop=tuple(args.watch_drop or ()))
    print(format_diff(entries, regressions, changed_only=args.changed_only))
    if regressions:
        print(f"\n{len(regressions)} metric(s) regressed past "
              f"{args.threshold_pct:g}% (min delta {args.min_delta:g}):",
              file=sys.stderr)
        for entry in regressions:
            print(f"  {entry.name}: {entry.old:.6g} -> {entry.new:.6g} "
                  f"({entry.pct:+.1f}%)", file=sys.stderr)
        return 1
    return 0


def _cmd_obs_prom(args: argparse.Namespace) -> int:
    from .iosafe import atomic_write_bytes
    from .obs.diff import load_rows
    from .obs.promtext import render_openmetrics

    text = render_openmetrics(load_rows(args.path), prefix=args.prefix)
    if args.output:
        atomic_write_bytes(args.output, text.encode("utf-8"))
        print(f"wrote OpenMetrics snapshot to {args.output}",
              file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _reset_telemetry(args: argparse.Namespace) -> None:
    from .obs import configure_logging, registry, reset_spans, trace_recorder

    if getattr(args, "log_level", None):
        configure_logging(args.log_level)
    registry().reset()
    reset_spans()
    trace_recorder().reset()


def _fit_for_load(args: argparse.Namespace):
    """Fit the matcher a load command drives (once per invocation)."""
    bundle, dataset = _load(args.benchmark, args.seed)
    matcher = _make_matcher(args, bundle)
    matcher.fit(dataset.graph, dataset.images, dataset.entity_vertices)
    return matcher, dataset


def _service_for_load(matcher, args: argparse.Namespace):
    """The warmed service a load command drives, built once per
    command and answering every run or sweep point inline."""
    from .serve import MatchService, ServeConfig

    config = ServeConfig(trace_sample_rate=args.trace_sample_rate)
    return MatchService(matcher, config=config).warmup()


def _load_config_from_args(args: argparse.Namespace, *,
                           rate: Optional[float] = None,
                           replay=None):
    from .loadgen import LoadConfig

    if replay is not None:
        return LoadConfig(process="replay", duration=args.duration,
                          seed=args.seed, replay=replay)
    return LoadConfig(process=args.process,
                      rate=args.rate if rate is None else rate,
                      duration=args.duration, seed=args.seed,
                      burst_rate=args.burst_rate,
                      on_seconds=args.on_seconds,
                      off_seconds=args.off_seconds,
                      skew=args.skew, budget_ms=args.budget_ms,
                      bad_fraction=args.bad_fraction)


_SLO_FIELDS = ("p50_ms", "p95_ms", "p99_ms", "availability",
               "max_degraded", "max_shed")


def _spec_from_args(args: argparse.Namespace):
    """The SLO spec a command was given — ``--spec FILE`` or inline
    objective flags; ``None`` when neither was provided."""
    from .obs.slo import SLOSpec, load_spec

    if getattr(args, "spec", None):
        return load_spec(args.spec)
    objectives = {field: getattr(args, field) for field in _SLO_FIELDS
                  if getattr(args, field, None) is not None}
    if not objectives:
        return None
    return SLOSpec(name=getattr(args, "slo_name", "cli"), **objectives)


def _emit_load_artifacts(report, args: argparse.Namespace) -> None:
    report.publish()
    summary = report.summary()
    print(f"offered {summary['offered']} requests over "
          f"{summary['duration_s']:.2f}s "
          f"({summary['offered_rate']:.1f}/s offered, "
          f"{summary['achieved_rate']:.1f}/s answered)")
    print(f"outcomes: " + " ".join(
        f"{outcome}={count}" for outcome, count
        in summary["outcomes"].items() if count))
    print(f"latency (from intended arrival): "
          f"p50={summary['p50_ms']:.1f}ms p95={summary['p95_ms']:.1f}ms "
          f"p99={summary['p99_ms']:.1f}ms max={summary['max_ms']:.1f}ms")
    print(f"availability={summary['availability']:.4f} "
          f"max_injector_lag={summary['max_lag_ms']:.1f}ms")
    if args.output:
        saved = report.save(args.output)
        print(f"wrote load report to {saved}", file=sys.stderr)
    _export_telemetry(args, benchmark=args.benchmark, command="load",
                      seed=args.seed)


def _remote_vertices(args: argparse.Namespace):
    """``(address, vertex space)`` for a ``--connect`` run: the server's
    ``info`` handshake replaces local fitting entirely."""
    from .loadgen import fetch_info, parse_address

    address = parse_address(args.connect)
    info = fetch_info(address)
    print(f"connected to {address[0]}:{address[1]}: "
          f"{len(info['vertices'])} vertices, {info['images']} images",
          file=sys.stderr)
    return address, info["vertices"]


def _cmd_load_run(args: argparse.Namespace) -> int:
    from .loadgen import SocketDriver, build_schedule, run_schedule

    _reset_telemetry(args)
    if args.connect:
        address, vertices = _remote_vertices(args)
        target, source = SocketDriver(address), args.connect
    else:
        matcher, dataset = _fit_for_load(args)
        vertices, source = matcher.vertex_ids, dataset.name
        target = _service_for_load(matcher, args)
    config = _load_config_from_args(args)
    schedule = build_schedule(config, vertices)
    print(f"load run on {source}: {len(schedule)} requests, "
          f"{config.process} arrivals at {config.rate:g}/s for "
          f"{config.duration:g}s", file=sys.stderr)
    report = run_schedule(target, schedule,
                          meta={"benchmark": args.benchmark,
                                "connect": args.connect,
                                "config": config.describe()})
    _emit_load_artifacts(report, args)
    return 0


def _cmd_load_sweep(args: argparse.Namespace) -> int:
    from .loadgen import build_schedule, run_schedule
    from .obs.frontier import format_frontier, save_frontier, sweep_frontier

    spec = _spec_from_args(args)
    if spec is None:
        print("load sweep needs an SLO: --spec FILE or at least one "
              "objective flag (e.g. --p99-ms)", file=sys.stderr)
        return 2
    _reset_telemetry(args)
    if args.connect:
        from .loadgen import SocketDriver

        address, vertices = _remote_vertices(args)
    else:
        matcher, _ = _fit_for_load(args)
        vertices = matcher.vertex_ids
        service = _service_for_load(matcher, args)

    def run_point(rate: float) -> dict:
        config = _load_config_from_args(args, rate=rate)
        schedule = build_schedule(config, vertices)
        # fresh connection per point: each measurement starts from a
        # clean outstanding count
        target = SocketDriver(address) if args.connect else service
        report = run_schedule(target, schedule)
        return report.summary()

    doc = sweep_frontier(
        run_point, args.rates, spec,
        meta={"benchmark": args.benchmark, "seed": args.seed,
              "connect": args.connect,
              "process": args.process, "duration": args.duration},
        progress=lambda message: print(message, file=sys.stderr))
    print(format_frontier(doc))
    if args.output:
        saved = save_frontier(args.output, doc)
        print(f"wrote frontier artifact to {saved}", file=sys.stderr)
    return 0 if doc["knee"] is not None else 1


def _cmd_load_replay(args: argparse.Namespace) -> int:
    from .loadgen import run_schedule, schedule_from_traces
    from .obs.export import read_jsonl

    _reset_telemetry(args)
    schedule, skipped = schedule_from_traces(read_jsonl(args.trace),
                                             speedup=args.speedup)
    if skipped:
        print(f"skipped {skipped} non-replayable trace row(s) "
              f"(no recorded start or request shape)", file=sys.stderr)
    if not schedule:
        print(f"{args.trace} holds no replayable traces", file=sys.stderr)
        return 2
    for index, (_, request) in enumerate(schedule):
        request["id"] = f"replay-{index}"
    matcher, dataset = _fit_for_load(args)
    span_s = schedule[-1][0] if schedule else 0.0
    print(f"replaying {len(schedule)} requests over {span_s:.2f}s "
          f"(speedup {args.speedup:g}x) against {dataset.name}",
          file=sys.stderr)
    service = _service_for_load(matcher, args)
    report = run_schedule(service, schedule,
                          meta={"benchmark": args.benchmark,
                                "trace": str(args.trace),
                                "speedup": args.speedup,
                                "skipped": skipped})
    _emit_load_artifacts(report, args)
    return 0


def _cmd_obs_scrape(args: argparse.Namespace) -> int:
    import json as _json

    from .iosafe import atomic_write_bytes
    from .loadgen.socketdrv import parse_address
    from .netserve.protocol import request_op
    from .obs.export import SCHEMA_VERSION
    from .obs.promtext import render_openmetrics

    address = parse_address(args.connect)
    try:
        stats = request_op(address, "stats", timeout=args.timeout)
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"scrape of {address[0]}:{address[1]} failed: {exc}",
              file=sys.stderr)
        return 1
    metrics = list(stats.get("metrics") or [])
    spans = list(stats.get("spans") or [])
    shards = stats.get("shards")
    where = f"{address[0]}:{address[1]}"
    if isinstance(shards, dict):
        print(f"scraped {where}: {shards.get('answered')}/"
              f"{shards.get('total')} shards answered, "
              f"{len(metrics)} metric rows", file=sys.stderr)
    else:
        print(f"scraped {where}: {len(metrics)} metric rows "
              f"(single process)", file=sys.stderr)
    if args.out:
        # the same shape the exporter writes, so obs report / diff /
        # prom consume a live scrape and a --metrics-out file alike
        meta = {"type": "meta", "schema_version": SCHEMA_VERSION,
                "command": "obs scrape", "connect": args.connect,
                "captured_unix": stats.get("captured_unix")}
        if isinstance(shards, dict):
            meta["shards"] = shards
        rows = [meta] + metrics + spans
        payload = "".join(_json.dumps(row, sort_keys=True) + "\n"
                          for row in rows)
        atomic_write_bytes(args.out, payload.encode("utf-8"))
        print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    text = render_openmetrics(metrics + spans, prefix=args.prefix)
    if args.prom:
        atomic_write_bytes(args.prom, text.encode("utf-8"))
        print(f"wrote OpenMetrics snapshot to {args.prom}",
              file=sys.stderr)
    elif not args.out:
        sys.stdout.write(text)
    return 0


def _live_slo(spec, args: argparse.Namespace) -> int:
    """Judge a live fleet: scrape deltas over a sliding window."""
    import time as _time
    from collections import deque

    from .loadgen.socketdrv import parse_address
    from .netserve.protocol import request_op
    from .obs.scrape import combine_summaries, delta_summary
    from .obs.slo import evaluate_slo, format_slo

    address = parse_address(args.connect)

    def scrape() -> dict:
        return request_op(address, "stats", timeout=args.timeout)

    try:
        previous = scrape()
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"scrape of {address[0]}:{address[1]} failed: {exc}",
              file=sys.stderr)
        return 1
    per_shard_previous = previous.get("per_shard") or {}
    window: deque = deque(maxlen=args.windows)
    print(f"judging {address[0]}:{address[1]} against {spec.name!r}: "
          f"{args.windows} window(s) of {args.interval:g}s",
          file=sys.stderr)
    result = None
    for tick in range(1, args.windows + 1):
        _time.sleep(args.interval)
        try:
            current = scrape()
        except (OSError, RuntimeError, ValueError) as exc:
            print(f"scrape failed mid-run: {exc}", file=sys.stderr)
            return 1
        window.append(delta_summary(previous.get("metrics") or [],
                                    current.get("metrics") or [],
                                    router="shards" in current))
        per_shard_current = current.get("per_shard") or {}
        for slot in sorted(per_shard_current):
            before = per_shard_previous.get(slot)
            after = per_shard_current.get(slot)
            if not isinstance(after, dict):
                print(f"  shard {slot}: UNREACHABLE (scrape failed)",
                      file=sys.stderr)
                continue
            if not isinstance(before, dict):
                continue  # first sight of this shard: no delta yet
            shard_result = evaluate_slo(spec, delta_summary(
                before.get("metrics") or [], after.get("metrics") or []))
            print(format_slo(shard_result, label=f"shard {slot}"))
        result = evaluate_slo(spec, combine_summaries(window))
        print(format_slo(result,
                         label=f"fleet, window {tick}/{args.windows}"))
        previous, per_shard_previous = current, per_shard_current
    return 0 if result is not None and result.ok else 1


def _cmd_obs_slo(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from .obs.frontier import is_frontier_doc
    from .obs.slo import evaluate_slo, format_slo

    spec = _spec_from_args(args)
    if spec is None:
        print("obs slo needs an SLO: --spec FILE or at least one "
              "objective flag (e.g. --p99-ms)", file=sys.stderr)
        return 2
    if args.connect:
        return _live_slo(spec, args)
    if not args.path:
        print("obs slo needs a report file (or --connect HOST:PORT "
              "to judge a live fleet)", file=sys.stderr)
        return 2
    doc = _json.loads(Path(args.path).read_text(encoding="utf-8"))
    if is_frontier_doc(doc):
        knee = doc.get("knee")
        if knee is None:
            print("frontier has no knee: the lowest swept rate already "
                  "violated its SLOs", file=sys.stderr)
            return 1
        summary = knee.get("summary", {})
        print(f"evaluating frontier knee ({knee.get('rate'):g} req/s)")
    elif "summary" in doc:
        summary = doc["summary"]
    else:
        summary = doc  # already a bare summary dict
    result = evaluate_slo(spec, summary)
    print(format_slo(result))
    return 0 if result.ok else 1


def _cmd_index_build(args: argparse.Namespace) -> int:
    from .index import IVFPQConfig, save_index
    from .obs import configure_logging

    if args.log_level:
        configure_logging(args.log_level)
    bundle, dataset = _load(args.benchmark, args.seed)
    matcher = _make_matcher(args, bundle)
    matcher.fit(dataset.graph, dataset.images, dataset.entity_vertices)
    config = IVFPQConfig(
        nlist=args.nlist, nprobe=args.nprobe, pq_m=args.pq_m,
        pq_bits=args.pq_bits, refine=args.refine,
        kmeans_iterations=args.kmeans_iterations,
        train_sample=args.train_sample, seed=args.seed)
    index = matcher.build_index(config)
    saved = save_index(args.output, index,
                       meta={"benchmark": args.benchmark,
                             "method": args.method, "seed": args.seed})
    print(f"wrote index shard to {saved}")
    for key, value in index.describe().items():
        print(f"  {key:16s} {value}")
    return 0


def _cmd_index_stats(args: argparse.Namespace) -> int:
    from .index import ShardReader, load_index

    index = load_index(args.path, verify="full" if args.verify else "lazy")
    print(f"{args.path}:")
    for key, value in index.describe().items():
        print(f"  {key:16s} {value}")
    reader = ShardReader(args.path)
    print("sections:")
    for name in reader.section_names():
        entry = reader.section_entry(name)
        print(f"  {name:24s} {entry['dtype']:8s} "
              f"{str(tuple(entry['shape'])):16s} "
              f"{reader.section_nbytes(name):>12d} bytes")
    if args.verify:
        print("payload digests verified")
    return 0


def _cmd_clean(args: argparse.Namespace) -> int:
    import numpy as np

    from .core import CrossEM, CrossEMConfig, clean_repository
    from .vision.image import SyntheticImage

    bundle, dataset = _load(args.benchmark, args.seed)
    rng = np.random.default_rng(args.seed)
    images = list(dataset.images)
    for k in range(args.inject):
        pixels = (rng.random((24, 24, 3)) * 0.05).astype(np.float32)
        images.append(SyntheticImage(pixels, -1, 10_000 + k))
    matcher = CrossEM(bundle, CrossEMConfig(prompt="hard", epochs=0))
    matcher.fit(dataset.graph, images, dataset.entity_vertices)
    flags = clean_repository(matcher, z_threshold=args.z_threshold)
    print(f"{dataset.name}: flagged {len(flags)} of {len(images)} images "
          f"({args.inject} corrupted injected)")
    for flag in flags[:10]:
        injected = flag.image_position >= len(dataset.images)
        print(f"  @{flag.image_position:<5d} score={flag.score:+.3f} "
              f"{'<- injected' if injected else ''}")
    return 0


def _add_benchmark_argument(command: argparse.ArgumentParser) -> None:
    """Accept the benchmark either positionally or as ``--benchmark``."""
    command.add_argument("benchmark", nargs="?", choices=_BENCHMARKS,
                         help="benchmark to run on")
    command.add_argument("--benchmark", dest="benchmark_opt",
                         choices=_BENCHMARKS, help=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CrossEM cross-modal entity matching (ICDE 2025 repro)")
    parser.add_argument("--seed", type=int, default=0)
    commands = parser.add_subparsers(dest="command", required=True)

    stats = commands.add_parser("stats", help="print benchmark statistics")
    _add_benchmark_argument(stats)
    stats.set_defaults(func=_cmd_stats)

    match = commands.add_parser("match", help="fit a matcher and evaluate")
    _add_benchmark_argument(match)
    match.add_argument("--method", default="plus",
                       choices=("baseline", "hard", "soft", "plus"))
    match.add_argument("--epochs", type=_positive_int, default=10)
    match.add_argument("--lr", type=float, default=1e-3)
    match.add_argument("--test-fraction", type=_open_fraction, default=0.5)
    match.add_argument("--save", default=None,
                       help="path to save the tuned matcher (.npz)")
    match.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="write crash-safe training checkpoints here")
    match.add_argument("--checkpoint-every", type=_positive_int, default=1,
                       metavar="K", help="checkpoint cadence in epochs")
    match.add_argument("--resume", action="store_true",
                       help="resume from the newest valid checkpoint in "
                            "--checkpoint-dir (trains fresh if none)")
    match.add_argument("--log-level", default=None, choices=_LOG_LEVELS,
                       help="override REPRO_LOG_LEVEL for this run")
    match.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write metrics + span profile as JSONL")
    match.set_defaults(func=_cmd_match)

    serve = commands.add_parser(
        "serve", help="answer match queries as a JSON-lines service")
    _add_benchmark_argument(serve)
    serve.add_argument("--method", default="plus",
                       choices=("baseline", "hard", "soft", "plus"))
    serve.add_argument("--epochs", type=_positive_int, default=1,
                       help="training epochs before serving starts")
    serve.add_argument("--lr", type=float, default=1e-3)
    serve.add_argument("--top-k", type=_positive_int, default=1,
                       help="matches returned when a request names none")
    serve.add_argument("--trace-sample-rate", type=_unit_interval,
                       default=1.0, metavar="RATE",
                       help="head-sampling rate for request traces "
                            "(errors and sheds always kept)")
    serve.add_argument("--trace-capacity", type=_positive_int, default=256,
                       help="sampled traces retained in memory")
    serve.add_argument("--log-level", default=None, choices=_LOG_LEVELS,
                       help="override REPRO_LOG_LEVEL for this run")
    serve.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write metrics + spans + traces as JSONL on "
                            "exit (plus an OpenMetrics .prom snapshot)")
    serve.add_argument("--listen", type=_address, default=None,
                       metavar="HOST:PORT",
                       help="serve over TCP instead of stdin/stdout "
                            "(port 0 binds an ephemeral port); SIGTERM "
                            "drains gracefully")
    serve.add_argument("--conn-inflight", type=_positive_int, default=32,
                       help="per-connection outstanding-response cap "
                            "(--listen)")
    serve.add_argument("--drain-timeout-s", type=_positive_float,
                       default=30.0, metavar="S",
                       help="seconds the drain waits for in-flight work")
    serve.add_argument("--port-file", default=None, metavar="PATH",
                       help="write the bound HOST:PORT here once "
                            "listening (the shard supervisor's spawn "
                            "handshake; requires --listen)")
    serve.add_argument("--shard-slot", type=_non_negative_int,
                       default=None, metavar="SLOT",
                       help="serve only image positions p with "
                            "p %% shard-count == slot (requires "
                            "--shard-count)")
    serve.add_argument("--shard-count", type=_positive_int, default=None,
                       metavar="N",
                       help="total shards in the partition this worker "
                            "belongs to")
    serve.set_defaults(func=_cmd_serve)

    route = commands.add_parser(
        "route", help="scatter/gather router over N shard workers")
    _add_benchmark_argument(route)
    route.add_argument("--shards", type=_positive_int, default=3,
                       metavar="N", help="worker processes to spawn")
    route.add_argument("--listen", type=_address, required=True,
                       metavar="HOST:PORT",
                       help="router bind address (port 0 = ephemeral); "
                            "SIGTERM drains router then workers")
    route.add_argument("--method", default="hard",
                       choices=("baseline", "hard", "soft", "plus"))
    route.add_argument("--epochs", type=_positive_int, default=1,
                       help="training epochs in each worker")
    route.add_argument("--lr", type=float, default=1e-3)
    route.add_argument("--top-k", type=_positive_int, default=1,
                       help="worker default when a request names none")
    route.add_argument("--work-dir", default=None, metavar="DIR",
                       help="port/pid/log files per worker land here "
                            "(default: a fresh temp dir)")
    route.add_argument("--shard-timeout-ms", type=_positive_float,
                       default=2000.0, metavar="MS",
                       help="how long a deep request waits for any "
                            "one shard")
    route.add_argument("--conn-inflight", type=_positive_int, default=64,
                       help="per-connection outstanding-request cap")
    route.add_argument("--spawn-timeout-s", type=_positive_float,
                       default=300.0, metavar="S",
                       help="per-worker budget to fit and answer info")
    route.add_argument("--restart-backoff-s", type=_positive_float,
                       default=0.5, metavar="S",
                       help="first-restart backoff (doubles per death)")
    route.add_argument("--flap-max", type=_positive_int, default=5,
                       help="deaths in the flap window that mark a "
                            "worker dead for good")
    route.add_argument("--flap-window-s", type=_positive_float,
                       default=60.0, metavar="S",
                       help="sliding window the deaths are counted in")
    route.add_argument("--drain-timeout-s", type=_positive_float,
                       default=30.0, metavar="S",
                       help="seconds the drain waits for in-flight work")
    route.add_argument("--trace-sample-rate", type=_unit_interval,
                       default=1.0, metavar="RATE",
                       help="head-sampling rate for routed-request "
                            "traces (errors always kept)")
    route.add_argument("--trace-capacity", type=_positive_int,
                       default=256,
                       help="sampled traces retained in memory")
    route.add_argument("--log-level", default=None, choices=_LOG_LEVELS,
                       help="override REPRO_LOG_LEVEL for this run")
    route.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write router metrics as JSONL on exit "
                            "(plus an OpenMetrics .prom snapshot)")
    route.set_defaults(func=_cmd_route)

    # shared flag groups for the load subcommands (argparse parents)
    load_service = argparse.ArgumentParser(add_help=False)
    load_service.add_argument("--method", default="hard",
                              choices=("baseline", "hard", "soft", "plus"))
    load_service.add_argument("--epochs", type=_positive_int, default=1,
                              help="training epochs before the run")
    load_service.add_argument("--lr", type=float, default=1e-3)
    load_service.add_argument("--trace-sample-rate", type=_unit_interval,
                              default=0.0, metavar="RATE",
                              help="head-sampling rate for request traces "
                                   "(default 0: flagged traces only)")
    load_service.add_argument("--log-level", default=None,
                              choices=_LOG_LEVELS,
                              help="override REPRO_LOG_LEVEL for this run")
    load_service.add_argument("--output", default=None, metavar="PATH",
                              help="write the run artifact (JSON) here")
    load_service.add_argument("--metrics-out", default=None, metavar="PATH",
                              help="write metrics + spans + traces as "
                                   "JSONL (plus a .prom snapshot)")

    load_shape = argparse.ArgumentParser(add_help=False)
    load_shape.add_argument("--process", default="poisson",
                            choices=("poisson", "bursty", "uniform"),
                            help="arrival process of the offered workload")
    load_shape.add_argument("--duration", type=_positive_float, default=1.0,
                            metavar="S", help="run length in seconds")
    load_shape.add_argument("--burst-rate", type=_positive_float,
                            default=None, metavar="R",
                            help="bursty: on-phase rate (default 4x base)")
    load_shape.add_argument("--on-seconds", type=_positive_float,
                            default=0.25, metavar="S")
    load_shape.add_argument("--off-seconds", type=_positive_float,
                            default=0.25, metavar="S")
    load_shape.add_argument("--skew", type=_non_negative_float, default=1.1,
                            help="Zipf exponent of vertex popularity "
                                 "(0 = uniform)")
    load_shape.add_argument("--budget-ms", type=_positive_float,
                            default=None, metavar="MS",
                            help="deadline attached to every query")
    load_shape.add_argument("--bad-fraction", type=_unit_interval,
                            default=0.0, metavar="F",
                            help="fraction of dirty (unknown-vertex) "
                                 "queries")

    slo_flags = argparse.ArgumentParser(add_help=False)
    slo_flags.add_argument("--spec", default=None, metavar="FILE",
                           help="SLO spec as JSON (overrides the flags)")
    slo_flags.add_argument("--slo-name", default="cli",
                           help="name recorded on a flag-built spec")
    slo_flags.add_argument("--p50-ms", type=_positive_float, default=None)
    slo_flags.add_argument("--p95-ms", type=_positive_float, default=None)
    slo_flags.add_argument("--p99-ms", type=_positive_float, default=None)
    slo_flags.add_argument("--availability", type=_unit_interval,
                           default=None,
                           help="minimum answered fraction (ok + degraded)")
    slo_flags.add_argument("--max-degraded", type=_unit_interval,
                           default=None)
    slo_flags.add_argument("--max-shed", type=_unit_interval, default=None)

    load = commands.add_parser(
        "load", help="open-loop load generation against the serving layer")
    load_commands = load.add_subparsers(dest="load_command", required=True)

    load_run = load_commands.add_parser(
        "run", parents=[load_service, load_shape],
        help="drive one workload and report outcomes + latency")
    _add_benchmark_argument(load_run)
    load_run.add_argument("--rate", type=_positive_float, default=50.0,
                          metavar="R",
                          help="offered rate in requests/second "
                               "(base rate for bursty)")
    load_run.add_argument("--connect", type=_address, default=None,
                          metavar="HOST:PORT",
                          help="drive a running TCP server "
                               "(repro serve --listen) instead of "
                               "fitting an in-process service")
    load_run.set_defaults(func=_cmd_load_run)

    load_sweep = load_commands.add_parser(
        "sweep", parents=[load_service, load_shape, slo_flags],
        help="step offered rates and emit the SLO frontier + knee")
    _add_benchmark_argument(load_sweep)
    load_sweep.add_argument("--rates", type=_rate_list, required=True,
                            metavar="R1,R2,...",
                            help="ascending offered rates to sweep")
    load_sweep.add_argument("--connect", type=_address, default=None,
                            metavar="HOST:PORT",
                            help="sweep a running TCP server "
                                 "(repro serve --listen); one fresh "
                                 "connection per rate point")
    load_sweep.set_defaults(func=_cmd_load_sweep)

    load_replay = load_commands.add_parser(
        "replay", parents=[load_service],
        help="re-offer the workload recorded in an exported trace JSONL")
    load_replay.add_argument("trace",
                             help="metrics JSONL export holding trace rows")
    _add_benchmark_argument(load_replay)
    load_replay.add_argument("--speedup", type=_positive_float, default=1.0,
                             help="replay-rate multiplier (2 = twice as "
                                  "fast as recorded)")
    load_replay.set_defaults(func=_cmd_load_replay)

    obs = commands.add_parser(
        "obs",
        help="analyse exported telemetry (report / diff / slo / prom)")
    obs_commands = obs.add_subparsers(dest="obs_command", required=True)

    report = obs_commands.add_parser(
        "report", help="span profile + slowest traces of one export")
    report.add_argument("path", help="metrics JSONL file to report on")
    report.add_argument("--top", type=_positive_int, default=5,
                        help="slowest traces to render")
    report.set_defaults(func=_cmd_obs_report)

    diff = obs_commands.add_parser(
        "diff", help="compare two exports; non-zero exit on regression")
    diff.add_argument("old", help="baseline export (JSONL or bench JSON)")
    diff.add_argument("new", help="candidate export (JSONL or bench JSON)")
    diff.add_argument("--threshold-pct", type=_positive_float, default=25.0,
                      metavar="PCT",
                      help="relative move on a watched metric (up on "
                           "--watch, down on --watch-drop) that counts as a "
                           "regression")
    diff.add_argument("--min-delta", type=_non_negative_float, default=0.0,
                      metavar="ABS",
                      help="ignore moves smaller than this (noise "
                           "floor for micro-benchmarks)")
    diff.add_argument("--watch", action="append", default=None,
                      metavar="GLOB",
                      help="metric-name glob where bigger is worse "
                           "(repeatable; default: time-shaped names)")
    diff.add_argument("--watch-drop", action="append", default=None,
                      metavar="GLOB",
                      help="metric-name glob where smaller is worse, e.g. "
                           "a speedup or a recall (repeatable; default: "
                           "none)")
    diff.add_argument("--changed-only", action="store_true",
                      help="hide metrics whose value did not move")
    diff.set_defaults(func=_cmd_obs_diff)

    slo = obs_commands.add_parser(
        "slo", parents=[slo_flags],
        help="evaluate an SLO spec against a load report, frontier, or "
             "live fleet (--connect); non-zero exit on violation")
    slo.add_argument("path", nargs="?", default=None,
                     help="load report JSON, frontier artifact, or bare "
                          "summary dict (omit with --connect)")
    slo.add_argument("--connect", type=_address, default=None,
                     metavar="HOST:PORT",
                     help="judge a running server/router from live "
                          "scrape deltas instead of a file")
    slo.add_argument("--interval", type=_positive_float, default=5.0,
                     metavar="S",
                     help="seconds between live scrapes (--connect)")
    slo.add_argument("--windows", type=_positive_int, default=3,
                     help="scrape deltas in the sliding judgement "
                          "window; also the live run's length")
    slo.add_argument("--timeout", type=_positive_float, default=10.0,
                     metavar="S", help="per-scrape socket timeout")
    slo.set_defaults(func=_cmd_obs_slo)

    scrape = obs_commands.add_parser(
        "scrape", help="one-shot live scrape of a running server or "
                       "router (stats op); OpenMetrics to stdout")
    scrape.add_argument("--connect", type=_address, required=True,
                        metavar="HOST:PORT",
                        help="server (repro serve --listen) or router "
                             "(repro route) to scrape")
    scrape.add_argument("--prom", default=None, metavar="FILE",
                        help="write the OpenMetrics text here instead "
                             "of stdout")
    scrape.add_argument("--out", default=None, metavar="FILE",
                        help="also write the raw rows as metrics JSONL "
                             "(consumable by obs report / diff / prom)")
    scrape.add_argument("--prefix", default="repro",
                        help="metric name prefix for OpenMetrics")
    scrape.add_argument("--timeout", type=_positive_float, default=10.0,
                        metavar="S", help="socket timeout")
    scrape.set_defaults(func=_cmd_obs_scrape)

    prom = obs_commands.add_parser(
        "prom", help="render an export as OpenMetrics text")
    prom.add_argument("path", help="metrics JSONL file (or bench JSON)")
    prom.add_argument("-o", "--output", default=None,
                      help="write here instead of stdout")
    prom.add_argument("--prefix", default="repro",
                      help="metric name prefix")
    prom.set_defaults(func=_cmd_obs_prom)

    index = commands.add_parser(
        "index", help="build and inspect ANN retrieval index shards")
    index_commands = index.add_subparsers(dest="index_command",
                                          required=True)

    index_build = index_commands.add_parser(
        "build", help="fit a matcher and build an IVF-PQ shard over "
                      "its image embeddings")
    _add_benchmark_argument(index_build)
    index_build.add_argument("--method", default="hard",
                             choices=("baseline", "hard", "soft", "plus"))
    index_build.add_argument("--epochs", type=_positive_int, default=1,
                             help="training epochs before indexing")
    index_build.add_argument("--lr", type=float, default=1e-3)
    index_build.add_argument("--output", required=True, metavar="SHARD",
                             help="path of the REPROIX1 shard to write")
    index_build.add_argument("--nlist", type=_positive_int, default=64,
                             help="coarse k-means cells")
    index_build.add_argument("--nprobe", type=_positive_int, default=8,
                             help="default cells probed per query")
    index_build.add_argument("--pq-m", type=_positive_int, default=8,
                             help="product-quantizer subspaces")
    index_build.add_argument("--pq-bits", type=int, default=8,
                             choices=range(1, 9), metavar="BITS",
                             help="bits per PQ code (1-8)")
    index_build.add_argument("--refine", type=_positive_int, default=8,
                             help="exact re-rank shortlist, in "
                                  "multiples of k")
    index_build.add_argument("--kmeans-iterations", type=_positive_int,
                             default=15, metavar="N",
                             help="k-means refinement iterations")
    index_build.add_argument("--train-sample", type=_positive_int,
                             default=16384, metavar="N",
                             help="vectors sampled for quantizer "
                                  "training")
    index_build.add_argument("--log-level", default=None,
                             choices=_LOG_LEVELS,
                             help="override REPRO_LOG_LEVEL for this run")
    index_build.set_defaults(func=_cmd_index_build)

    index_stats = index_commands.add_parser(
        "stats", help="describe an index shard and its sections")
    index_stats.add_argument("path", help="REPROIX1 shard to inspect")
    index_stats.add_argument("--verify", action="store_true",
                             help="stream full section digests instead "
                                  "of the lazy structural check")
    index_stats.set_defaults(func=_cmd_index_stats)

    clean = commands.add_parser("clean", help="run the cleaning detectors")
    _add_benchmark_argument(clean)
    clean.add_argument("--inject", type=int, default=3,
                       help="corrupted images to inject")
    clean.add_argument("--z-threshold", type=float, default=1.5)
    clean.set_defaults(func=_cmd_clean)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "benchmark_opt", None):
        args.benchmark = args.benchmark_opt
    if getattr(args, "benchmark", "-") is None and \
            not getattr(args, "connect", None):
        # --connect runs need no local fit, hence no benchmark
        parser.error("a benchmark is required (positional or --benchmark)")
    if getattr(args, "watch_drop", None) and args.threshold_pct >= 100:
        # a fall is at most 100 %, so that gate could never fail
        parser.error("--watch-drop needs --threshold-pct below 100")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
