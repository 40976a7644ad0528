"""One command, one workload, every metric by name.

    python3 benchmarks/e2e/run.py --workload NAME [--seed N]
        [--seconds S] [--trace 0|1]

Builds the workload's fixed world from ``--seed``, runs it against the
public API of ``src/repro`` for about ``--seconds`` of measured work,
checks every output against an oracle, prints each metric with its
unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` measures the end-to-end metrics with the benchmark's own
spans off; ``--trace 1`` runs the layer probes as well, reports the
per-layer metrics, and writes the spans to ``out/trace-<workload>.json``.
Names, units and regression bounds live in ``BENCHMARK.json``; see
``README.md`` beside this file for what each one means.
"""

from __future__ import annotations

import time

BOOTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import procs  # noqa: E402  (sits beside this file)

WORKLOADS = ("tune_plus", "index_bulk", "serve_soft", "route_hard")
#: wall-clock cap of one run; a cold bundle cache pre-trains first
CAP_WARM_S = 170.0
CAP_COLD_S = 850.0


def load_contract() -> dict:
    return json.loads((procs.ROOT / "BENCHMARK.json").read_text())


def parse_arguments(contract: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main() -> int:
    if not (procs.ROOT / "src" / "repro").is_dir():
        print(f"the program under test is missing: {procs.ROOT / 'src'} "
              f"holds no 'repro' package", file=sys.stderr)
        return 2
    contract = load_contract()
    args = parse_arguments(contract)
    procs.pin_blas()
    sys.path.insert(0, str(procs.ROOT / "src"))

    from harness import Run
    from offline import index_bulk, tune_plus
    from serving import serve
    from spans import SpanRecorder
    import worlds

    boot_s = time.perf_counter() - BOOTED
    recorder = SpanRecorder(enabled=bool(args.trace))
    run = Run(workload=args.workload, seed=args.seed, seconds=args.seconds,
              trace=bool(args.trace), boot_s=boot_s, recorder=recorder,
              fleet=procs.Fleet())
    workload = {"tune_plus": tune_plus, "index_bulk": index_bulk,
                "serve_soft": serve, "route_hard": serve}[args.workload]
    # The bundle is the "downloaded checkpoint": the first run in a
    # checkout pre-trains it, whatever its workload, before any clock
    # that feeds a metric starts.
    cold = not worlds.bundle_is_cached()
    started = time.perf_counter()
    with procs.Watchdog(CAP_COLD_S if cold else CAP_WARM_S, run.fleet):
        if cold:
            worlds.load_bundle()
        outcome = workload(run)
    wall_s = time.perf_counter() - started

    chosen = contract["per_layer"] if args.trace else contract["end_to_end"]
    measured = dict(outcome.end_to_end)
    measured.update(outcome.per_layer)
    if args.trace:
        measured["clip.zoo.pretrain_cold_s"] = worlds.pretrain_cold_seconds()
    missing = [m["name"] for m in contract["end_to_end"]
               if m["name"] not in outcome.end_to_end]
    if missing:
        print(f"workload {args.workload} did not measure {missing}",
              file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"]
             for m in contract["end_to_end"] + contract["per_layer"]}
    for name in sorted(measured):
        print(f"{name:46s} {measured[name]:>16.6g} {units.get(name, '?')}")
    for problem in outcome.problems:
        print(f"FAILED  {problem}")
    for flag in outcome.detail.get("flags", ()):
        print(f"FLAG    {flag}")
    # a layer that did no work in this workload reads 0
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in chosen}
    result = {"correct": outcome.failed == 0,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "metrics": metrics}

    procs.OUT_DIR.mkdir(parents=True, exist_ok=True)
    mode = "full" if args.seconds >= contract["run_seconds"] else "smoke"
    report = dict(result, workload=args.workload, mode=mode,
                  trace=bool(args.trace), wall_s=wall_s,
                  measured=measured, detail=outcome.detail,
                  problems=outcome.problems,
                  environment=procs.environment(args.seed, args.seconds))
    (procs.OUT_DIR / f"report-{args.workload}.json").write_text(
        json.dumps(report, indent=1, default=float))
    if args.trace:
        recorder.write(procs.OUT_DIR / f"trace-{args.workload}.json",
                       {"workload": args.workload, "seed": args.seed,
                        "seconds": args.seconds})
    print(json.dumps(result))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
