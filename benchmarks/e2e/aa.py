"""A/A check: does the benchmark agree with itself on one checkout?

    python3 benchmarks/e2e/aa.py [--runs 10] [--sets 2] [--first-seed 0]
        [--workload NAME]... [--seconds S]

Runs ``run.py`` ``--runs`` times per workload, each time with another
seed, and repeats that ``--sets`` times.  For every end-to-end metric
it prints the spread of each set — the distance between the first and
third quartile of the runs as a share of their median — and how much
worse each later set's median is than the first's, against the bound
``BENCHMARK.json`` gives the metric.  Exits non-zero when a spread
(``setup_s`` excepted) or a median drift exceeds its bound, or when any
run fails its oracle.  The same commit is on both sides: no number here
is a comparison with another commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from typing import Dict, List

import procs
from run import WORKLOADS, load_contract


def spread(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def worsening(metric: dict, first: float, later: float) -> float:
    """How much worse ``later`` is than ``first``, as a share of
    ``first`` (negative when it is better)."""
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def run_once(workload: str, seed: int, seconds: float) -> dict:
    answer = subprocess.run(
        [sys.executable, str(procs.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=procs.ROOT, capture_output=True, text=True)
    if answer.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{answer.returncode}:\n{answer.stdout[-2000:]}"
                           f"\n{answer.stderr[-2000:]}")
    return json.loads(answer.stdout.strip().splitlines()[-1])


def main() -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]))
    args = parser.parse_args()
    if args.runs < 2 or args.sets < 1:
        parser.error("need at least two runs and one set")
    seeds = range(args.first_seed, args.first_seed + args.runs)
    disagreements = 0
    for workload in args.workload or WORKLOADS:
        sets: List[Dict[str, List[float]]] = []
        for index in range(args.sets):
            values: Dict[str, List[float]] = {}
            for seed in seeds:
                started = time.perf_counter()
                result = run_once(workload, seed, args.seconds)
                wall_s = time.perf_counter() - started
                for name, entry in result["metrics"].items():
                    values.setdefault(name, []).append(entry["value"])
                print(f"# {workload} set {index} seed {seed} "
                      f"({wall_s:.1f} s): " + " ".join(
                    f"{name}={entry['value']:.6g}"
                    for name, entry in result["metrics"].items()),
                    flush=True)
            sets.append(values)
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = [statistics.median(s[name]) for s in sets]
            spreads = [spread(s[name]) for s in sets]
            drifts = [worsening(metric, medians[0], m) for m in medians[1:]]
            bad = any(d > bound for d in drifts) or (
                name != "setup_s" and any(s > bound for s in spreads))
            disagreements += bad
            print(f"{workload:11s} {name:17s} bound {bound:5.3f}  "
                  f"medians {' '.join(f'{m:.6g}' for m in medians)}  "
                  f"spreads {' '.join(f'{s:.4f}' for s in spreads)}  "
                  f"drift {' '.join(f'{d:+.4f}' for d in drifts) or '-'}  "
                  f"{'DISAGREES' if bad else 'ok'}", flush=True)
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
