"""The two online workloads: ``serve_soft`` and ``route_hard``.

Both start real server processes with program defaults, drive them
over one TCP connection from this process, and check every response
against an in-process ``MatchService`` over the identically built,
unsharded world.
"""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

import driver
import replay
import worlds
from harness import Outcome, Run
from pace import Pacer, Series, quiet_slices
from procs import Child, Fleet, cpu_seconds, peak_rss_mb
from repro.serve import MatchService, ServeConfig

__all__ = ["SPECS", "PHASE_SHARE", "serve"]


@dataclasses.dataclass(frozen=True)
class Spec:
    world: str
    shards: int          # 0: one unsharded server, no router
    skew: float          # Zipf exponent of the vertex mix (0: uniform)
    lo_rate: float       # requests per second
    hi_rate: float
    limit_ms: float      # latency limit of the SLO share


# The ``hi`` rates keep the fleet a third to 40 % busy (the soft
# server is one GIL-bound process at 1.2-1.8 ms of CPU per request; the
# routed fleet spends 5.3 ms per request over two cores).  This 2-vCPU
# VM slows by a third to a half for minutes at a time; at 400 and 250
# req/s such a spell tipped ``hi`` into a growing backlog, SLO shares of
# 0.6-0.9 and requests shed at the connection cap, and at 150 req/s the
# routed ``hi`` median still spread by 26 % over ten runs: the phase
# measured the neighbours, not the program.
SPECS = {
    # Soft prompts: every request runs the text tower, the 960-wide
    # score row is negligible.  Hot vertices repeat (Zipf 1.1).
    "serve_soft": Spec(world="soft", shards=0, skew=1.1,
                       lo_rate=100.0, hi_rate=250.0, limit_ms=25.0),
    # Hard prompts behind a 2-shard router: text encode is a cache
    # hit, each worker scores a 19,200-wide row.  No vertex repeats
    # more than chance (uniform mix).
    "route_hard": Spec(world="hard", shards=2, skew=0.0,
                       lo_rate=100.0, hi_rate=125.0, limit_ms=60.0),
}

#: how ``--seconds`` is split: at 20 s, ``lo`` sends 800 requests and
#: ``hi`` 625-1,250, and the closed loop runs 5 s
PHASE_SHARE = {"warm": 0.05, "lo": 0.40, "hi": 0.25,
               "cap_warm": 0.05, "cap": 0.25}
#: Every phase is sent in bursts of about this many seconds: after
#: each burst the driver waits for the last answer, then times the
#: reference kernel on every CPU while the fleet is idle.  A burst is
#: one slice (see ``pace.py``).
BURST_S = {"warm": 1.0, "lo": 0.5, "hi": 0.5, "cap_warm": 1.0, "cap": 0.5}
#: the un-routed comparison phase of ``route_hard`` (trace runs only)
DIRECT_SHARE = 0.10
OUTSTANDING = 16
#: upper bound on what the closed loop can consume, to size its queue
MAX_CAPACITY_PER_S = 4000.0
READY_TIMEOUT_S = 120.0


def serve(run: Run) -> Outcome:
    spec = SPECS[run.workload]
    out = Outcome()
    try:
        _serve(run, spec, out)
    except BaseException:
        run.fleet.stop_all(graceful=False)
        raise
    return out


def _serve(run: Run, spec: Spec, out: Outcome) -> None:
    fleet = run.fleet
    pacer = Pacer(every_cpu=True)
    # -- set-up: the fleet, timed from first spawn to an open front door ------
    # (the reference kernel ticks four times a second meanwhile)
    pacer.tick()
    started = time.perf_counter()
    workers = _start_workers(run, spec, fleet, pacer.tick)
    front = workers[0]
    servers = list(workers)
    if spec.shards:
        front = fleet.spawn("router", ["router"] + [
            arg for worker in workers
            for arg in ("--endpoint", "%s:%d" % worker.address)])
        front.wait_ready(READY_TIMEOUT_S, pacer.tick)
        servers.append(front)
    setup_s = time.perf_counter() - started
    pacer.tick()
    out.end_to_end["setup_s"] = setup_s / statistics.fmean(
        slowdown for _, slowdown in pacer.ticks)

    # -- the oracle: same world, unsharded, in this process -------------------
    bundle, _ = worlds.load_bundle()
    dataset = worlds.relational_world(
        bundle, worlds.WORLDS[spec.world]["images_per_concept"], run.seed)
    matcher = worlds.serving_matcher(bundle, dataset, spec.world)
    oracle = MatchService(matcher).warmup()
    vertices = dataset.entity_vertices

    # -- inputs, all drawn before anything is timed ---------------------------
    rng = np.random.default_rng(run.seed)
    rates = {"warm": spec.lo_rate, "lo": spec.lo_rate, "hi": spec.hi_rate,
             "direct": spec.lo_rate}
    shares = dict(PHASE_SHARE)
    if spec.shards and run.trace:
        shares["direct"] = DIRECT_SHARE
    #: per phase, one (queries, offsets) per burst; a closed-loop burst
    #: has no offsets and more queries than it can consume
    plan: Dict[str, List[Tuple[List[driver.Query], Optional[np.ndarray]]]] \
        = {}
    burst_s: Dict[str, float] = {}
    for name, share in shares.items():
        seconds = share * run.seconds
        bursts = max(1, round(seconds / BURST_S.get(name, 0.5)))
        burst_s[name] = seconds / bursts
        plan[name] = []
        for _ in range(bursts):
            if name in rates:
                offsets = driver.poisson_offsets(rng, rates[name],
                                                 burst_s[name])
                count = len(offsets)
            else:
                offsets = None
                count = int(MAX_CAPACITY_PER_S * burst_s[name])
            plan[name].append((driver.draw_queries(
                rng, vertices, count, spec.skew), offsets))
    distinct = sorted({q for name, bursts in plan.items() if name != "direct"
                       for queries, _ in bursts for q in queries})
    expected = {query: _oracle_matches(oracle, query) for query in distinct}

    # -- phases ----------------------------------------------------------------
    # One idle-class spinner per CPU while latencies are measured.  An
    # idle virtual CPU of this VM takes anything from 0.1 to 15 ms to
    # wake, and a served request wakes four or five threads in turn;
    # with the CPUs kept awake the spread of the ``hi`` median over ten
    # ``serve_soft`` runs fell from 18 % to 3-4 % and generator lag p99
    # from 3-5 ms to about 2.  SCHED_IDLE tasks run only when nothing
    # else wants the CPU and do not hide it from wake-up placement.
    for cpu_index in range(os.cpu_count() or 1):
        fleet.spawn(f"awake{cpu_index}", ["awake"]).wait_ready(
            READY_TIMEOUT_S)
    conn = driver.Connection(front.address)
    phases: Dict[str, driver.PhaseResult] = {}
    scrapes: Dict[str, dict] = {}
    cpu: Dict[str, Dict[str, float]] = {}
    first_id = 0

    def mark(label: str) -> None:
        """Trace runs only: scrape the fleet's counters and CPU clocks
        at a phase boundary (outside every timed region)."""
        if run.trace:
            scrapes[label] = conn.call({"op": "stats", "id": label})["stats"]
            cpu[label] = {child.name: cpu_seconds(child.process.pid)
                          for child in servers}

    #: slice of every request of a phase, aligned with its queries
    where: Dict[str, np.ndarray] = {}

    def run_phase(name: str, connection: driver.Connection) -> None:
        nonlocal first_id
        bursts, slices = [], []
        pacer.tick()
        for queries, offsets in plan[name]:
            if offsets is None:
                burst = driver.run_closed_loop(
                    connection, name, queries, first_id, OUTSTANDING,
                    burst_s[name])
            else:
                burst = driver.run_open_loop(connection, name, queries,
                                             offsets, first_id)
            first_id += len(queries)
            bursts.append(burst)
            slices.append(pacer.tick())
        phases[name] = driver.join(name, bursts)
        where[name] = np.concatenate(
            [np.full(len(burst.queries), index, dtype=np.int64)
             for burst, index in zip(bursts, slices)])

    for name in ("warm", "lo", "hi", "cap_warm", "cap"):
        mark(f"before_{name}")
        run_phase(name, conn)
    mark("after_cap")
    conn.close()

    correct = {name: driver.score_responses(phase, expected)
               for name, phase in phases.items()}
    if "direct" in plan:
        direct = driver.Connection(workers[0].address)
        run_phase("direct", direct)
        direct.close()
        _score_direct(out, matcher, phases, correct)
    rss = {child.name: peak_rss_mb(child.process.pid) for child in servers}
    codes = fleet.stop_all(graceful=True)

    # -- end-to-end metrics ----------------------------------------------------
    lo, hi, cap = phases["lo"], phases["hi"], phases["cap"]
    slowdowns = pacer.slowdowns
    latency = {}
    for name in ("lo", "hi"):
        latency[name] = Series()
        latency[name].values = phases[name].latency_ms[correct[name]].tolist()
        latency[name].slices = where[name][correct[name]].tolist()
    within = correct["hi"] & (hi.latency_ms <= spec.limit_ms)
    # the closed loop's rate, burst by burst: correct answers that came
    # in before the burst stopped sending
    served_per_s = Series(rate=True)
    for index in np.unique(where["cap"]):
        burst = where["cap"] == index
        stop_at = np.nanmin(cap.intended_at[burst]) + burst_s["cap"]
        served_per_s.add(float(np.sum(
            correct["cap"][burst] & (cap.received_at[burst] <= stop_at)))
            / burst_s["cap"], index)
    out.end_to_end.update({
        "latency_p50_ms": latency["lo"].steady(slowdowns),
        "heavy_p50_ms": latency["hi"].steady(slowdowns),
        "quality": float(within.sum()) / len(hi.queries),
        "throughput_per_s": served_per_s.steady(slowdowns),
    })

    for name, phase in phases.items():
        wrong = int((~correct[name]).sum())
        out.attempted += len(phase.queries)
        out.failed += wrong
        if wrong:
            out.problems.append(f"{run.workload}/{name}: {wrong} of "
                                f"{len(phase.queries)} requests lost, "
                                f"refused, degraded or unequal to the oracle")
    for name, code in codes.items():
        out.check(code == 0, f"{run.workload}: child {name} exited {code} "
                             f"instead of draining cleanly")

    # -- validity of the instrument -------------------------------------------
    flags = []
    for name in ("lo", "hi"):
        lag = driver.percentile(phases[name].lag_ms, 99.0)
        out.per_layer[f"driver.lag_p99_ms.{name}"] = lag
        if lag > 2.0:
            flags.append(f"generator_late:{name}")
        tail = driver.quantiles(phases[name].latency_ms[correct[name]])
        out.per_layer[f"driver.{name}_p99_ms"] = tail["p99"]
    thirds = np.array_split(hi.latency_ms[correct["hi"]], 3)
    backlog = float(np.median(thirds[2]) / np.median(thirds[0]))
    if backlog > 1.5:
        flags.append("growing_backlog:hi")
    out.per_layer.update({
        "driver.max_lag_ms": float(max(phases[n].lag_ms.max()
                                       for n in ("warm", "lo", "hi"))),
        "driver.sent": float(sum(len(p.queries) for p in phases.values())),
        "driver.hi_backlog_ratio": backlog,
        "driver.fail_share": out.failed / out.attempted,
    })

    if run.trace:
        _fleet_layers(out, spec, phases, scrapes, cpu, rss, workers, front)
        replay.probe(run, out, spec.shards, matcher, oracle, lo.queries,
                     lo_p50_ms=out.per_layer.get(
                         "driver.direct_p50_ms",
                         out.end_to_end["latency_p50_ms"]))
    out.detail = {
        "flags": flags,
        "phases": {name: {
            "seconds": phase.ended_at - phase.started_at,
            "sent": len(phase.queries),
            "correct": int(correct[name].sum()),
            "latency_ms": driver.quantiles(
                phase.latency_ms[correct[name]]) if correct[name].any()
            else None,
        } for name, phase in phases.items()},
        "children": {child.name: child.ready["timings"]
                     for child in servers},
        "distinct_queries": len(distinct),
        "setup_s_raw": setup_s,
        "slowdowns": list(slowdowns),
        "ticks": pacer.ticks,
        "series": {name: {"values": series.values, "slices": series.slices}
                   for name, series in (("latency_p50_ms", latency["lo"]),
                                        ("heavy_p50_ms", latency["hi"]),
                                        ("throughput_per_s", served_per_s))},
    }
    out.per_layer.update({
        "box.slowdown_p50": float(np.median(slowdowns)),
        "box.slowdown_quiet": float(np.median(
            [slowdowns[i] for i in quiet_slices(slowdowns)])),
        "raw.latency_p50_ms": latency["lo"].raw(),
        "raw.heavy_p50_ms": latency["hi"].raw(),
        "raw.throughput_per_s": served_per_s.raw(),
    })


def _start_workers(run: Run, spec: Spec, fleet: Fleet,
                   meanwhile) -> List[Child]:
    workers = []
    for slot in range(max(1, spec.shards)):
        arguments = ["worker", "--world", spec.world,
                     "--seed", str(run.seed)]
        if spec.shards:
            arguments += ["--slot", str(slot), "--count", str(spec.shards)]
        workers.append(fleet.spawn(f"worker{slot}", arguments))
    for worker in workers:
        worker.wait_ready(READY_TIMEOUT_S, meanwhile)
    return workers


def _oracle_matches(service: MatchService, query: driver.Query) -> str:
    vertex, top_k = query
    response = service.handle_batch(
        [{"id": 0, "vertex": vertex, "top_k": top_k}])[0]
    return json.dumps(response["matches"])


def _score_direct(out: Outcome, matcher, phases, correct) -> None:
    """``lo``-rate traffic straight to shard worker 0, bypassing the
    router; what the router adds is the routed ``lo`` median minus this
    one.  The oracle is a shard-0 service over the same matcher."""
    phase = phases["direct"]
    shard = MatchService(matcher, config=ServeConfig(
        shard_slot=0, shard_count=2)).warmup()
    expected = {query: _oracle_matches(shard, query)
                for query in sorted(set(phase.queries))}
    correct["direct"] = driver.score_responses(phase, expected)
    out.per_layer["driver.direct_p50_ms"] = driver.percentile(
        phase.latency_ms[correct["direct"]], 50.0)


# -- per-layer numbers read off the running fleet -----------------------------
def _totals(stats: dict) -> Dict[str, Dict[str, float]]:
    """Metric rows of one scrape folded by name: counter values and
    histogram count/sum added up over shard labels."""
    totals: Dict[str, Dict[str, float]] = {}
    for row in stats.get("metrics", ()):
        entry = totals.setdefault(row["name"],
                                  {"value": 0.0, "count": 0.0, "sum": 0.0})
        for field in entry:
            entry[field] += float(row.get(field) or 0.0)
    return totals


def _fleet_layers(out: Outcome, spec: Spec, phases, scrapes, cpu, rss,
                  workers: List[Child], front: Child) -> None:
    totals = {label: _totals(stats) for label, stats in scrapes.items()}

    def delta(name: str, field: str, before: str, after: str) -> float:
        zero = {"value": 0.0, "count": 0.0, "sum": 0.0}
        return totals[after].get(name, zero)[field] \
            - totals[before].get(name, zero)[field]

    def mean_batch(before: str, after: str) -> float:
        count = delta("netserve.batch.size", "count", before, after)
        return delta("netserve.batch.size", "sum", before, after) / count \
            if count else 0.0

    whole = ("before_warm", "after_cap")
    requests = delta("serve.requests_total", "value", *whole)
    flushes = delta("netserve.batch.flush_total", "value", *whole)
    bypasses = delta("netserve.batch.bypass_total", "value", *whole)
    layers = out.per_layer
    layers.update({
        "serve.service.tier_full_share":
            delta("serve.tier.full", "value", *whole) / requests
            if requests else 0.0,
        "serve.service.shed_total":
            delta("netserve.shed_total", "value", *whole)
            + delta("serve.error.overloaded", "value", *whole),
        "netserve.batcher.mean_batch_lo": mean_batch("before_lo", "before_hi"),
        "netserve.batcher.mean_batch_hi": mean_batch("before_hi",
                                                     "before_cap_warm"),
        "netserve.batcher.mean_batch_cap": mean_batch("before_cap",
                                                      "after_cap"),
        "netserve.batcher.bypass_share":
            bypasses / (bypasses + flushes) if bypasses + flushes else 0.0,
        "netserve.server.rss_mb": max(rss[w.name] for w in workers),
    })
    boundaries = {"lo": ("before_lo", "before_hi"),
                  "hi": ("before_hi", "before_cap_warm")}
    for name, (before, after) in boundaries.items():
        sent = len(phases[name].queries)
        worker_cpu = sum(cpu[after][w.name] - cpu[before][w.name]
                         for w in workers)
        layers[f"netserve.server.cpu_ms_per_req.{name}"] = \
            1e3 * worker_cpu / sent
        if spec.shards:
            layers[f"shard.router.cpu_ms_per_req.{name}"] = 1e3 * (
                cpu[after][front.name] - cpu[before][front.name]) / sent
    if spec.shards:
        slots = range(spec.shards)
        layers.update({
            "shard.router.rss_mb": rss[front.name],
            "shard.router.hedges": sum(
                delta(f"shard.{s}.hedges_total", "value", *whole)
                for s in slots),
            "shard.router.partials":
                delta("shard.router.partial_total", "value", *whole),
            "shard.client.late_total": sum(
                delta(f"shard.{s}.late_total", "value", *whole)
                for s in slots),
            "shard.router.added_ms_p50":
                out.end_to_end["latency_p50_ms"]
                - layers["driver.direct_p50_ms"],
        })
        # the router's view of each shard, cumulative up to the end of
        # ``lo`` (a reservoir median has no window): the slower shard
        # sets the routed time
        for row in scrapes["before_hi"].get("metrics", ()):
            for slot in slots:
                if row["name"] == f"shard.{slot}.latency_ms":
                    layers[f"shard.worker.p50_ms.{slot}"] = float(row["p50"])
