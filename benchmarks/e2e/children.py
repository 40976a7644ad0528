"""Entry point of the server processes the serving workloads start.

``children.py worker --world soft|hard --seed N [--slot I --count C]``
builds the world, fits the matcher, warms a ``MatchService`` and serves
it behind a ``NetServer``; ``children.py router --endpoint HOST:PORT ...``
runs a ``ShardRouter`` over a static endpoint table.  Both use program
defaults for everything but the bind address and the shard slot, print
one JSON ready line on stdout, and drain on SIGTERM.

``children.py awake`` is not part of the program: it spins in the
idle scheduling class so that a virtual CPU never goes idle while latencies
are being measured (see where ``serving.py`` starts it).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time
from typing import List, Optional, Tuple

import procs  # sits beside this file

STARTED = time.perf_counter()


class StaticEndpoints:
    """A fixed endpoint table: the fleet the benchmark started."""

    def __init__(self, addresses: List[Tuple[str, int]]) -> None:
        self.addresses = addresses
        self.count = len(addresses)

    def address_of(self, slot: int) -> Optional[Tuple[str, int]]:
        return self.addresses[slot]

    def live_count(self) -> int:
        return self.count


def exit_with_parent() -> None:
    """The benchmark holds the other end of stdin and never writes:
    EOF means it is gone, and a server nobody will stop must not stay
    behind to disturb the next run."""
    def watch() -> None:
        # the raw descriptor: a buffered reader's lock would be held
        # at interpreter shutdown
        while os.read(0, 4096):
            pass
        os._exit(5)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def announce(bound: Tuple[str, int], **timings: float) -> None:
    timings["ready_s"] = time.perf_counter() - STARTED
    print(json.dumps({"host": bound[0], "port": bound[1],
                      "timings": timings}), flush=True)


def run_worker(args: argparse.Namespace) -> int:
    import worlds
    from repro.netserve import NetServeConfig, NetServer
    from repro.serve import MatchService, ServeConfig

    # One CPU per server process, worker ``i`` on CPU ``i``, as
    # ``taskset`` would at deployment.  Left to the scheduler, the
    # threads of a GIL-bound server bounce between the CPUs (the closed
    # loop of ``serve_soft`` answers 2,000 requests a second instead of
    # 2,900) and two shard workers share one CPU for half a second at a
    # time (the ``lo`` median of such a burst is 10 ms instead of 6.3).
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[(args.slot or 0) % len(cpus)]})
    imported = time.perf_counter()
    bundle, bundle_s = worlds.load_bundle()
    built = time.perf_counter()
    dataset = worlds.relational_world(
        bundle, worlds.WORLDS[args.world]["images_per_concept"], args.seed)
    fitting = time.perf_counter()
    matcher = worlds.serving_matcher(bundle, dataset, args.world)
    warming = time.perf_counter()
    service = MatchService(matcher, config=ServeConfig(
        shard_slot=args.slot, shard_count=args.count)).warmup()
    warmed = time.perf_counter()
    server = NetServer(service, NetServeConfig(host="127.0.0.1", port=0))
    return server.run(ready=lambda bound: announce(
        bound, import_s=imported - STARTED, bundle_load_s=bundle_s,
        world_build_s=fitting - built, fit_s=warming - fitting,
        warmup_s=warmed - warming))


def run_router(args: argparse.Namespace) -> int:
    from repro.shard import RouterConfig, ShardRouter

    addresses = []
    for spec in args.endpoint:
        host, _, port = spec.rpartition(":")
        addresses.append((host, int(port)))
    router = ShardRouter(StaticEndpoints(addresses),
                         RouterConfig(host="127.0.0.1", port=0))
    return router.run(ready=announce)


def run_awake() -> int:
    # SCHED_IDLE, not merely nice 19: the scheduler still counts a CPU
    # that runs only idle-class tasks as idle when it places a waking
    # thread, so the spinners do not make program threads stack up
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    signal.signal(signal.SIGTERM, lambda *_: os._exit(0))
    print(json.dumps({"host": None, "port": None, "timings": {}}),
          flush=True)
    while True:
        pass


def main() -> int:
    procs.pin_blas()
    sys.path.insert(0, str(procs.ROOT / "src"))
    exit_with_parent()
    parser = argparse.ArgumentParser(description=__doc__)
    roles = parser.add_subparsers(dest="role", required=True)
    worker = roles.add_parser("worker")
    worker.add_argument("--world", choices=("soft", "hard"), required=True)
    worker.add_argument("--seed", type=int, required=True)
    worker.add_argument("--slot", type=int, default=None)
    worker.add_argument("--count", type=int, default=None)
    router = roles.add_parser("router")
    router.add_argument("--endpoint", action="append", required=True)
    roles.add_parser("awake")
    args = parser.parse_args()
    return {"worker": run_worker, "router": run_router,
            "awake": lambda _: run_awake()}[args.role](args)


if __name__ == "__main__":
    sys.exit(main())
