"""Multi-process scale-out: partitioned workers behind one router.

``repro serve --listen`` is one process; this package is N of them
behind a fault-tolerant front door (``repro route --shards N``):

* :mod:`repro.shard.partition` — the deterministic partition of the
  image space (round-robin by repository position) and the exact
  cross-shard top-k merge, with the bit-identity argument that makes
  a routed answer equal a single-process answer byte for byte.
* :mod:`repro.shard.supervisor` — worker subprocess lifecycle: spawn
  with a port-file handshake, health-check via the ``info`` probe,
  restart crashes with exponential backoff, and mark flapping workers
  dead instead of restarting them forever.
* :mod:`repro.shard.client` — one shard's multiplexed JSONL
  connection, plus the fresh-socket one-shot path control ops use.
* :mod:`repro.shard.router` — the asyncio front door: hits answered
  from the workers' merged answer tables, deeper requests scattered
  once to every shard and merged (typed ``unavailable`` when a shard
  fails or is late), and an ordered drain (stop accepting → finish
  in-flight → close shard connections → SIGTERM workers → reap →
  exit 0).

See README "Scale-out" and DESIGN.md §14 for the partition contract,
the merge exactness argument, and the failure model.
"""

from .client import ShardClient, ShardUnavailable
from .partition import merge_matches, owned_positions
from .router import RouterBootError, RouterConfig, ShardRouter
from .supervisor import SupervisorConfig, WorkerSupervisor

__all__ = [
    "ShardClient", "ShardUnavailable",
    "merge_matches", "owned_positions",
    "RouterBootError", "RouterConfig", "ShardRouter",
    "SupervisorConfig", "WorkerSupervisor",
]
