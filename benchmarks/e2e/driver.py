"""The benchmark's own load driver.

Deliberately independent of ``repro.loadgen``: the instrument that
measures the program must not be something a performance change to the
program can edit.  Everything a phase sends is built up front from one
seeded generator — arrival offsets, vertex mix, ``top_k`` mix, encoded
request lines — so the timed region only sleeps, writes and reads.

Open-loop phases model independent users: requests leave on a Poisson
schedule whether or not earlier ones were answered, and every latency
is charged from the *intended* send time, so a stall in the sender or
the server shows up as latency on the requests queued behind it
instead of silently thinning the load.  How late the sender actually
ran is reported beside the latencies.  The closed loop models callers
that wait: a fixed number of requests outstanding on one connection.
"""

from __future__ import annotations

import dataclasses
import json
import math
import socket
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["TOP_K_CHOICES", "TOP_K_WEIGHTS", "MAX_OUTSTANDING", "percentile",
           "quantiles", "poisson_offsets", "zipf_weights", "draw_queries",
           "encode_requests", "Connection", "PhaseResult", "run_open_loop",
           "run_closed_loop", "join", "score_responses"]

TOP_K_CHOICES = (1, 3, 5)
TOP_K_WEIGHTS = (0.7, 0.2, 0.1)
#: An open-loop phase never has more than this many requests unanswered
#: on its connection: the sender holds the next one back instead (and
#: its latency still runs from the intended send time).  It is set
#: below the servers' per-connection cap (``conn_inflight``, 32), past
#: which they shed.  This VM freezes for 50-100 ms now and then; without
#: the window such a freeze piles the schedule up behind the cap and
#: the run records refusals that say nothing about the program.  A
#: server that is genuinely too slow shows as latency and SLO misses.
MAX_OUTSTANDING = 28

Query = Tuple[int, int]  # (vertex id, top_k)


# -- arithmetic ---------------------------------------------------------------
def percentile(samples: Sequence[float], q: float) -> float:
    """Exact nearest-rank percentile of the raw samples: the smallest
    sample with at least ``q`` percent of the samples at or below it."""
    if not len(samples):
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError("q must be in (0, 100]")
    ordered = np.sort(np.asarray(samples, dtype=np.float64))
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def quantiles(samples: Sequence[float]) -> Dict[str, float]:
    """p50 / p99 with the sample count beside them (a p99 over fewer
    than 1,000 samples has fewer than ten samples beyond it)."""
    return {"n": len(samples), "p50": percentile(samples, 50.0),
            "p99": percentile(samples, 99.0)}


# -- seeded inputs ------------------------------------------------------------
def poisson_offsets(rng: np.random.Generator, rate: float,
                    seconds: float) -> np.ndarray:
    """Intended send times (seconds from phase start) of a Poisson
    process of ``rate`` per second, cut at ``seconds``."""
    if rate <= 0 or seconds <= 0:
        raise ValueError("rate and seconds must be positive")
    # Draw comfortably more gaps than needed, then cut: one vectorised
    # draw keeps the schedule a pure function of the generator state.
    count = int(rate * seconds + 6.0 * math.sqrt(rate * seconds) + 16)
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=count))
    return offsets[offsets < seconds]


def zipf_weights(count: int, skew: float) -> np.ndarray:
    """Rank-``r`` probability proportional to ``1 / r**skew``
    (``skew`` 0 is uniform)."""
    weights = 1.0 / np.arange(1, count + 1, dtype=np.float64) ** skew
    return weights / weights.sum()


def draw_queries(rng: np.random.Generator, vertices: Sequence[int],
                 count: int, skew: float) -> List[Query]:
    """``count`` (vertex, top_k) queries.  Popularity rank is a seeded
    permutation of the vertex space, so which vertices are hot changes
    with the seed while the shape of the mix does not."""
    ranked = rng.permutation(np.asarray(vertices))
    picks = rng.choice(len(ranked), size=count,
                       p=zipf_weights(len(ranked), skew))
    top_ks = rng.choice(TOP_K_CHOICES, size=count, p=TOP_K_WEIGHTS)
    return [(int(ranked[p]), int(k)) for p, k in zip(picks, top_ks)]


def encode_requests(queries: Sequence[Query], first_id: int) -> List[bytes]:
    """One JSONL request line per query, ids ascending from
    ``first_id`` (ids are unique across the phases of a run)."""
    return [json.dumps({"id": first_id + i, "vertex": vertex,
                        "top_k": top_k}, separators=(",", ":")).encode()
            + b"\n" for i, (vertex, top_k) in enumerate(queries)]


# -- the connection -----------------------------------------------------------
class Connection:
    """One TCP connection speaking the JSONL protocol, with a reader
    thread that timestamps every response line on arrival and keeps
    the raw bytes; parsing waits until the phase is over."""

    def __init__(self, address: Tuple[str, int],
                 timeout: float = 10.0) -> None:
        self._sock = socket.create_connection(address, timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock.settimeout(None)
        self._lock = threading.Lock()
        self._arrived = threading.Condition(self._lock)
        self._lines: List[Tuple[float, bytes]] = []
        self._closed = False
        #: called from the reader thread with the number of new lines
        self.on_lines: Optional[Callable[[int], None]] = None
        self._reader = threading.Thread(target=self._read_main,
                                        name="bench-reader", daemon=True)
        self._reader.start()

    def _read_main(self) -> None:
        pending = b""
        while True:
            try:
                data = self._sock.recv(1 << 16)
            except OSError:
                data = b""
            now = time.perf_counter()
            if not data:
                with self._arrived:
                    self._closed = True
                    self._arrived.notify_all()
                return
            pending += data
            *complete, pending = pending.split(b"\n")
            if complete:
                with self._arrived:
                    self._lines.extend((now, line) for line in complete)
                    self._arrived.notify_all()
                if self.on_lines is not None:
                    self.on_lines(len(complete))

    def send(self, line: bytes) -> None:
        self._sock.sendall(line)

    def wait_for(self, total: int, timeout: float) -> bool:
        """Block until ``total`` lines have arrived since the last
        :meth:`take`; False on timeout or a closed connection."""
        deadline = time.perf_counter() + timeout
        with self._arrived:
            while len(self._lines) < total and not self._closed:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                self._arrived.wait(remaining)
            return len(self._lines) >= total

    def take(self) -> List[Tuple[float, bytes]]:
        """Everything received so far, as (arrival time, raw line)."""
        with self._lock:
            lines, self._lines = self._lines, []
        return lines

    def call(self, payload: dict, timeout: float = 30.0) -> dict:
        """One control round trip (``info`` / ``stats``) on an otherwise
        idle connection."""
        self.take()
        self.send(json.dumps(payload).encode() + b"\n")
        if not self.wait_for(1, timeout):
            raise TimeoutError(f"no answer to {payload.get('op')!r} "
                               f"within {timeout}s")
        return json.loads(self.take()[0][1])

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._reader.join(timeout=5.0)


# -- phases -------------------------------------------------------------------
@dataclasses.dataclass
class PhaseResult:
    """Raw outcome of one phase: what was sent when, what came back
    when.  Arrays align with ``queries``; a request that was never
    answered has ``nan`` in ``received_at``."""

    name: str
    queries: List[Query]
    first_id: int
    intended_at: np.ndarray   # absolute perf_counter seconds
    sent_at: np.ndarray
    received_at: np.ndarray
    responses: List[Optional[dict]]
    started_at: float
    ended_at: float

    @property
    def lag_ms(self) -> np.ndarray:
        """How late the sender ran: actual minus intended send."""
        return (self.sent_at - self.intended_at) * 1e3

    @property
    def latency_ms(self) -> np.ndarray:
        """Latency charged from the intended send time."""
        return (self.received_at - self.intended_at) * 1e3


def _collect(name: str, conn: Connection, queries: List[Query],
             first_id: int, intended: np.ndarray, sent: np.ndarray,
             started: float) -> PhaseResult:
    received = np.full(len(queries), np.nan)
    responses: List[Optional[dict]] = [None] * len(queries)
    for arrived, raw in conn.take():
        try:
            response = json.loads(raw)
            index = response["id"] - first_id
        except (ValueError, KeyError, TypeError):
            continue  # an unparseable or id-less line answers nothing
        if 0 <= index < len(queries) and responses[index] is None:
            responses[index] = response
            received[index] = arrived
    return PhaseResult(name, queries, first_id, intended, sent, received,
                       responses, started, time.perf_counter())


def run_open_loop(conn: Connection, name: str, queries: List[Query],
                  offsets: np.ndarray, first_id: int,
                  drain_timeout: float = 10.0) -> PhaseResult:
    """Send ``queries[i]`` at ``offsets[i]`` seconds after the phase
    starts, whatever has been answered so far, up to
    ``MAX_OUTSTANDING`` unanswered requests."""
    lines = encode_requests(queries, first_id)
    conn.take()
    sent = np.empty(len(lines))
    started = time.perf_counter()
    intended = started + np.asarray(offsets, dtype=np.float64)
    for i, line in enumerate(lines):
        delay = intended[i] - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        conn.wait_for(i + 1 - MAX_OUTSTANDING, drain_timeout)
        sent[i] = time.perf_counter()
        conn.send(line)
    conn.wait_for(len(lines), drain_timeout)
    return _collect(name, conn, queries, first_id, intended, sent, started)


def run_closed_loop(conn: Connection, name: str, queries: List[Query],
                    first_id: int, outstanding: int, seconds: float,
                    drain_timeout: float = 10.0) -> PhaseResult:
    """Keep ``outstanding`` requests in flight on the connection for
    ``seconds``: each arriving response releases the next request.
    ``queries`` must be long enough to never run out."""
    lines = encode_requests(queries, first_id)
    conn.take()
    sent = np.full(len(lines), np.nan)
    state = {"next": 0}
    send_lock = threading.Lock()
    started = time.perf_counter()
    stop_at = started + seconds

    def release(count: int) -> None:
        with send_lock:
            for _ in range(count):
                i = state["next"]
                if i >= len(lines) or time.perf_counter() >= stop_at:
                    return
                sent[i] = time.perf_counter()
                conn.send(lines[i])
                state["next"] = i + 1

    conn.on_lines = release
    try:
        release(outstanding)
        time.sleep(max(0.0, stop_at - time.perf_counter()))
    finally:
        conn.on_lines = None
    with send_lock:
        total = state["next"]
    conn.wait_for(total, drain_timeout)
    # a closed loop has no schedule: a request is due when it is sent
    return _collect(name, conn, queries[:total], first_id, sent[:total],
                    sent[:total], started)


def join(name: str, bursts: Sequence[PhaseResult]) -> PhaseResult:
    """The bursts of one phase as one result, in the order sent."""
    return PhaseResult(
        name, [query for burst in bursts for query in burst.queries],
        bursts[0].first_id,
        np.concatenate([burst.intended_at for burst in bursts]),
        np.concatenate([burst.sent_at for burst in bursts]),
        np.concatenate([burst.received_at for burst in bursts]),
        [response for burst in bursts for response in burst.responses],
        bursts[0].started_at, bursts[-1].ended_at)


def score_responses(phase: PhaseResult,
                    expected: Dict[Query, str]) -> np.ndarray:
    """Boolean per request: answered, ``ok``, undegraded full tier, and
    ``matches`` byte-equal (as canonical JSON) to the oracle's."""
    correct = np.zeros(len(phase.queries), dtype=bool)
    for i, (query, response) in enumerate(zip(phase.queries,
                                              phase.responses)):
        if response is None or not response.get("ok"):
            continue
        if response.get("degraded") or response.get("tier") != "full":
            continue
        correct[i] = json.dumps(response.get("matches")) == expected[query]
    return correct
