"""The load driver: seeded inputs, percentile arithmetic, both loops."""

import json
import socketserver
import threading
import time

import numpy as np
import pytest

import driver


# -- seeded inputs ------------------------------------------------------------
def test_schedule_is_a_pure_function_of_the_seed():
    def draw(seed):
        rng = np.random.default_rng(seed)
        offsets = driver.poisson_offsets(rng, 200.0, 3.0)
        return offsets, driver.draw_queries(rng, range(100, 150),
                                            len(offsets), 1.1)

    offsets_a, queries_a = draw(5)
    offsets_b, queries_b = draw(5)
    offsets_c, queries_c = draw(6)
    assert np.array_equal(offsets_a, offsets_b) and queries_a == queries_b
    assert not np.array_equal(offsets_a[:10], offsets_c[:10])
    assert queries_a != queries_c


def test_poisson_offsets_ascend_inside_the_phase_at_the_rate():
    offsets = driver.poisson_offsets(np.random.default_rng(1), 500.0, 4.0)
    assert np.all(np.diff(offsets) > 0)
    assert 0.0 < offsets[0] and offsets[-1] < 4.0
    assert abs(len(offsets) - 2000) < 5 * np.sqrt(2000)


def test_query_mix_shape():
    rng = np.random.default_rng(2)
    vertices = list(range(50))
    skewed = driver.draw_queries(rng, vertices, 20_000, 1.1)
    uniform = driver.draw_queries(rng, vertices, 20_000, 0.0)
    assert {k for _, k in skewed} == set(driver.TOP_K_CHOICES)
    share_top1 = sum(k == 1 for _, k in skewed) / len(skewed)
    assert abs(share_top1 - 0.7) < 0.02

    def hottest_share(queries):
        counts = np.bincount([v for v, _ in queries], minlength=50)
        return counts.max() / len(queries)

    assert hottest_share(skewed) > 5 * hottest_share(uniform) > 0.0
    assert np.allclose(driver.zipf_weights(4, 0.0), 0.25)


def test_request_lines_carry_ascending_ids():
    lines = driver.encode_requests([(7, 1), (9, 5)], first_id=40)
    assert [json.loads(line) for line in lines] == [
        {"id": 40, "vertex": 7, "top_k": 1},
        {"id": 41, "vertex": 9, "top_k": 5}]
    assert all(line.endswith(b"\n") for line in lines)


# -- percentile arithmetic ----------------------------------------------------
def test_percentile_is_nearest_rank_over_raw_samples():
    assert driver.percentile([4, 1, 3, 2], 50) == 2
    assert driver.percentile([1, 2, 3], 50) == 2
    hundred = list(range(1, 101))
    assert driver.percentile(hundred, 99) == 99
    assert driver.percentile(hundred, 100) == 100
    assert driver.percentile(hundred, 0.5) == 1
    assert driver.percentile([7.5], 99) == 7.5
    assert driver.quantiles(hundred) == {"n": 100, "p50": 50, "p99": 99}


def test_percentile_refuses_nonsense():
    with pytest.raises(ValueError):
        driver.percentile([], 50)
    with pytest.raises(ValueError):
        driver.percentile([1, 2], 0)


# -- the loops, against a stand-in server -------------------------------------
class _Echo(socketserver.StreamRequestHandler):
    """Answers every request line at once; vertex 13 answers wrongly,
    vertex 99 only after a stall."""

    def handle(self):
        for raw in self.rfile:
            request = json.loads(raw)
            if request.get("vertex") == 99:
                time.sleep(0.2)
            if "op" in request:
                answer = {"id": request["id"], "ok": True, "stats": {}}
            else:
                image = 0 if request["vertex"] == 13 else request["vertex"]
                answer = {"id": request["id"], "ok": True, "tier": "full",
                          "degraded": False,
                          "matches": [{"image": image, "score": 0.5}]}
            self.wfile.write(json.dumps(answer).encode() + b"\n")


@pytest.fixture()
def echo_server():
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _Echo)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def _expected(queries):
    return {query: json.dumps([{"image": query[0], "score": 0.5}])
            for query in queries}


def test_open_loop_times_from_the_intended_send(echo_server):
    conn = driver.Connection(echo_server)
    queries = [(v, 1) for v in (11, 12, 13, 14)]
    offsets = np.array([0.01, 0.02, 0.03, 0.04])
    phase = driver.run_open_loop(conn, "lo", queries, offsets, first_id=100)
    assert conn.call({"op": "stats", "id": "s"})["ok"]
    conn.close()
    assert np.allclose(phase.intended_at - phase.started_at, offsets)
    assert np.all(phase.sent_at >= phase.intended_at)
    assert np.all(phase.lag_ms >= 0) and np.all(phase.latency_ms > 0)
    assert np.all(phase.latency_ms >= phase.lag_ms)
    correct = driver.score_responses(phase, _expected(queries))
    assert correct.tolist() == [True, True, False, True]


def test_open_loop_holds_back_behind_a_full_window(echo_server, monkeypatch):
    monkeypatch.setattr(driver, "MAX_OUTSTANDING", 2)
    conn = driver.Connection(echo_server)
    queries = [(99, 1)] + [(v, 1) for v in (21, 22, 23)]
    offsets = np.array([0.0, 0.001, 0.002, 0.003])
    phase = driver.run_open_loop(conn, "hi", queries, offsets, first_id=0)
    conn.close()
    # the third request waited for the stalled first answer, and the
    # wait is charged to it: its clock started at the intended time
    assert phase.lag_ms[1] < 100 < phase.lag_ms[2]
    assert np.all(phase.latency_ms[2:] > 100)
    assert driver.score_responses(phase, _expected(queries)).all()


def test_closed_loop_keeps_requests_outstanding(echo_server):
    conn = driver.Connection(echo_server)
    queries = [(v % 10 + 20, 3) for v in range(50_000)]
    phase = driver.run_closed_loop(conn, "cap", queries, first_id=0,
                                   outstanding=4, seconds=0.3)
    conn.close()
    assert 4 < len(phase.queries) < len(queries)
    assert not np.isnan(phase.received_at).any()
    assert driver.score_responses(phase, _expected(set(queries))).all()
    assert phase.ended_at - phase.started_at < 5.0


def test_unanswered_requests_are_wrong_not_fast(echo_server):
    conn = driver.Connection(echo_server)
    phase = driver.run_open_loop(conn, "lo", [(1, 1)], np.array([0.0]), 0)
    conn.close()
    phase.responses[0] = None
    phase.received_at[0] = np.nan
    assert not driver.score_responses(phase, _expected([(1, 1)])).any()
    assert np.isnan(phase.latency_ms[0])
