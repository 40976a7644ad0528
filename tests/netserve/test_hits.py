"""Every request is answered where its line is read.

Every request, whatever its ``top_k``, is a slice of the answer table,
so :meth:`NetServer.submit` answers it on the event loop, inside the
``data_received`` that framed the line; on the stdio door the reader
answers it.  The claims:

* a request deeper than the ``table`` op's head is a table hit too,
  over TCP and over stdio (``serve.table_hits_total``);
* its bytes are :meth:`MatchService.handle_batch`'s, for every vertex
  and every ``top_k`` in ``1..|I| + 1``, on hard, soft and indexed
  worlds;
* a client that pipelines requests without reading its answers is held
  by the transport's flow control: the server's write buffer stays near
  the high-water mark instead of growing with the backlog.
"""

from __future__ import annotations

import asyncio
import io
import json
import socket
import threading
import time

import pytest

from repro.core.matcher import CrossEM, CrossEMConfig
from repro.index import IVFPQConfig
from repro.obs import registry
from repro.netserve import TABLE_K
from repro.serve import MatchService, serve_loop

from .test_server import PAST_TABLE, Client, wait_until


def counter(name: str) -> float:
    return registry().counter(name).value


def without_elapsed(raw) -> str:
    """A response's bytes, key order kept, minus ``elapsed_ms`` (the one
    field allowed to differ: callers pin ``trace_id`` with a context)."""
    body = json.loads(raw) if isinstance(raw, (bytes, str)) else dict(raw)
    body.pop("elapsed_ms")
    return json.dumps(body, separators=(",", ":"))


class TestDeepRequestsAreTableHits:
    def test_tcp_deep_request_is_a_table_hit(self, run_server, fitted_hard):
        _, address = run_server()
        client = Client(address, timeout=10.0)
        vertex = int(fitted_hard.vertex_ids[0])
        for top_k in (1, TABLE_K, PAST_TABLE):
            response = client.ask({"id": top_k, "vertex": vertex,
                                   "top_k": top_k})
            assert response["ok"] is True and response["id"] == top_k
            assert len(response["matches"]) == top_k
        assert counter("serve.table_hits_total") == 3
        client.close()

    def test_stdio_deep_request_is_a_table_hit(self, make_service,
                                               fitted_hard):
        vertex = int(fitted_hard.vertex_ids[0])
        source = io.StringIO(json.dumps({"id": "deep", "vertex": vertex,
                                         "top_k": PAST_TABLE}) + "\n")
        sink = io.StringIO()
        assert serve_loop(make_service(), source, sink) == 1
        [response] = map(json.loads, sink.getvalue().splitlines())
        assert response["ok"] is True and response["id"] == "deep"
        assert len(response["matches"]) == PAST_TABLE
        assert counter("serve.table_hits_total") == 1


@pytest.fixture(scope="module", params=["hard", "soft", "indexed"])
def world(request, tiny_bundle, tiny_dataset):
    prompt = "soft" if request.param == "soft" else "hard"
    matcher = CrossEM(tiny_bundle, CrossEMConfig(
        prompt=prompt, epochs=1 if prompt == "soft" else 0, seed=3))
    matcher.fit(tiny_dataset.graph, tiny_dataset.images,
                tiny_dataset.entity_vertices)
    if request.param == "indexed":
        matcher.build_index(IVFPQConfig(nlist=4, nprobe=4, pq_m=4,
                                        refine=8, seed=0))
    return matcher


def test_every_hit_over_tcp_equals_handle_batch(world, run_server):
    service = MatchService(world).warmup()
    _, address = run_server(service=service)
    requests = [{"id": f"{vertex}-{top_k}", "vertex": int(vertex),
                 "top_k": top_k,
                 "trace": {"trace_id": f"t-{vertex}-{top_k}"}}
                for vertex in world.vertex_ids
                for top_k in range(1, len(world.images) + 2)]
    client = Client(address)
    for request in requests:  # pipelined: an inline answer holds no slot
        client.send(request)
    answers = {}
    for _ in requests:
        raw = client.stream.readline()
        answers[json.loads(raw)["id"]] = raw
    client.close()
    assert counter("serve.table_hits_total") == len(requests)
    for request in requests:
        expected = service.handle_batch([request])[0]
        assert without_elapsed(answers[request["id"]]) == \
            without_elapsed(expected), request["id"]


def flow(server):
    """``(largest write buffer, whether every connection is reading)``
    over the server's connections, read on its loop."""
    async def read() -> tuple:
        conns = list(server._conns)
        return (max((conn.transport.get_write_buffer_size()
                     for conn in conns), default=0),
                all(conn.transport.is_reading() for conn in conns))

    return asyncio.run_coroutine_threadsafe(read(), server._loop).result(10)


def test_a_client_that_does_not_read_is_held_by_flow_control(
        run_server, fitted_hard):
    server, address = run_server()
    vertex = int(fitted_hard.vertex_ids[0])
    lines = 4000
    # padded lines, so the burst outgrows the socket buffers between the
    # two ends (the service ignores a field it does not know)
    burst = (json.dumps({"vertex": vertex, "top_k": TABLE_K,
                         "pad": "x" * 2000}).encode() + b"\n") * lines
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.settimeout(60.0)
    sock.connect(address)
    sender = threading.Thread(target=sock.sendall, args=(burst,),
                              daemon=True)
    sender.start()
    # the answers fill the socket buffers, then the transport's; past
    # its high-water mark the connection stops reading, so the burst
    # backs up towards the sender instead of into server memory
    assert wait_until(lambda: flow(server)[0] > 0, timeout=30.0)
    samples = []
    for _ in range(20):
        samples.append(flow(server))
        time.sleep(0.01)
    assert max(size for size, _ in samples) <= 128 * 1024
    assert not any(reading for _, reading in samples)
    # and every line is still answered once the client reads
    stream = sock.makefile("rb")
    answered = sum(json.loads(stream.readline())["ok"]
                   for _ in range(lines))
    sender.join(timeout=30)
    sock.close()
    assert answered == lines
