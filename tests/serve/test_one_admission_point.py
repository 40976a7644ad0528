"""Keep the fork from growing back: no admission point, no pool.

Every door calls ``MatchService.handle`` inline: a request is a slice
of the answer table, so there is nothing to queue or to run elsewhere.
``MatchService`` once had a queue and worker pool of its own (``start``
/ ``submit`` / ``shutdown`` over a ``BoundedQueue``, sized by
``ServeConfig.capacity`` and ``.workers``), and the doors later shared
a micro-batcher's window and pool; these assertions fail the day one
reappears.
"""

from __future__ import annotations

import dataclasses
import inspect

import repro.serve
import repro.serve.service as service_module
from repro.serve import MatchService, ServeConfig


def test_the_service_owns_no_thread_no_queue_and_no_knob_for_either():
    assert "threading.Thread" not in inspect.getsource(service_module)
    for name in ("start", "submit", "shutdown", "queue"):
        assert not hasattr(MatchService, name), name
    fields = {field.name for field in dataclasses.fields(ServeConfig)}
    assert not fields & {"capacity", "workers"}
    assert not hasattr(repro.serve, "MicroBatcher")
