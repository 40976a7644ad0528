"""Keep the fork from growing back: one admission point, one pool.

``MicroBatcher.submit`` is the only place a match request is admitted,
queued and handed to a scoring thread.  ``MatchService`` once had a
second queue and worker pool of its own (``start`` / ``submit`` /
``shutdown`` over a ``BoundedQueue``, sized by ``ServeConfig.capacity``
and ``.workers``); these assertions fail the day one reappears.
"""

from __future__ import annotations

import dataclasses
import inspect

import repro.serve.service as service_module
from repro.serve import MatchService, ServeConfig


def test_the_service_owns_no_thread_no_queue_and_no_knob_for_either():
    assert "threading.Thread" not in inspect.getsource(service_module)
    for name in ("start", "submit", "shutdown", "queue"):
        assert not hasattr(MatchService, name), name
    fields = {field.name for field in dataclasses.fields(ServeConfig)}
    assert not fields & {"capacity", "workers"}
