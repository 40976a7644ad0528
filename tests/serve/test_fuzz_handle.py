"""The one request path, fuzzed: parse, then slice.

``MatchService.handle`` takes arbitrary decoded JSON for ``vertex``,
``top_k``, ``budget_ms`` and ``trace`` — huge, negative, boolean, NaN
and infinite values, wrong types, malformed trace contexts — and must
always answer a response dict.  An ok answer holds exactly
``min(top_k, owned)`` matches and is the prefix of its vertex's table
row; every other answer is a typed ``bad_request``.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import MatchService, ServeConfig

JSON_SCALARS = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-2 ** 70, max_value=2 ** 70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
EDGES = st.sampled_from([0, -1, 10 ** 9, 2 ** 63, -2 ** 63, 10 ** 400,
                         True, False, math.nan, math.inf, -math.inf,
                         1.5, "3", None])


@pytest.fixture(scope="module", params=["whole", "shard1of2"])
def service(request, fitted_soft):
    config = ServeConfig(top_k_default=3) if request.param == "whole" \
        else ServeConfig(top_k_default=3, shard_slot=1, shard_count=2)
    return MatchService(fitted_soft, config=config).warmup()


def requests(vertices, images):
    fields = {
        "id": st.one_of(st.none(), st.integers(), st.text(max_size=4)),
        "vertex": st.one_of(st.sampled_from(vertices), EDGES, JSON_VALUES),
        "top_k": st.one_of(st.integers(-3, images + 10), EDGES,
                           JSON_VALUES),
        "budget_ms": st.one_of(st.floats(min_value=1e-6, max_value=1e6),
                               st.just(0.001), EDGES, JSON_VALUES),
        "trace": st.one_of(
            st.fixed_dictionaries({}, optional={
                "trace_id": st.one_of(st.text(max_size=6), EDGES),
                "parent_span": st.one_of(st.text(max_size=4), EDGES),
                "return_spans": st.one_of(st.booleans(), EDGES)}),
            EDGES, JSON_VALUES),
    }
    return st.one_of(st.fixed_dictionaries({}, optional=fields),
                     JSON_VALUES)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_answer_is_a_slice_or_a_typed_bad_request(service, data):
    matcher = service.matcher
    request = data.draw(requests([int(v) for v in matcher.vertex_ids],
                                 len(matcher.images)))
    response = service.handle(request)
    assert isinstance(response, dict)
    if not response["ok"]:
        assert response["error"]["type"] == "bad_request", response
        return
    top_k = min(request.get("top_k", 3), len(matcher.images))
    ids, scores = service._table[request["vertex"]]
    count = min(top_k, service.owned_images)
    assert response["vertex"] == request["vertex"]
    assert response["tier"] == "full" and response["degraded"] is False
    assert len(response["matches"]) == count
    assert [m["image"] for m in response["matches"]] == \
        ids[:count].tolist()
    assert [m["score"] for m in response["matches"]] == \
        scores[:count].tolist()
