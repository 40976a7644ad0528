"""The benchmark's spans and their self-time arithmetic."""

import json

from spans import SpanRecorder, self_times


def _row(index, parent, start, end):
    return {"id": index, "name": f"s{index}", "parent": parent,
            "request": None, "start": start, "end": end}


def test_self_time_is_duration_minus_what_children_cover():
    rows = [_row(0, None, 0.0, 10.0),
            _row(1, 0, 2.0, 5.0),      # overlaps the next child
            _row(2, 0, 4.0, 7.0),
            _row(3, 2, 4.5, 5.5),
            _row(4, 0, 9.0, 12.0)]     # sticks out of the parent
    own = self_times(rows)
    assert own[0] == 10.0 - (5.0 + 1.0)   # [2,7] and [9,10]
    assert own[1] == 3.0
    assert own[2] == 2.0
    assert own[3] == 1.0


def test_leaf_self_times_add_up_to_the_root():
    rec = SpanRecorder()
    with rec.span("request", 42):
        with rec.span("decode"):
            pass
        with rec.span("handle"):
            with rec.span("score"):
                pass
        with rec.span("encode"):
            pass
    own = self_times(rec.spans)
    root = rec.spans[0]
    assert abs(sum(own.values()) - (root["end"] - root["start"])) < 1e-9
    assert [row["parent"] for row in rec.spans] == [None, 0, 0, 2, 0]
    assert {row["request"] for row in rec.spans} == {42}


def test_disabled_recorder_records_nothing():
    rec = SpanRecorder(enabled=False)
    with rec.span("request", 1):
        with rec.span("inner"):
            pass
    assert rec.spans == []


def test_spans_are_written_once_at_the_end(tmp_path):
    rec = SpanRecorder()
    with rec.span("only"):
        pass
    target = tmp_path / "out" / "trace.json"
    rec.write(target, {"workload": "w"})
    written = json.loads(target.read_text())
    assert written["meta"] == {"workload": "w"}
    assert [row["name"] for row in written["spans"]] == ["only"]
    assert written["spans"][0]["end"] >= written["spans"][0]["start"]
