"""``BENCHMARK.json`` against the shape the benchmark contract fixes,
and against the code that fills it."""

import json
import re

import procs
import run
import serving

CONTRACT = json.loads((procs.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_top_level_keys():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert CONTRACT["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert isinstance(CONTRACT["run_seconds"], int)
    assert 1 <= CONTRACT["run_seconds"] <= 60
    assert len((procs.ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_workloads_are_the_four_the_code_runs():
    workloads = CONTRACT["workloads"]
    assert [w["name"] for w in workloads] == list(run.WORKLOADS)
    assert set(serving.SPECS) <= set(run.WORKLOADS)
    for workload in workloads:
        assert set(workload) == {"name", "why"}
        assert NAME.match(workload["name"])
        assert 0 < len(workload["why"]) <= 200
        assert "\n" not in workload["why"]


def test_metrics_are_well_formed_and_named_once():
    end_to_end, per_layer = CONTRACT["end_to_end"], CONTRACT["per_layer"]
    assert 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128
    for metric in end_to_end:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in per_layer:
        assert set(metric) == {"name", "unit", "better"}
    names = [m["name"] for m in end_to_end + per_layer] \
        + [w["name"] for w in CONTRACT["workloads"]]
    assert len(names) == len(set(names))
    for metric in end_to_end + per_layer:
        assert NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric["unit"]
        assert metric["better"] in ("lower", "higher")


def test_setup_time_is_an_end_to_end_metric_with_the_widest_bound():
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": setup[0]["bound"]}]
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in CONTRACT["end_to_end"])
