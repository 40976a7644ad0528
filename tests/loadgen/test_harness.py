"""The open-loop harness: coordinated-omission correction, outcome
classification, schedule determinism, and the real-service drive mode."""

from __future__ import annotations

import pytest

from repro.loadgen import (LoadConfig, LoadHarness, build_schedule,
                           classify_response, run_schedule)
from repro.obs import registry


class TestClassify:
    @pytest.mark.parametrize("response,outcome", [
        ({"ok": True}, "ok"),
        ({"ok": True, "degraded": False}, "ok"),
        ({"ok": True, "degraded": True}, "degraded"),
        ({"ok": False, "error": {"type": "overloaded"}}, "shed"),
        ({"ok": False, "error": {"type": "unavailable"}}, "error"),
        ({"ok": False, "error": {"type": "bad_request"}}, "error"),
        ({"ok": False, "error": {"type": "internal"}}, "error"),
        ({"ok": False}, "error"),
    ])
    def test_maps_serve_responses_to_outcomes(self, response, outcome):
        assert classify_response(response) == outcome


class TestLoadConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(process="warp"),
        dict(rate=0.0),
        dict(duration=0.0),
        dict(burst_rate=-1.0),
        dict(on_seconds=0.0),
        dict(bad_fraction=2.0),
        dict(skew=-1.0),
        dict(budget_ms=0.0),
        dict(process="replay"),  # replay without a schedule
    ])
    def test_invalid_configuration_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LoadConfig(**kwargs)

    def test_describe_elides_replay_payload(self):
        config = LoadConfig(process="replay", replay=[(0.0, {"vertex": 1})])
        assert config.describe()["replay"] == 1


class TestSchedule:
    def test_same_seed_same_schedule(self):
        config = LoadConfig(process="poisson", rate=100.0, duration=1.0,
                            seed=5)
        assert build_schedule(config, range(10)) == \
            build_schedule(config, range(10))

    def test_arrival_process_change_keeps_query_sequence(self):
        """Arrivals and mix draw from separate seeded streams, so an A/B
        of arrival processes offers the *same* query sequence."""
        vertices = range(50)
        poisson = build_schedule(LoadConfig(process="poisson", rate=100.0,
                                            duration=1.0, seed=9), vertices)
        uniform = build_schedule(LoadConfig(process="uniform", rate=100.0,
                                            duration=1.0, seed=9), vertices)
        n = min(len(poisson), len(uniform))
        strip = lambda req: {k: v for k, v in req.items() if k != "id"}
        assert [strip(r) for _, r in poisson[:n]] == \
            [strip(r) for _, r in uniform[:n]]

    def test_ids_are_sequential(self):
        schedule = build_schedule(
            LoadConfig(process="uniform", rate=10.0, duration=1.0),
            range(4))
        assert [request["id"] for _, request in schedule] == \
            [f"lg-{i}" for i in range(10)]


class TestCoordinatedOmission:
    def test_stall_charges_queued_requests_from_intended_time(
            self, fake_clock):
        """THE acceptance property: one 100 ms service stall must show
        up as a monotonically decreasing latency ramp across the queued
        requests — each measured from its *intended* arrival — not as
        ten identical service times."""
        calls = []

        def stalling_target(request: dict) -> dict:
            if not calls:
                fake_clock.now += 0.1  # the stall: first request hangs
            calls.append(request["id"])
            return {"id": request["id"], "ok": True}

        config = LoadConfig(process="uniform", rate=100.0, duration=0.1)
        harness = LoadHarness(config, [1, 2, 3], clock=fake_clock,
                              sleep=fake_clock.sleep)
        report = harness.run(stalling_target)

        latencies = [round(sample.latency_ms, 6)
                     for sample in report.samples]
        assert latencies == [100.0, 90.0, 80.0, 70.0, 60.0,
                             50.0, 40.0, 30.0, 20.0, 10.0]
        # a closed-loop/service-time recorder would have reported ten
        # samples of which only the first shows the stall
        assert latencies == sorted(latencies, reverse=True)
        assert report.summary()["max_lag_ms"] == pytest.approx(90.0)

    def test_no_stall_means_zero_latency_on_fake_clock(self, fake_clock):
        config = LoadConfig(process="uniform", rate=50.0, duration=0.2)
        harness = LoadHarness(config, [1], clock=fake_clock,
                              sleep=fake_clock.sleep)
        report = harness.run(lambda request: {"id": request["id"],
                                              "ok": True})
        assert [sample.latency_ms for sample in report.samples] == \
            [0.0] * 10
        assert report.summary()["max_lag_ms"] == 0.0


class TestReportBookkeeping:
    def test_summary_fractions_and_rates(self, fake_clock):
        responses = iter([
            {"ok": True},
            {"ok": True, "degraded": True},
            {"ok": False, "error": {"type": "overloaded"}},
            {"ok": False, "error": {"type": "unavailable"}},
            {"ok": False, "error": {"type": "internal"}},
        ])

        def target(request: dict) -> dict:
            return {"id": request["id"], **next(responses)}

        config = LoadConfig(process="uniform", rate=50.0, duration=0.1)
        harness = LoadHarness(config, [1], clock=fake_clock,
                              sleep=fake_clock.sleep)
        summary = harness.run(target).summary()
        assert summary["offered"] == 5
        assert summary["answered"] == 2
        assert summary["availability"] == pytest.approx(0.4)
        assert summary["degraded_fraction"] == pytest.approx(0.2)
        assert summary["shed_fraction"] == pytest.approx(0.2)
        assert summary["error_fraction"] == pytest.approx(0.4)
        assert summary["offered_rate"] == pytest.approx(
            5 / summary["duration_s"])

    def test_latency_objectives_judge_answered_only(self, fake_clock):
        """Sheds answer instantly; letting them into the latency pool
        would reward shedding with a better p99."""
        def target(request: dict) -> dict:
            if int(request["id"].split("-")[1]) % 2:
                return {"id": request["id"], "ok": False,
                        "error": {"type": "overloaded"}}
            fake_clock.now += 0.05  # answered requests cost 50 ms
            return {"id": request["id"], "ok": True}

        config = LoadConfig(process="uniform", rate=20.0, duration=0.5)
        harness = LoadHarness(config, [1], clock=fake_clock,
                              sleep=fake_clock.sleep)
        report = harness.run(target)
        answered = report.answered_latency()
        assert answered.count == 5
        assert answered.min == pytest.approx(50.0)  # no 0 ms shed samples

    def test_publish_lands_in_registry_with_buckets(self, fake_clock):
        config = LoadConfig(process="uniform", rate=10.0, duration=0.5)
        harness = LoadHarness(config, [1], clock=fake_clock,
                              sleep=fake_clock.sleep)
        report = harness.run(lambda request: {"id": request["id"],
                                              "ok": True})
        report.publish()
        reg = registry()
        assert reg.counter("load.offered_total").value == 5
        assert reg.counter("load.outcome.ok").value == 5
        row = reg.histogram("load.latency_ms").row()
        assert row["count"] == 5
        assert "buckets" in row and "p99" in row

    def test_artifact_round_trip(self, fake_clock, tmp_path):
        config = LoadConfig(process="uniform", rate=10.0, duration=0.5)
        harness = LoadHarness(config, [1], clock=fake_clock,
                              sleep=fake_clock.sleep)
        report = harness.run(lambda request: {"id": request["id"],
                                              "ok": True})
        path = report.save(tmp_path / "run.json")
        import json

        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro.loadreport/1"
        assert doc["summary"]["offered"] == 5
        assert doc["latency"]["count"] == 5
        assert doc["meta"]["config"]["process"] == "uniform"


class TestServiceMode:
    def test_drives_real_service_and_classifies(self, make_service,
                                                fitted_hard):
        service = make_service()
        vertices = fitted_hard.vertex_ids
        config = LoadConfig(process="uniform", rate=100.0, duration=0.25,
                            bad_fraction=0.3, seed=2)
        harness = LoadHarness(config, vertices)
        report = harness.run(service)
        summary = report.summary()
        assert summary["offered"] == 25
        outcomes = summary["outcomes"]
        assert outcomes["lost"] == 0  # the drain answered everything
        assert outcomes["ok"] > 0
        assert outcomes["error"] > 0  # the dirty queries
        assert sum(outcomes.values()) == summary["offered"]

    def test_rejections_counted_as_shed(self, fake_clock):
        """An admission-path rejection (submit returns the error
        response instead of None) must be recorded as shed."""

        class SheddingService:
            def start(self, emit):
                self.emit = emit

            def submit(self, request):
                return {"id": request["id"], "ok": False,
                        "error": {"type": "overloaded"}}

            def shutdown(self, timeout=30.0):
                pass

        config = LoadConfig(process="uniform", rate=50.0, duration=0.1)
        schedule = build_schedule(config, [1, 2])
        report = run_schedule(SheddingService(), schedule,
                              clock=fake_clock, sleep=fake_clock.sleep)
        assert report.summary()["outcomes"]["shed"] == 5

    def test_unanswered_requests_recorded_as_lost(self, fake_clock):
        """A service that swallows requests without ever emitting must
        not silently shrink the sample count — the gap surfaces as
        ``lost`` after the drain."""

        class BlackHoleService:
            def start(self, emit):
                self.emit = emit

            def submit(self, request):
                return None  # accepted... and never answered

            def shutdown(self, timeout=30.0):
                pass

        config = LoadConfig(process="uniform", rate=20.0, duration=0.2)
        schedule = build_schedule(config, [1])
        report = run_schedule(BlackHoleService(), schedule,
                              clock=fake_clock, sleep=fake_clock.sleep)
        summary = report.summary()
        assert summary["outcomes"]["lost"] == 4
        assert summary["availability"] == 0.0
