"""The server-side scheduler frontend: fair queueing, admission
control, group commit, and fleet determinism."""

from __future__ import annotations

import json

import pytest

from repro.core.services import KeyService
from repro.errors import ConfigError, OverloadSheddedError
from repro.server import FrontendSpec, ServiceFrontend
from repro.server.scheduler import (
    DrrScheduler,
    FifoScheduler,
    Request,
    make_scheduler,
)
from repro.sim import Simulation
from repro.workloads.fleet import profile_for_index, run_fleet


def _req(device, cost=1, method="key.fetch"):
    return Request(
        device_id=device, method=method, payload={}, deadline=None,
        done=None, cost=cost,
    )


class TestDrrScheduler:
    def test_round_robin_across_devices(self):
        sched = DrrScheduler()
        for _ in range(3):
            sched.push(_req("a"))
        sched.push(_req("b"))
        order = [sched.take().device_id for _ in range(4)]
        # b's single request is served within one round of a's burst.
        assert "b" in order[:2]

    def test_light_tenant_not_starved_by_batches(self):
        sched = DrrScheduler()
        for _ in range(4):
            sched.push(_req("scanner", cost=8))
        sched.push(_req("office", cost=1))
        first_two = [sched.take().device_id for _ in range(2)]
        assert "office" in first_two

    def test_cost_weighted_shares(self):
        # Two backlogged devices, one sending cost-2 requests: over a
        # long horizon they get equal *work*, so the cost-2 device is
        # served half as often.
        sched = DrrScheduler()
        for _ in range(20):
            sched.push(_req("heavy", cost=2))
            sched.push(_req("light", cost=1))
            sched.push(_req("light", cost=1))
        served = [sched.take() for _ in range(18)]
        work = {}
        for request in served:
            work[request.device_id] = (
                work.get(request.device_id, 0) + request.cost
            )
        assert abs(work["heavy"] - work["light"]) <= 2

    def test_wait_units_charges_own_appetite(self):
        sched = DrrScheduler()
        for _ in range(50):
            sched.push(_req("scanner", cost=8))
        # A light tenant's single fetch waits ~one round, not the
        # scanner's 400-unit backlog.
        light = sched.wait_units("office", 1)
        heavy = sched.wait_units("scanner", 8)
        assert light < heavy
        assert light <= 2 * 2  # ceil(1/1) rounds x 2 active x quantum + 1
        # FIFO would promise the whole backlog to everyone.
        fifo = FifoScheduler()
        for _ in range(50):
            fifo.push(_req("scanner", cost=8))
        assert fifo.wait_units("office", 1) == 401

    def test_wait_units_bounded_by_backlog(self):
        sched = DrrScheduler()
        sched.push(_req("a", cost=1))
        assert sched.wait_units("b", 1) <= 1 + 1

    def test_group_fill_is_charged(self):
        sched = DrrScheduler()
        sched.push(_req("a"))
        sched.push(_req("b"))
        sched.push(_req("b"))
        leader = sched.take()
        assert leader.device_id == "a"
        # Cross-device fill: at most one *head* request per device, so
        # a group never deepens any single tenant's share.
        fill = sched.take_matching(lambda r: r.method == "key.fetch", 4)
        assert [r.device_id for r in fill] == ["b"]
        # b consumed a pulled-forward turn: quantum granted minus cost
        # leaves it at zero credit, not ahead.
        assert sched._credit.get("b", 0.0) <= 0.0
        assert len(sched) == 1

    def test_lazy_retirement_keeps_len_consistent(self):
        sched = DrrScheduler()
        for device in ("a", "b", "c"):
            sched.push(_req(device))
        taken = []
        while True:
            request = sched.take()
            if request is None:
                break
            taken.append(request.device_id)
        assert sorted(taken) == ["a", "b", "c"]
        assert len(sched) == 0 and sched.take() is None

    def test_make_scheduler_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_scheduler("priority")


class _SlowServer:
    """Minimal RpcServer stand-in with a fixed per-request service time."""

    name = "fake-keys"
    available = True

    def __init__(self, sim, service_time=0.01):
        self.sim = sim
        self.service_time = service_time
        self.executed = []

    def execute(self, device_id, method, payload):
        yield self.sim.timeout(self.service_time)
        self.executed.append((device_id, method))
        return {"ok": device_id}


class TestServiceFrontend:
    def _submit(self, sim, frontend, device, deadline=None, results=None):
        def caller():
            try:
                value = yield from frontend.dispatch(
                    device, "key.fetch", {"audit_id": b"x" * 24},
                    deadline=deadline,
                )
            except Exception as exc:  # noqa: BLE001 - recorded for asserts
                results.append(exc)
            else:
                results.append(value)

        return sim.process(caller(), name=f"caller-{device}")

    def test_queue_limit_sheds(self):
        sim = Simulation()
        server = _SlowServer(sim, service_time=1.0)
        frontend = ServiceFrontend(
            sim, server, FrontendSpec(workers=1, queue_limit=1, coalesce=1))
        results = []
        procs = [self._submit(sim, frontend, "dev", results=results)
                 for _ in range(4)]
        sim.run_until(sim.all_of(procs))
        sheds = [r for r in results if isinstance(r, OverloadSheddedError)]
        served = [r for r in results if isinstance(r, dict)]
        # 1 in service + 1 queued; the rest shed at arrival.
        assert len(sheds) == 2 and len(served) == 2
        assert frontend.metrics.shed_queue_full == 2
        assert frontend.metrics.completed == 2

    def test_deadline_shed_is_upfront_not_silent_delay(self):
        sim = Simulation()
        server = _SlowServer(sim, service_time=1.0)
        frontend = ServiceFrontend(
            sim, server, FrontendSpec(workers=1, queue_limit=64, coalesce=1),
            service_estimate=1.0)
        results = []
        first = self._submit(sim, frontend, "busy", results=results)
        # An impossible deadline behind a 1s backlog: shed immediately
        # (at admission), not served late.
        late = self._submit(sim, frontend, "late",
                            deadline=0.5, results=results)
        sim.run_until(sim.all_of([first, late]))
        assert frontend.metrics.shed_deadline == 1
        assert any(isinstance(r, OverloadSheddedError) for r in results)
        assert sim.now == pytest.approx(1.0)  # the shed cost no service

    def test_bypass_methods_skip_the_queue(self):
        sim = Simulation()
        frontend = ServiceFrontend(sim, _SlowServer(sim),
                                   FrontendSpec(workers=1))
        assert not frontend.handles("rpc.hello")
        assert not frontend.handles("key.health")
        assert frontend.handles("key.fetch")

    def test_group_commit_amortises_log_append_not_evidence(self):
        sim = Simulation()
        service = KeyService(sim, seed=b"group-test", name="keys")
        ids = {}
        for index in range(4):
            device = f"dev-{index}"
            audit_id = bytes([index]) * 24
            service.enroll_device(device, b"s" * 16)
            service.preload_key(device, audit_id, b"k" * 32)
            ids[device] = audit_id
        frontend = service.install_frontend(
            FrontendSpec(workers=1, coalesce=4))

        results = []

        def caller(device):
            value = yield from frontend.dispatch(
                device, "key.fetch",
                {"audit_id": ids[device], "token": b""},
            )
            results.append((device, value))

        procs = [sim.process(caller(d), name=d) for d in ids]
        sim.run_until(sim.all_of(procs))
        assert len(results) == 4
        assert frontend.metrics.groups >= 1
        assert frontend.metrics.grouped_requests >= 2
        # Every member kept its own audit record: the log must hold one
        # fetch entry per device, exactly as 4 lone fetches would.
        fetched = [e.device_id for e in service.access_log
                   if e.kind == "fetch"]
        assert sorted(fetched) == sorted(ids)

    def test_unavailable_server_fails_batch(self):
        sim = Simulation()
        server = _SlowServer(sim)
        frontend = ServiceFrontend(sim, server, FrontendSpec(workers=1))
        server.available = False
        results = []
        proc = self._submit(sim, frontend, "dev", results=results)
        sim.run_until(sim.all_of([proc]))
        assert frontend.metrics.failed == 1
        assert not isinstance(results[0], dict)

    def test_validates_parameters(self):
        for bad in ({"workers": 0}, {"queue_limit": 0}, {"coalesce": 0},
                    {"policy": "priority"}, {"workers": "8"}):
            with pytest.raises(ConfigError):  # a ValueError
                FrontendSpec(**bad)
        assert issubclass(ConfigError, ValueError)


class TestFleet:
    def test_profile_mix(self):
        profiles = [profile_for_index(i, 0.10).name for i in range(100)]
        assert profiles.count("filescan") == 10
        assert profiles.count("office") + profiles.count("compile") == 90

    def test_fleet_is_deterministic(self):
        kwargs = dict(
            devices=40, duration=8.0, seed=b"determinism",
            frontend={"workers": 2, "queue_limit": 4, "policy": "drr"},
        )
        first = run_fleet(**kwargs).summary()
        second = run_fleet(**kwargs).summary()
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_fleet_against_cluster(self):
        result = run_fleet(
            devices=12, duration=6.0, seed=b"cluster-fleet",
            frontend={"workers": 2, "policy": "drr"},
            replicas=3, threshold=2,
        )
        summary = result.summary()
        assert summary["completed"] > 0
        assert summary["failed"] == 0
        # One frontend per replica; a healthy run needs (at least) the
        # k preferred replicas — the client never fans to all m.
        assert len(result.frontend_metrics) == 3
        exercised = [m for m in result.frontend_metrics if m["admitted"] > 0]
        assert len(exercised) >= 2

    def test_unbounded_legacy_path_still_works(self):
        summary = run_fleet(
            devices=10, duration=5.0, seed=b"legacy", frontend=None
        ).summary()
        assert summary["policy"] == "unbounded"
        assert summary["shed"] == 0 and summary["completed"] > 0
