"""The live control plane: runtime verbs over the admin channel,
pluggable storage backends, and the PolicyEpoch snapshot seam."""

from __future__ import annotations

import pytest

from repro.api import (
    ControlEvent,
    KeypadConfig,
    mount,
    open_control,
    run_fleet,
)
from repro.core.policy import PolicyEpoch
from repro.errors import (
    ConfigError,
    ControlError,
    OverloadSheddedError,
    RevokedError,
)
from repro.harness.experiment import DEVICE_ID
from repro.storage.backend import BACKENDS, make_backend
from repro.storage.casfs import ContentAddressedFileSystem
from repro.storage.memfs import MemoryFileSystem


def _rig(**builder_steps):
    builder = KeypadConfig.builder().texp(30.0)
    for step, kwargs in builder_steps.items():
        builder = getattr(builder, step)(**kwargs)
    return mount(config=builder.build())


def _seed_files(rig, names=("a.txt", "b.txt")):
    def setup():
        for name in names:
            yield from rig.fs.write_file(f"/{name}", b"secret:" + name.encode())

    rig.run(setup())


class TestControlVerbs:
    def test_status_reflects_live_policy(self):
        rig = _rig()
        ctl = open_control(rig)

        def scenario():
            status = yield from ctl.status()
            return status

        status = rig.run(scenario())
        assert status["texp"] == 30.0
        assert status["epoch"] == 0
        assert status["storage_backend"] == "ext3"
        assert "texp" in status["runtime_mutable"]

    def test_set_texp_shortens_live_cache_entries(self):
        rig = _rig()
        ctl = open_control(rig)
        _seed_files(rig)

        def scenario():
            # Entries cached under texp=30 must not outlive the new
            # shorter policy: the retarget shortens their expiry now.
            yield from ctl.set_texp(1.0)
            yield rig.sim.timeout(2.0)
            assert len(rig.fs.key_cache) == 0
            status = yield from ctl.status()
            return status

        status = rig.run(scenario())
        assert status["texp"] == 1.0 and status["epoch"] == 1

    def test_set_texp_zero_disables_caching(self):
        rig = _rig()
        ctl = open_control(rig)
        _seed_files(rig)

        def scenario():
            assert len(rig.fs.key_cache) > 0
            yield from ctl.set_texp(0.0)
            # The retarget evicts everything at once: no grace window.
            assert len(rig.fs.key_cache) == 0

        rig.run(scenario())

    def test_update_rejects_mount_frozen_knobs_over_the_wire(self):
        rig = _rig()
        ctl = open_control(rig)

        def scenario():
            with pytest.raises(ControlError, match="mount-frozen"):
                yield from ctl.update(fast_transport=True)
            status = yield from ctl.status()
            return status

        status = rig.run(scenario())
        assert status["epoch"] == 0  # nothing changed

    def test_update_rejects_wrongly_typed_values_over_the_wire(self):
        # A bare string would iterate as one-letter prefixes and drop
        # /home from the protected domain: later reads would go
        # unaudited.  Both updates must be refused as a ControlError.
        rig = mount(config=KeypadConfig(protected_prefixes=("/home",)))
        ctl = open_control(rig)

        def scenario():
            with pytest.raises(ControlError, match="protected_prefixes"):
                yield from ctl.update(protected_prefixes="home")
            with pytest.raises(ControlError, match="texp"):
                yield from ctl.update(texp="5")
            status = yield from ctl.status()
            return status

        status = rig.run(scenario())
        assert status["epoch"] == 0  # nothing changed
        assert rig.fs.is_protected("/home/alice/taxes.pdf")

    def test_add_and_remove_protected_dir(self):
        config = KeypadConfig(protected_prefixes=("/vault",), texp=30.0)
        rig = mount(config=config)
        ctl = open_control(rig)

        def scenario():
            assert not rig.fs.is_protected("/plain/x")
            yield from ctl.add_dir("/plain")
            assert rig.fs.is_protected("/plain/x")
            yield from ctl.remove_dir("/plain")
            assert not rig.fs.is_protected("/plain/x")
            with pytest.raises(ControlError):
                yield from ctl.remove_dir("/never-added")

        rig.run(scenario())

    def test_revoke_blocks_all_later_cold_reads(self):
        rig = _rig()
        ctl = open_control(rig)
        _seed_files(rig)

        def scenario():
            yield from ctl.revoke(DEVICE_ID)
            rig.fs.key_cache.evict_all()
            with pytest.raises(RevokedError):
                yield from rig.fs.read_all("/a.txt")

        rig.run(scenario())

    def test_rotate_secret_keeps_device_working(self):
        rig = _rig()
        ctl = open_control(rig)
        _seed_files(rig)
        old_secret = rig.device_secret

        def scenario():
            yield from ctl.rotate_secret(DEVICE_ID)
            rig.fs.key_cache.evict_all()
            data = yield from rig.fs.read_all("/a.txt")
            return data

        assert rig.run(scenario()) == b"secret:a.txt"
        new_secret = rig.key_service.server.device_secret(DEVICE_ID)
        assert new_secret != old_secret
        assert rig.services.key_channel._device_secret == new_secret

    def test_rotate_unknown_device_is_a_control_error(self):
        rig = _rig()
        ctl = open_control(rig)

        def scenario():
            with pytest.raises(ControlError, match="not enrolled"):
                yield from ctl.rotate_secret("no-such-device")

        rig.run(scenario())

    def test_revoke_fans_out_to_every_replica(self):
        rig = _rig(replication={"k": 2, "m": 3})
        ctl = open_control(rig)

        def scenario():
            result = yield from ctl.revoke(DEVICE_ID)
            return result

        result = rig.run(scenario())
        assert result["services"] == 3
        for replica in rig.replica_group.replicas:
            assert replica.is_revoked(DEVICE_ID)

    def test_status_counts_available_replicas(self):
        rig = _rig(replication={"k": 2, "m": 3})
        ctl = open_control(rig)
        rig.replica_group.crash(1)

        def scenario():
            status = yield from ctl.status()
            return status

        assert rig.run(scenario())["replicas_available"] == 2


class TestDrainAdmit:
    def test_drain_sheds_then_admit_restores(self):
        rig = _rig(frontend={"workers": 4})
        ctl = open_control(rig)
        _seed_files(rig)

        def scenario():
            yield from ctl.drain()
            rig.fs.key_cache.evict_all()
            with pytest.raises(OverloadSheddedError):
                yield from rig.fs.read_all("/a.txt")
            yield from ctl.admit()
            data = yield from rig.fs.read_all("/a.txt")
            return data

        assert rig.run(scenario()) == b"secret:a.txt"
        frontend = rig.extras["frontends"][0]
        assert frontend.metrics.shed_draining == 1
        assert frontend.metrics.shed >= 1

    def test_drain_without_frontend_is_a_control_error(self):
        rig = _rig()
        ctl = open_control(rig)

        def scenario():
            with pytest.raises(ControlError, match="frontend"):
                yield from ctl.drain()

        rig.run(scenario())

    def test_drain_index_out_of_range(self):
        rig = _rig(frontend={"workers": 4})
        ctl = open_control(rig)

        def scenario():
            with pytest.raises(ControlError, match="out of range"):
                yield from ctl.drain(index=3)

        rig.run(scenario())


class TestStorageBackends:
    def test_registry_names(self):
        assert set(BACKENDS) == {"ext3", "memory", "cas"}
        with pytest.raises(ConfigError):
            make_backend("floppy")

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_mount_and_roundtrip_on_each_backend(self, backend):
        config = KeypadConfig.builder().texp(30.0).storage(backend).build()
        rig = mount(config=config)

        def scenario():
            yield from rig.fs.mkdir("/docs")
            yield from rig.fs.write_file("/docs/f.txt", b"payload")
            data = yield from rig.fs.read_all("/docs/f.txt")
            return data

        assert rig.run(scenario()) == b"payload"
        assert rig.config.storage_backend == backend

    def test_swap_backend_on_empty_volume(self):
        rig = _rig()
        ctl = open_control(rig)

        def scenario():
            result = yield from ctl.swap_backend("memory")
            yield from rig.fs.write_file("/x", b"post-swap")
            data = yield from rig.fs.read_all("/x")
            return result, data

        result, data = rig.run(scenario())
        assert result["backend"] == "memory"
        assert data == b"post-swap"
        assert isinstance(rig.fs.lower, MemoryFileSystem)
        assert rig.fs.policy.config.storage_backend == "memory"

    def test_swap_backend_refuses_non_empty_volume(self):
        rig = _rig()
        ctl = open_control(rig)
        _seed_files(rig)

        def scenario():
            with pytest.raises(ControlError, match="not empty"):
                yield from ctl.swap_backend("cas")

        rig.run(scenario())
        # the rig still runs on its original stack
        assert rig.fs.policy.config.storage_backend == "ext3"

    def test_cas_backend_deduplicates(self):
        # On the raw store: identical chunks are stored once.  (Under
        # KeypadFS the per-file keys make ciphertexts unique, so the
        # mount sees no dedup — which is itself the right behaviour.)
        from repro.sim import Simulation

        sim = Simulation()
        stack = make_backend("cas").create(sim)
        assert isinstance(stack.fs, ContentAddressedFileSystem)

        def scenario():
            blob = b"z" * 8192
            yield from stack.fs.write_file("/one", blob)
            yield from stack.fs.write_file("/two", blob)

        sim.run_process(scenario())
        stats = stack.fs.dedup_stats()
        assert stats["dedup_ratio"] > 1.9
        assert stats["stored_bytes"] < stats["logical_bytes"]


class TestTailTrace:
    def test_cursor_pages_through_live_ops(self):
        rig = _rig(tracing={})
        ctl = open_control(rig)
        _seed_files(rig, names=("a.txt", "b.txt", "c.txt"))

        def scenario():
            first = yield from ctl.tail_trace(cursor=0, limit=2)
            rest = yield from ctl.tail_trace(cursor=first["cursor"],
                                             limit=1000)
            return first, rest

        first, rest = rig.run(scenario())
        assert len(first["ops"]) == 2
        assert first["cursor"] == 2
        assert first["ops"][0]["status"] == "ok"
        assert first["cursor"] + len(rest["ops"]) == rest["total"]

    def test_tail_trace_without_tracer_is_a_control_error(self):
        rig = _rig()
        ctl = open_control(rig)

        def scenario():
            with pytest.raises(ControlError, match="tracing is off"):
                yield from ctl.tail_trace()

        rig.run(scenario())

    def test_metrics_aggregates_channels_and_cache(self):
        rig = _rig(frontend={"workers": 2}, tracing={})
        ctl = open_control(rig)
        _seed_files(rig)

        def scenario():
            metrics = yield from ctl.metrics()
            return metrics

        metrics = rig.run(scenario())
        assert metrics["channels"]["calls"] > 0
        assert metrics["key_cache"]["entries"] >= 1
        assert metrics["frontends"][0]["admitted"] >= 0
        assert metrics["trace"]["ops"] > 0


class TestPolicyEpochSeam:
    def test_ops_snapshot_policy_per_op(self):
        # An op minted before a texp change must keep seeing the old
        # config through its OpContext snapshot; the next op sees the
        # new one (one op never mixes two epochs).
        rig = _rig(tracing={})
        open_control(rig)
        epoch = rig.fs.policy
        seen = []

        def op():
            ctx = rig.fs._op_context("probe", "/p")
            seen.append(ctx.config.texp)
            epoch.update(texp=3.0)
            # the in-flight snapshot is immutable...
            seen.append(ctx.config.texp)
            # ...while a fresh op picks up the new epoch
            seen.append(rig.fs._op_context("probe2", "/p").config.texp)
            yield rig.sim.timeout(0.0)

        rig.run(op())
        assert seen == [30.0, 30.0, 3.0]

    def test_subscribers_see_old_and_new(self):
        epoch = PolicyEpoch(KeypadConfig(texp=30.0))
        calls = []
        epoch.subscribe(lambda old, new: calls.append((old.texp, new.texp)))
        epoch.update(texp=5.0)
        assert calls == [(30.0, 5.0)]

    def test_control_attach_enables_per_op_snapshots(self):
        rig = _rig()  # no tracing, no deadlines: ctx would be None
        assert rig.fs._op_context("probe", "/p") is None
        open_control(rig)
        ctx = rig.fs._op_context("probe", "/p")
        assert ctx is not None and ctx.config.texp == 30.0


class TestFleetControlEvents:
    def test_scripted_revocation_and_texp_change(self):
        result = run_fleet(
            devices=8, duration=6.0, seed=b"ctl-fleet-test",
            frontend={"workers": 4},
            control=[
                ControlEvent(at=1.0, verb="set_texp",
                             params={"texp": 5.0}),
                ControlEvent(at=2.0, verb="revoke",
                             params={"device_id": "dev-00002"}),
            ],
        )
        log = result.control_log
        assert [entry["verb"] for entry in log] == ["set_texp", "revoke"]
        assert all("result" in entry for entry in log)
        victim = next(s for s in result.stats
                      if s.device_id == "dev-00002")
        assert victim.revoked > 0
        assert result.summary()["revoked"] == victim.revoked

    def test_control_events_are_deterministic(self):
        kwargs = dict(
            devices=6, duration=4.0, seed=b"ctl-det",
            frontend={"workers": 2},
            control=[ControlEvent(at=1.5, verb="drain"),
                     ControlEvent(at=2.5, verb="admit")],
        )
        assert run_fleet(**kwargs).summary() == run_fleet(**kwargs).summary()

    def test_no_events_leaves_summary_shape_with_empty_log(self):
        summary = run_fleet(devices=4, duration=3.0,
                            seed=b"no-ctl").summary()
        assert summary["control"] == []
        assert summary["revoked"] == 0


class TestDurableAuditControl:
    def _durable_rig(self, flush_policy="every-append"):
        return _rig(audit_store=dict(
            store="durable", segment_entries=8, flush_policy=flush_policy,
        ))

    def _seed_audit(self, rig, names=("a.txt", "b.txt")):
        """Write files, drain the background key registrations, then
        cold-read — so audit entries (and their blob flushes) exist."""
        def scenario():
            for name in names:
                yield from rig.fs.write_file(
                    f"/{name}", b"secret:" + name.encode()
                )
            yield rig.sim.timeout(60.0)
            rig.fs.key_cache.evict_all()
            for name in names:
                yield from rig.fs.read_all(f"/{name}")

        rig.run(scenario())
        assert len(rig.key_service.access_log) > 0

    def test_swap_refused_when_audit_blobs_spilled(self):
        rig = self._durable_rig()
        ctl = open_control(rig)
        self._seed_audit(rig, names=("a.txt",))

        def cleanup_then_swap():
            # Empty the POSIX surface; only the spilled blobs remain.
            yield from rig.fs.unlink("/a.txt")
            with pytest.raises(ControlError, match="blob:audit"):
                yield from ctl.swap_backend("memory")

        rig.run(cleanup_then_swap())
        assert rig.fs.policy.config.storage_backend == "ext3"

    def test_swap_rebinds_an_unflushed_durable_store(self):
        rig = self._durable_rig()
        ctl = open_control(rig)

        def scenario():
            result = yield from ctl.swap_backend("memory")
            return result

        result = rig.run(scenario())
        assert result["backend"] == "memory"
        # The durable store now spills into the *new* stack's blobs.
        self._seed_audit(rig, names=("x.txt",))
        stack = rig.extras["backend"]
        assert any(n.startswith("audit/") for n in stack.blobs.names())

    def test_checkpoint_verb_needs_a_durable_store(self):
        rig = _rig()  # flat store
        ctl = open_control(rig)

        def scenario():
            with pytest.raises(ControlError, match="durable"):
                yield from ctl.audit_checkpoint()

        rig.run(scenario())

    def test_checkpoint_then_stats_reports_durable_state(self):
        rig = self._durable_rig()
        ctl = open_control(rig)
        self._seed_audit(rig)

        def scenario():
            result = yield from ctl.audit_checkpoint()
            stats = yield from ctl.audit_stats()
            return result, stats

        result, stats = rig.run(scenario())
        assert result["checkpoints"][0]["upto"] > 0
        durable = stats["services"][0]["durable"]
        assert durable["checkpoints"] == 1
        assert durable["unflushed_entries"] == 0

    def test_recover_verb_drills_a_healthy_service(self):
        rig = self._durable_rig()
        ctl = open_control(rig)
        self._seed_audit(rig)

        def scenario():
            result = yield from ctl.audit_recover()
            return result

        result = rig.run(scenario())
        entry = result["recovered"][0]
        assert entry["mode"] == "drill"
        assert entry["recovered_entries"] > 0

    def test_recover_verb_restarts_a_crashed_service(self):
        rig = self._durable_rig()
        ctl = open_control(rig)
        self._seed_audit(rig)
        before = rig.key_service.crash()
        assert not rig.key_service.server.available

        def scenario():
            result = yield from ctl.audit_recover()
            stats = yield from ctl.audit_stats()
            return result, stats

        result, stats = rig.run(scenario())
        entry = result["recovered"][0]
        assert entry["mode"] == "restart"
        assert entry["recovered_entries"] == before
        assert entry["lost_entries"] == 0
        assert rig.key_service.server.available
        assert stats["services"][0]["recovery"]["durable"]
