"""Unit tests for :mod:`repro.auditstore`: the segmented store, the
materialized views, the service/config wiring, the incremental cluster
merge, the control verbs, and the forensics CLI contract."""

from __future__ import annotations

import pytest

from repro.auditstore import (
    AppendOnlyLog,
    AuditViews,
    SegmentedAuditStore,
    make_audit_log,
)
from repro.auditstore import store as store_module
from repro.auditstore.log import DISCLOSING_KINDS
from repro.cluster.merge import ClusterAuditLog
from repro.core.policy import KeypadConfig, validate_config
from repro.core.services.keyservice import KeyService
from repro.errors import ConfigError, ControlError
from repro.harness import build_keypad_rig
from repro.net.netem import LAN
from repro.sim import Simulation


def _fill(log, n=10, kind="fetch", device="dev-1", t0=0.0):
    for i in range(n):
        log.append(t0 + i * 1.0, device, kind, audit_id=bytes([i % 5]) * 24)


class TestMakeAuditLog:
    def test_flat_single(self):
        log = make_audit_log("x", store="flat")
        assert isinstance(log, AppendOnlyLog)

    def test_flat_sharded_needs_router(self):
        with pytest.raises(ValueError, match="router"):
            make_audit_log("x", store="flat", shards=2)

    def test_segmented_ignores_shards(self):
        log = make_audit_log("x", store="segmented", shards=4)
        assert isinstance(log, SegmentedAuditStore)

    def test_unknown_store_rejected(self):
        with pytest.raises(ValueError, match="unknown audit store"):
            make_audit_log("x", store="cloud")


class TestSegmentedStore:
    def test_chain_identical_to_flat(self):
        store = SegmentedAuditStore(segment_entries=3)
        flat = AppendOnlyLog()
        _fill(store, 10)
        _fill(flat, 10)
        assert [e.chain_hash for e in store] == [e.chain_hash for e in flat]
        assert store.verify_chain()

    def test_segments_roll_and_seal(self):
        store = SegmentedAuditStore(segment_entries=4)
        _fill(store, 10)
        assert len(store.segments) == 3
        assert [s.sealed for s in store.segments] == [True, True, False]
        # Seal hashes chain: each sealed segment records one.
        seals = [s.seal_hash for s in store.segments if s.sealed]
        assert all(seals) and len(set(seals)) == len(seals)

    def test_group_commit_counts_once(self):
        store = SegmentedAuditStore(segment_entries=4)
        store.append_many([
            (float(i), "d", "fetch", {"audit_id": b"a" * 24})
            for i in range(6)
        ])
        assert store.group_commits == 1 and store.appends == 0
        assert len(store) == 6 and store.seals == 1

    def test_entry_at_and_tail_cross_segments(self):
        store = SegmentedAuditStore(segment_entries=3)
        _fill(store, 10)
        assert store.entry_at(0).sequence == 0
        assert store.entry_at(9).sequence == 9
        assert [e.sequence for e in store.tail(7)] == [7, 8, 9]
        assert store.tail(10) == []
        with pytest.raises(IndexError):
            store.entry_at(10)

    def test_tail_starts_inside_a_segment_without_building_its_head(
            self, monkeypatch):
        # Three shapes in one store: compacted, sealed-but-live, active.
        store = SegmentedAuditStore(segment_entries=4, auto_compact=False)
        _fill(store, 8)
        store.compact()
        _fill(store, 6, t0=8.0)
        assert [(s.sealed, s.compacted) for s in store.segments] == [
            (True, True), (True, True), (True, False), (False, False)]
        everything = list(store)
        for k in range(len(store) + 1):
            assert store.tail(k) == everything[k:]
        assert store.tail(-3) == everything

        store.compact()
        built = []
        real = store_module._unpack
        monkeypatch.setattr(
            store_module, "_unpack",
            lambda packed: built.append(packed) or real(packed))
        for k in range(len(store) + 1):
            del built[:]
            assert store.tail(k) == everything[k:]
            assert len(built) <= len(store) - k

    def test_force_seal_empty_active_is_noop(self):
        store = SegmentedAuditStore(segment_entries=4)
        assert store.force_seal() is None
        _fill(store, 2)
        assert store.force_seal() == 0
        assert store.segments[0].sealed

    def test_compaction_is_lazy_and_invisible(self):
        store = SegmentedAuditStore(segment_entries=3, auto_compact=False)
        _fill(store, 7)
        assert not any(s.compacted for s in store.segments)
        before = list(store)
        packed = store.compact()
        assert packed == 6  # the two sealed segments
        assert list(store) == before
        assert store.verify_chain()

    def test_tamper_detection_in_compacted_segment(self):
        store = SegmentedAuditStore(segment_entries=3)
        _fill(store, 7)
        segment = store.segments[0]
        assert segment.compacted
        rec = list(segment._packed[1])
        rec[2] = "mallory"
        segment._packed[1] = tuple(rec)
        assert not store.verify_chain()

    def test_stats_shape(self):
        store = SegmentedAuditStore(segment_entries=3)
        _fill(store, 7)
        stats = store.stats()
        assert stats["store"] == "segmented"
        assert stats["entries"] == 7 and stats["segments"] == 3
        assert stats["views"]["ingested"] == 7


class TestAuditViews:
    def test_out_of_order_timestamps_still_match_scan(self):
        store = SegmentedAuditStore(segment_entries=4)
        # Phone-side report batches carry earlier clocks.
        times = [5.0, 6.0, 2.0, 7.0, 3.0, 8.0]
        for i, t in enumerate(times):
            store.append(t, "d", "fetch", audit_id=bytes([i]) * 24)
        assert store.views.out_of_order >= 1
        flat = AppendOnlyLog()
        for i, t in enumerate(times):
            flat.append(t, "d", "fetch", audit_id=bytes([i]) * 24)
        for since in (0.0, 2.5, 6.0, 9.0):
            scan = [e for e in flat.entries(since=since)
                    if e.kind in DISCLOSING_KINDS]
            assert store.views.accesses_after(since) == scan

    def test_views_over_flat_log(self):
        flat = AppendOnlyLog()
        _fill(flat, 8)
        views = AuditViews(flat)
        assert views.rebuild() == 8
        assert views.accesses_after(3.0) == [
            e for e in flat.entries(since=3.0)
            if e.kind in DISCLOSING_KINDS
        ]
        assert views.devices() == ["dev-1"]
        assert len(views.audit_ids()) == 5


class TestKeyServiceWiring:
    def test_segmented_service_answers_identically(self):
        flat_sim, seg_sim = Simulation(), Simulation()
        flat_ks = KeyService(flat_sim)
        seg_ks = KeyService(seg_sim, audit_store="segmented",
                            segment_entries=4)
        for ks in (flat_ks, seg_ks):
            for i in range(12):
                ks.access_log.append(
                    float(i), f"dev-{i % 3}",
                    "fetch" if i % 4 else "evict-notify",
                    audit_id=bytes([i % 5]) * 24,
                )
        for since in (0.0, 5.0, 11.5):
            for device in (None, "dev-1"):
                assert flat_ks.accesses_after(since, device) == (
                    seg_ks.accesses_after(since, device)
                )

    def test_rig_report_identical_flat_vs_segmented(self):
        from repro.forensics.audit import AuditTool

        renders = []
        for store in ("flat", "segmented"):
            config = (KeypadConfig.builder()
                      .texp(10.0)
                      .audit_store(store, segment_entries=4)
                      .build())
            rig = build_keypad_rig(network=LAN, config=config,
                                   n_blocks=1 << 14)

            def setup(rig=rig):
                yield from rig.fs.mkdir("/home")
                for name in ("a", "b", "c"):
                    yield from rig.fs.create(f"/home/{name}")
                    yield from rig.fs.write(f"/home/{name}", 0, b"s")
                yield rig.sim.timeout(20.0)
                yield from rig.fs.read("/home/b", 0, 1)

            rig.run(setup())
            tool = AuditTool(rig.key_service, rig.metadata_service)
            report = tool.report(t_loss=rig.sim.now - 15.0, texp=10.0)
            assert report.logs_intact
            renders.append(report.render())
        assert renders[0] == renders[1]


class TestIncrementalMerge:
    def _services(self, n=3):
        sim = Simulation()
        return [KeyService(sim, name=f"r{i}") for i in range(n)]

    def test_high_water_marks_advance(self):
        replicas = self._services()
        cluster = ClusterAuditLog(replicas, threshold=2)
        for r in replicas:
            _fill(r.access_log, 5)
        first = cluster.merged()
        assert cluster.merge_stats()["consumed"] == [5, 5, 5]
        # New entries on one replica only: the next merge consumes just
        # the tail, not the whole log.
        _fill(replicas[0].access_log, 3, t0=100.0)
        second = cluster.merged()
        assert cluster.merge_stats()["consumed"] == [8, 5, 5]
        assert len(second) > len(first)

    def test_merged_memo_hit_when_nothing_new(self):
        replicas = self._services()
        cluster = ClusterAuditLog(replicas, threshold=2)
        for r in replicas:
            _fill(r.access_log, 5)
        assert cluster.merged() is cluster.merged()

    def test_incremental_equals_from_scratch(self):
        replicas = self._services()
        incremental = ClusterAuditLog(replicas, threshold=2)
        for batch in range(4):
            for i, r in enumerate(replicas):
                _fill(r.access_log, 4, t0=batch * 10.0 + i * 0.1)
            incremental.merged()  # consume as we go
        fresh = ClusterAuditLog(replicas, threshold=2)
        assert incremental.merged() == fresh.merged()
        assert incremental.merged(since=15.0) == fresh.merged(since=15.0)
        assert incremental.divergences() == fresh.divergences()

    def test_stragglers_force_resort_but_stay_correct(self):
        replicas = self._services(2)
        cluster = ClusterAuditLog(replicas, threshold=1)
        _fill(replicas[0].access_log, 5, t0=100.0)
        cluster.merged()
        # A phone report batch lands with timestamps before the cache
        # tail (out-of-order on the wire is legal).
        _fill(replicas[1].access_log, 3, t0=0.0)
        cluster.merged()
        assert cluster.resorts == 1
        fresh = ClusterAuditLog(replicas, threshold=1)
        assert cluster.merged() == fresh.merged()

    def test_shrunken_log_triggers_rebuild(self):
        replicas = self._services(2)
        cluster = ClusterAuditLog(replicas, threshold=1)
        for r in replicas:
            _fill(r.access_log, 5)
        cluster.merged()
        # Tamper: truncate one replica's log under the merge.
        del replicas[0].access_log._entries[3:]
        cluster.merged()
        assert cluster.merge_stats()["rebuilds"] == 1
        fresh = ClusterAuditLog(replicas, threshold=1)
        assert cluster.merged() == fresh.merged()


class TestConfig:
    def test_builder_bundle(self):
        config = (KeypadConfig.builder()
                  .audit_store("segmented", segment_entries=64,
                               auto_compact=False)
                  .build())
        assert config.audit_store == "segmented"
        assert config.audit_segment_entries == 64
        assert not config.audit_auto_compact

    def test_defaults_flags_off(self):
        config = KeypadConfig()
        assert config.audit_store == "flat"
        assert config.audit_segment_entries == 1024
        assert config.audit_auto_compact

    def test_validation(self):
        with pytest.raises(ConfigError, match="audit_store"):
            validate_config(KeypadConfig(audit_store="parquet"))
        with pytest.raises(ConfigError, match="audit_segment_entries"):
            validate_config(KeypadConfig(audit_segment_entries=1))

    def test_mount_frozen(self):
        from repro.core.policy import PolicyEpoch

        epoch = PolicyEpoch(KeypadConfig())
        with pytest.raises(ConfigError, match="mount-frozen"):
            epoch.update(audit_store="segmented")


class TestControlVerbs:
    def _rig(self, store):
        from repro.api import open_control

        config = (KeypadConfig.builder()
                  .audit_store(store, segment_entries=4)
                  .build())
        rig = build_keypad_rig(network=LAN, config=config, n_blocks=1 << 14)

        def setup():
            yield from rig.fs.mkdir("/home")
            for name in ("a", "b", "c"):
                yield from rig.fs.create(f"/home/{name}")
                yield from rig.fs.write(f"/home/{name}", 0, b"s")

        rig.run(setup())
        return rig, open_control(rig)

    def test_audit_stats_seal_rebuild_segmented(self):
        rig, ctl = self._rig("segmented")

        def scenario():
            stats = yield from ctl.audit_stats()
            sealed = yield from ctl.audit_seal()
            rebuilt = yield from ctl.audit_rebuild()
            return stats, sealed, rebuilt

        stats, sealed, rebuilt = rig.run(scenario())
        service = stats["services"][0]
        assert service["store"] == "segmented"
        assert service["entries"] == rebuilt["rebuilt"][0]["entries"]
        assert sealed["sealed"][0]["segment"] is not None
        assert rig.key_service.access_log.verify_chain()
        # The admin action log recorded both mutations.
        verbs = [a["verb"] for a in ctl.server.actions]
        assert "audit_seal" in verbs and "audit_rebuild" in verbs

    def test_flat_store_refuses_seal_and_rebuild(self):
        rig, ctl = self._rig("flat")

        def scenario():
            stats = yield from ctl.audit_stats()
            try:
                yield from ctl.audit_seal()
            except ControlError as exc:
                return stats, str(exc)
            return stats, None

        stats, error = rig.run(scenario())
        assert stats["services"][0]["store"] == "flat"
        assert error is not None and "flat" in error

    def test_bad_index_is_control_error(self):
        rig, ctl = self._rig("segmented")

        def scenario():
            try:
                yield from ctl.audit_stats(index=9)
            except ControlError as exc:
                return str(exc)
            return None

        assert "out of range" in rig.run(scenario())


class TestOfflineViews:
    def test_bundle_views_match_scan(self):
        from repro.forensics.export import export_logs, load_bundle

        config = KeypadConfig(texp=5.0, prefetch="none")
        rig = build_keypad_rig(network=LAN, config=config, n_blocks=1 << 14)

        def setup():
            yield from rig.fs.mkdir("/home")
            for name in ("a", "b"):
                yield from rig.fs.create(f"/home/{name}")
                yield from rig.fs.write(f"/home/{name}", 0, b"s")
            yield rig.sim.timeout(10.0)
            yield from rig.fs.read("/home/a", 0, 1)

        rig.run(setup())
        bundle = export_logs(rig.key_service, rig.metadata_service)
        key_log, _ = load_bundle(bundle)
        views = key_log.views
        assert views is key_log.views  # built once, cached
        for since in (0.0, 5.0, rig.sim.now):
            assert views.accesses_after(since) == (
                key_log.accesses_after(since)
            )

    def test_offline_disclosing_matches_live_service(self):
        from repro.forensics.export import OfflineKeyLog

        assert OfflineKeyLog._DISCLOSING == DISCLOSING_KINDS


class TestForensicsCli:
    def _bundle(self, tmp_path):
        from repro.forensics.export import export_logs

        config = KeypadConfig(texp=5.0, prefetch="none")
        rig = build_keypad_rig(network=LAN, config=config, n_blocks=1 << 14)

        def setup():
            yield from rig.fs.mkdir("/home")
            yield from rig.fs.create("/home/a")
            yield from rig.fs.write("/home/a", 0, b"s")
            yield rig.sim.timeout(10.0)
            yield from rig.fs.read("/home/a", 0, 1)

        rig.run(setup())
        path = tmp_path / "bundle.json"
        path.write_text(export_logs(rig.key_service, rig.metadata_service))
        return str(path), rig.sim.now

    @pytest.mark.parametrize("view", ["timeline", "file-set", "post-theft"])
    def test_views_reconcile_exit_zero(self, tmp_path, view, capsys):
        from repro.cli import main

        bundle, t_loss = self._bundle(tmp_path)
        code = main(["forensics", "--bundle", bundle, "--tloss",
                     str(t_loss), "--texp", "5.0", "--view", view])
        out = capsys.readouterr().out
        assert code == 0
        assert "reconciled" in out

    def test_bundle_without_tloss_is_an_error(self, tmp_path):
        from repro.cli import main

        bundle, _ = self._bundle(tmp_path)
        assert main(["forensics", "--bundle", bundle]) == 1

    def test_view_scan_disagreement_exits_two(self, tmp_path, monkeypatch,
                                              capsys):
        from repro.auditstore.views import AuditViews
        from repro.cli import main

        bundle, t_loss = self._bundle(tmp_path)
        real = AuditViews.accesses_after

        def lying(self, t, device_id=None):
            return real(self, t, device_id=device_id)[:-1]  # drop one

        monkeypatch.setattr(AuditViews, "accesses_after", lying)
        code = main(["forensics", "--bundle", bundle, "--tloss",
                     str(t_loss), "--texp", "5.0", "--view", "post-theft"])
        err = capsys.readouterr().err
        assert code == 2
        assert "MISMATCH" in err
