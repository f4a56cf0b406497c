"""Unit tests for the durable audit store: the blob namespace on the
storage seam, the segment/checkpoint codec, segment spill and group
commit under each flush policy, and kill-anywhere crash recovery."""

from __future__ import annotations

import pytest

from repro.auditstore import (
    AuditSpec,
    BlobImage,
    DurableAuditStore,
    FLUSH_POLICIES,
    SegmentedAuditStore,
    decode_checkpoint,
    decode_segment,
    encode_checkpoint,
    encode_segment,
)
from repro.auditstore.durable import _segment_blob_name
from repro.cluster.federation import Topology
from repro.cluster.merge import ClusterAuditLog
from repro.cluster.replica import ReplicaGroup
from repro.core.services.keyservice import KeyService
from repro.costmodel import DEFAULT_COSTS
from repro.errors import AuditRecoveryError, ConfigError, FileExists
from repro.sim import Simulation
from repro.storage.backend import BlobStore, make_backend, volume_contents
from tests.codec_oracle import encode_segment_from_scratch, refooter

GENESIS = b"\x00" * 32

#: bytes before a sealed segment's first record: magic 6, index 4, base
#: sequence 8, base hash 32, flags 1, seal record 80, entry count 4.
_SEALED_HEADER = 6 + 4 + 8 + 32 + 1 + 80 + 4


def _durable(backend="memory", segment_entries=4, flush_policy="every-seal",
             flush_every=64, namespace="audit/test"):
    store = BlobStore(backend, DEFAULT_COSTS)
    log = DurableAuditStore.create(
        store.namespace(namespace),
        name="key-access",
        segment_entries=segment_entries,
        flush_policy=flush_policy,
        flush_every=flush_every,
    )
    return log, store


def _fill(log, n=10, t0=0.0, device="dev-1"):
    for i in range(n):
        log.append(t0 + i * 1.0, device, "fetch",
                   audit_id=bytes([i % 5]) * 24)


def _recover(ns, segment_entries=4, **kwargs):
    return DurableAuditStore.recover(
        BlobImage(ns.snapshot()),
        name="key-access",
        segment_entries=segment_entries,
        **kwargs,
    )


class TestBlobStore:
    def test_write_once_by_default(self):
        store = BlobStore("memory", DEFAULT_COSTS)
        store.put("a", b"one")
        with pytest.raises(FileExists):
            store.put("a", b"two")
        store.put("a", b"two", overwrite=True)
        assert store.get("a") == b"two"

    def test_namespace_isolates_and_strips_prefix(self):
        store = BlobStore("memory", DEFAULT_COSTS)
        ns_a = store.namespace("audit/a")
        ns_b = store.namespace("audit/b")
        ns_a.put("tail", b"x")
        assert ns_a.names() == ["tail"]
        assert ns_b.names() == []
        assert store.names() == ["audit/a/tail"]

    def test_memory_puts_are_free_ext3_are_not(self):
        free = BlobStore("memory", DEFAULT_COSTS)
        paid = BlobStore("ext3", DEFAULT_COSTS)
        assert free.put("a", b"x" * 5000) == 0.0
        assert paid.put("a", b"x" * 5000) > 0.0
        # two 4096-byte blocks for 5000 bytes
        assert paid.stats()["bytes_written"] == 5000

    def test_cas_deduplicates_chunk_cost(self):
        store = BlobStore("cas", DEFAULT_COSTS)
        first = store.put("a", b"y" * 4096)
        second = store.put("b", b"y" * 4096)  # same content, new name
        assert second < first

    def test_volume_contents_lists_blobs(self):
        sim = Simulation()
        backend = make_backend("memory")
        stack = backend.create(sim, DEFAULT_COSTS)
        stack.blobs.put("audit/svc/seg-00000000", b"data")
        present = sim.run_process(volume_contents(stack.fs, stack.blobs))
        assert "blob:audit/svc/seg-00000000" in present


class TestCodec:
    def test_segment_roundtrip_sealed_and_tail(self):
        inner = SegmentedAuditStore(segment_entries=4)
        _fill(inner, 6)
        sealed, tail = inner.segments[0], inner.segments[1]
        for seg in (sealed, tail):
            back = decode_segment(encode_segment(seg))
            assert back.index == seg.index
            assert back.sealed == seg.sealed
            assert [e.chain_hash for e in back] == [
                e.chain_hash for e in seg
            ]
            assert back.last_hash == seg.last_hash

    def test_decode_rejects_any_flipped_byte_region(self):
        inner = SegmentedAuditStore(segment_entries=4)
        _fill(inner, 4)
        blob = encode_segment(inner.segments[0])
        for pos in (0, len(blob) // 2, len(blob) - 1):
            bad = bytearray(blob)
            bad[pos] ^= 0xFF
            with pytest.raises(AuditRecoveryError):
                decode_segment(bytes(bad))

    def test_decode_rejects_truncation(self):
        inner = SegmentedAuditStore(segment_entries=4)
        _fill(inner, 4)
        blob = encode_segment(inner.segments[0])
        with pytest.raises(AuditRecoveryError):
            decode_segment(blob[:-1])

    def test_invalid_utf8_is_a_recovery_error_even_with_a_valid_footer(self):
        # device id, kind, field key and an S-tagged field value
        inner = SegmentedAuditStore(segment_entries=4)
        for i in range(4):
            inner.append(float(i), "dev-1", "fetch", note="hello")
        blob = encode_segment(inner.segments[0])
        for text in (b"dev-1", b"fetch", b"note", b"hello"):
            forged = refooter(blob[:-32].replace(text, b"\xff" * len(text)))
            with pytest.raises(AuditRecoveryError):
                decode_segment(forged)
        ckpt = encode_checkpoint(
            1, b"\xab" * 32, {"dev-1": [0]}, {b"f" * 24: [0]}, [(0.5, 0)],
            1, 0)
        forged = refooter(ckpt[:-32].replace(b"dev-1", b"\xff" * 5))
        with pytest.raises(AuditRecoveryError):
            decode_checkpoint(forged)

    def test_recover_refuses_invalid_utf8_with_a_recovery_error(self):
        log, store = _durable(flush_policy="every-append", segment_entries=4)
        _fill(log, 6)
        image = store.namespace("audit/test").snapshot()
        name = _segment_blob_name(0)
        image[name] = refooter(
            image[name][:-32].replace(b"dev-1", b"\xff" * 5))
        with pytest.raises(AuditRecoveryError):
            DurableAuditStore.recover(BlobImage(image), name="key-access",
                                      segment_entries=4)

    def test_slack_inside_a_record_is_refused(self):
        inner = SegmentedAuditStore(segment_entries=4)
        _fill(inner, 4)
        body = encode_segment(inner.segments[0])[:-32]
        first = _SEALED_HEADER  # then four equal-sized records
        length = int.from_bytes(body[first:first + 4], "big")
        last = len(body) - 4 - length
        for at in (first, last):
            end = at + 4 + length
            padded = (body[:at] + (length + 5).to_bytes(4, "big")
                      + body[at + 4:end] + b"junk!" + body[end:])
            with pytest.raises(AuditRecoveryError, match="record"):
                decode_segment(refooter(padded))
        assert len(decode_segment(refooter(body))) == 4

    def test_record_running_off_the_body_is_refused(self):
        # The last record and the bytes value inside it both claim five
        # bytes more than the body holds: every slice comes back short
        # without raising, and the parse still "ends" on the record end.
        inner = SegmentedAuditStore(segment_entries=4)
        _fill(inner, 4)
        body = encode_segment(inner.segments[0])[:-32]
        value = len(body) - 32 - 24 - 4  # u32 length of the 24-byte audit id
        assert body[value:value + 4] == (24).to_bytes(4, "big")
        length = int.from_bytes(
            body[_SEALED_HEADER:_SEALED_HEADER + 4], "big")
        record = len(body) - 4 - length
        forged = (body[:record] + (length + 5).to_bytes(4, "big")
                  + body[record + 4:value] + (29).to_bytes(4, "big")
                  + body[value + 4:])
        with pytest.raises(AuditRecoveryError, match="truncated"):
            decode_segment(refooter(forged))

    def test_checkpoint_roundtrip(self):
        blob = encode_checkpoint(
            7, b"\xab" * 32, {"dev-1": [0, 1]}, {b"f" * 24: [1]},
            [(0.5, 0), (1.5, 1)], 7, 0,
        )
        back = decode_checkpoint(blob)
        assert back["upto"] == 7
        assert back["bound_hash"] == b"\xab" * 32
        assert back["timeline"] == {"dev-1": [0, 1]}


class TestFlushPolicies:
    def test_policy_names_are_closed(self):
        assert FLUSH_POLICIES == ("every-append", "every-seal", "every-n")
        with pytest.raises(ConfigError):
            AuditSpec(store="durable", flush_policy="sometimes")

    def test_every_append_never_lags(self):
        log, _ = _durable(flush_policy="every-append")
        _fill(log, 7)
        assert log.stats()["durable"]["unflushed_entries"] == 0

    def test_every_seal_lags_only_the_open_tail(self):
        log, _ = _durable(flush_policy="every-seal", segment_entries=4)
        _fill(log, 7)
        durable = log.stats()["durable"]
        assert durable["flushed_entries"] == 4
        assert durable["unflushed_entries"] == 3

    def test_every_n_flushes_in_batches(self):
        log, _ = _durable(flush_policy="every-n", flush_every=3,
                          segment_entries=100)
        _fill(log, 7)
        assert log.stats()["durable"]["flushed_entries"] == 6
        _fill(log, 2, t0=100.0)
        assert log.stats()["durable"]["flushed_entries"] == 9

    def test_seal_spills_regardless_of_policy(self):
        for policy, kwargs in (("every-seal", {}), ("every-append", {}),
                               ("every-n", {"flush_every": 50})):
            log, store = _durable(flush_policy=policy, segment_entries=4,
                                  **kwargs)
            _fill(log, 5)
            assert log.stats()["durable"]["spilled_segments"] == 1
            assert store.exists("audit/test/" + _segment_blob_name(0))

    def test_every_put_charges_fsync(self):
        log, _ = _durable(backend="memory", flush_policy="every-append")
        _fill(log, 3)
        pending = log.take_pending_cost()
        assert pending == pytest.approx(3 * DEFAULT_COSTS.audit_fsync)
        assert log.take_pending_cost() == 0.0


class TestCrashRecovery:
    def test_roundtrip_preserves_every_flushed_entry(self):
        log, store = _durable(backend="ext3", flush_policy="every-append",
                              segment_entries=4)
        _fill(log, 11)
        before = log.crash()
        back = _recover(store.namespace("audit/test"),
                        entries_before=before)
        assert back.verify_chain()
        assert len(back) == 11
        assert [e.chain_hash for e in back] == [e.chain_hash for e in log]
        assert back.recovery["lost_entries"] == 0

    def test_unflushed_tail_loss_is_detected_never_silent(self):
        log, store = _durable(flush_policy="every-seal", segment_entries=4)
        _fill(log, 7)  # 4 flushed via seal, 3 dangling in the tail
        before = log.crash()
        back = _recover(store.namespace("audit/test"),
                        entries_before=before)
        assert len(back) == 4
        assert back.recovery["entries_before"] == 7
        assert back.recovery["lost_entries"] == 3

    def test_crashed_store_refuses_writes(self):
        log, _ = _durable()
        _fill(log, 2)
        log.crash()
        with pytest.raises(AuditRecoveryError):
            log.append(9.0, "dev-1", "fetch", audit_id=b"a" * 24)

    def test_store_recovered_from_an_image_refuses_writes(self):
        """A seized image is evidence: a store recovered from it
        refuses to flush into the image."""
        log, store = _durable(flush_policy="every-append",
                              segment_entries=4)
        _fill(log, 2)
        back = _recover(store.namespace("audit/test"),
                        flush_policy="every-append")
        with pytest.raises(AuditRecoveryError, match="read-only"):
            _fill(back, 1, t0=50.0)

    def test_recovered_store_keeps_appending_on_the_same_chain(self):
        log, store = _durable(flush_policy="every-append",
                              segment_entries=4)
        _fill(log, 6)
        log.crash()
        back = _recover(store.namespace("audit/test"))
        back.blobs = store.namespace("audit/test")
        _fill(back, 6, t0=50.0)
        assert back.verify_chain()
        assert len(back) == 12

    def test_tampered_segment_blob_refuses_recovery(self):
        log, store = _durable(flush_policy="every-append",
                              segment_entries=4)
        _fill(log, 5)
        image = store.namespace("audit/test").snapshot()
        name = _segment_blob_name(0)
        image[name] = image[name][:40] + b"\xff" + image[name][41:]
        with pytest.raises(AuditRecoveryError, match="checksum"):
            DurableAuditStore.recover(BlobImage(image), name="key-access",
                                      segment_entries=4)

    def test_missing_interior_segment_refuses_recovery(self):
        log, store = _durable(flush_policy="every-append",
                              segment_entries=2)
        _fill(log, 7)  # segments 0..2 sealed + tail
        image = store.namespace("audit/test").snapshot()
        del image[_segment_blob_name(1)]
        with pytest.raises(AuditRecoveryError):
            DurableAuditStore.recover(BlobImage(image), name="key-access",
                                      segment_entries=2)

    def test_stale_tail_blob_is_ignored(self):
        log, store = _durable(flush_policy="every-append",
                              segment_entries=4)
        _fill(log, 2)
        stale_tail = store.namespace("audit/test").get("tail")
        _fill(log, 3, t0=10.0)  # rolls: seg 0 spilled, fresh tail idx 1
        image = store.namespace("audit/test").snapshot()
        image["tail"] = stale_tail  # pretend the rewrite never landed
        back = DurableAuditStore.recover(BlobImage(image),
                                         name="key-access",
                                         segment_entries=4)
        assert back.recovery["tail_state"] == "stale"
        assert len(back) == 4  # the sealed segment alone
        assert back.verify_chain()


class TestCheckpoints:
    def test_checkpoint_restores_views_and_replays_only_the_tail(self):
        log, store = _durable(flush_policy="every-append",
                              segment_entries=4)
        _fill(log, 6)
        log.checkpoint()
        _fill(log, 3, t0=50.0)
        log.crash()
        back = _recover(store.namespace("audit/test"))
        assert back.recovery["checkpoint_used"]
        assert back.recovery["checkpoint_upto"] == 6
        assert back.recovery["view_tail_replayed"] == 3
        assert back.views.stats()["ingested"] == 9
        assert (back.views.device_timeline("dev-1")
                == list(back.entries(device_id="dev-1")))

    def test_checkpoint_ahead_of_log_is_discarded(self):
        log, store = _durable(flush_policy="every-seal",
                              segment_entries=4)
        _fill(log, 7)
        log.checkpoint()  # flushes everything, binds upto=7
        image = store.namespace("audit/test").snapshot()
        del image["tail"]  # lose the tail: log now ends at 4 < upto 7
        back = DurableAuditStore.recover(BlobImage(image),
                                         name="key-access",
                                         segment_entries=4)
        assert back.recovery["checkpoint_discarded"] == "ahead-of-log"
        assert not back.recovery["checkpoint_used"]
        assert back.views.stats()["ingested"] == len(back)

    def test_checkpoint_binding_mismatch_is_discarded(self):
        log, store = _durable(flush_policy="every-append",
                              segment_entries=4)
        _fill(log, 4)
        image = store.namespace("audit/test").snapshot()
        image["checkpoint"] = encode_checkpoint(
            4, b"\x42" * 32, {}, {}, [], 4, 0,  # wrong bound hash
        )
        back = DurableAuditStore.recover(BlobImage(image),
                                         name="key-access",
                                         segment_entries=4)
        assert back.recovery["checkpoint_discarded"] == "binding-mismatch"
        assert back.views.stats()["ingested"] == 4

    def test_rebind_refused_once_anything_flushed(self):
        log, store = _durable(flush_policy="every-append")
        _fill(log, 1)
        with pytest.raises(AuditRecoveryError, match="rebind"):
            log.rebind_blobs(store.namespace("audit/elsewhere"))

    def test_rebind_allowed_while_empty(self):
        log, store = _durable(flush_policy="every-seal")
        log.rebind_blobs(store.namespace("audit/elsewhere"))
        _fill(log, 5)
        assert store.namespace("audit/elsewhere").names() != []


class TestEncodeOnce:
    """The segment's encoded-record cache: same bytes as the
    from-scratch encoder, and never alive longer than the flush cycle
    that needs it."""

    def test_never_flushed_compacted_segment_encodes_from_packed_form(self):
        # every-seal + auto-compaction: the first encode a segment sees
        # is its spill, after its entries were packed into tuples.
        log, store = _durable(flush_policy="every-seal", segment_entries=4)
        _fill(log, 4)
        sealed = log.segments[0]
        assert sealed.compacted
        assert (store.namespace("audit/test").get(_segment_blob_name(0))
                == encode_segment_from_scratch(sealed))

    def test_partly_flushed_segment_finishes_from_packed_form(self):
        log, store = _durable(flush_policy="every-n", flush_every=3,
                              segment_entries=4)
        _fill(log, 3)  # tail flushed with 3 of the 4 entries encoded
        assert log.segments[0].encoded == 3
        _fill(log, 1, t0=10.0)  # seals + compacts, then spills
        assert (store.namespace("audit/test").get(_segment_blob_name(0))
                == encode_segment_from_scratch(log.segments[0]))

    def test_decoded_segment_starts_with_an_empty_cache(self):
        inner = SegmentedAuditStore(segment_entries=4)
        _fill(inner, 6)
        for seg in inner.segments:
            blob = encode_segment_from_scratch(seg)
            back = decode_segment(blob)
            assert back.encoded == 0 and not back.records
            assert encode_segment(back) == blob

    def test_repeated_tail_encodes_add_only_the_new_entries(self, monkeypatch):
        from repro.auditstore import codec

        encoded = []
        real = codec.encode_entry
        monkeypatch.setattr(
            codec, "encode_entry",
            lambda entry: encoded.append(entry.sequence) or real(entry))
        inner = SegmentedAuditStore(segment_entries=100)
        for upto in (2, 5, 5, 9):
            _fill(inner, upto - len(inner), t0=float(len(inner)))
            tail = inner.segments[0]
            assert encode_segment(tail) == encode_segment_from_scratch(tail)
        assert encoded == list(range(9))

    def test_sealed_segments_hold_no_encoded_records(self):
        for policy in FLUSH_POLICIES:
            log, _ = _durable(flush_policy=policy, flush_every=2,
                              segment_entries=4)
            _fill(log, 11)
            for segment in log.segments[:-1]:
                assert segment.sealed
                assert segment.encoded == 0 and not segment.records

    def test_resident_encoded_bytes_are_bounded_by_one_segment(self):
        log, store = _durable(flush_policy="every-append", segment_entries=8)
        ns = store.namespace("audit/test")
        high_water = 0
        for i in range(200):
            _fill(log, 1, t0=float(i))
            resident = sum(len(s.records) for s in log.segments)
            assert resident == len(log.segments[-1].records)
            high_water = max(high_water, resident)
        one_segment = len(ns.get(_segment_blob_name(0)))
        assert 0 < high_water < one_segment

    def test_crash_releases_the_cache(self):
        log, _ = _durable(flush_policy="every-append", segment_entries=8)
        _fill(log, 3)
        assert log.segments[-1].encoded == 3
        log.crash()
        assert all(s.encoded == 0 and not s.records for s in log.segments)

    def test_rebind_carries_no_cache_across_namespaces(self):
        # rebinding is only legal before the first flush, and the
        # encode is lazy, so nothing was cached for the old namespace.
        log, store = _durable(flush_policy="every-seal", segment_entries=4)
        _fill(log, 3)
        log.rebind_blobs(store.namespace("audit/elsewhere"))
        assert log.segments[-1].encoded == 0
        _fill(log, 1, t0=10.0)
        assert (store.namespace("audit/elsewhere").get(_segment_blob_name(0))
                == encode_segment_from_scratch(log.segments[0]))

    def test_recovered_tail_is_reencoded_once_then_cached(self):
        log, store = _durable(flush_policy="every-append", segment_entries=8)
        _fill(log, 3)
        log.crash()
        ns = store.namespace("audit/test")
        back = DurableAuditStore.recover(
            ns, name="key-access", segment_entries=8,
            flush_policy="every-append")
        assert back.segments[-1].encoded == 0
        _fill(back, 2, t0=10.0)
        assert back.segments[-1].encoded == 5
        assert ns.get("tail") == encode_segment_from_scratch(
            back.segments[-1])


class TestRecoveryOrder:
    """Recovery verifies the chain on the decoded entries and packs the
    sealed segments only afterwards."""

    def test_recovery_compacts_every_sealed_segment_after_verifying(self):
        log, store = _durable(flush_policy="every-append", segment_entries=4)
        _fill(log, 11)
        back = _recover(store.namespace("audit/test"))
        sealed = [s for s in back.segments if s.sealed]
        assert len(sealed) == 2
        assert all(s.compacted for s in sealed)
        assert back.stats()["compactions"] == 2
        assert back.verify_chain()

    def test_recovery_without_auto_compact_leaves_segments_live(self):
        log, store = _durable(flush_policy="every-append", segment_entries=4)
        _fill(log, 11)
        back = _recover(store.namespace("audit/test"), auto_compact=False)
        assert not any(s.compacted for s in back.segments)
        assert back.stats()["compactions"] == 0

    def test_broken_chain_with_valid_checksums_is_refused(self):
        # A forger who can recompute the footer still cannot make the
        # entry chain close: recovery must refuse, not compact and go on.
        log, store = _durable(flush_policy="every-append", segment_entries=4)
        _fill(log, 9)
        image = store.namespace("audit/test").snapshot()
        name = _segment_blob_name(1)
        forged = decode_segment(image[name])
        victim = forged._live[1]
        forged._live[1] = type(victim)(
            sequence=victim.sequence, timestamp=victim.timestamp,
            device_id="dev-evil", kind=victim.kind, fields=victim.fields,
            chain_hash=victim.chain_hash)
        image[name] = encode_segment_from_scratch(forged)
        with pytest.raises(AuditRecoveryError, match="chain verification"):
            DurableAuditStore.recover(BlobImage(image), name="key-access",
                                      segment_entries=4)


class TestMakeAuditLogDurable:
    """``AuditSpec(store="durable").open``."""

    def test_durable_needs_segmented(self):
        # "durable" is its own store; the fleet's legacy pair of knobs
        # cannot ask for a durable flat log.
        from repro.workloads.fleet import run_fleet

        with pytest.raises(ConfigError, match="segmented"):
            run_fleet(devices=1, duration=0.1, audit_store="flat",
                      audit_durable=True)

    def test_durable_needs_blobs(self):
        with pytest.raises(ConfigError, match="blob"):
            AuditSpec(store="durable").open("x")

    def test_durable_wraps_segmented(self):
        log = AuditSpec(store="durable", segment_entries=4).open(
            "x", BlobStore("memory").namespace("audit/x"))
        assert isinstance(log, DurableAuditStore)
        assert isinstance(log, SegmentedAuditStore)
        assert not hasattr(log, "inner")
        _fill(log, 5)
        assert log.stats()["durable"]["spilled_segments"] == 1
        assert log.views.accesses_after(0.0) == list(log)


class TestServiceCrashRestart:
    def _service(self, flush_policy="every-append"):
        sim = Simulation()
        service = KeyService(
            sim, name="svc", audit=AuditSpec(
                store="durable", segment_entries=4,
                flush_policy=flush_policy),
        )
        return sim, service

    def test_durable_needs_segmented_store(self):
        # The durable store is the segmented one; a standalone service
        # spills into a private in-memory namespace.
        _, service = self._service()
        assert isinstance(service.access_log, SegmentedAuditStore)
        assert service.access_log.blobs.prefix == "audit/svc/"

    def test_restart_requires_a_prior_crash(self):
        _, service = self._service()
        with pytest.raises(ConfigError, match="crash"):
            service.restart()

    def test_crash_restart_recovers_flushed_entries(self):
        _, service = self._service()
        _fill(service.access_log, 9)
        assert service.crash() == 9
        assert not service.server.available
        stats = service.restart()
        assert service.server.available
        assert stats["durable"] and stats["lost_entries"] == 0
        assert len(service.access_log) == 9
        assert service.access_log.verify_chain()
        assert service.recovery_stats == stats

    def test_unflushed_tail_loss_is_reported(self):
        _, service = self._service(flush_policy="every-seal")
        _fill(service.access_log, 6)  # 4 flushed at the seal
        service.crash()
        stats = service.restart()
        assert stats["lost_entries"] == 2
        assert len(service.access_log) == 4

    def test_tampered_blobs_leave_the_service_down(self):
        _, service = self._service()
        _fill(service.access_log, 5)
        service.crash()
        blobs = service.access_log.blobs
        blob = blobs.get(_segment_blob_name(0))
        blobs.put(
            _segment_blob_name(0), blob[:-1] + b"\x00", overwrite=True
        )
        with pytest.raises(AuditRecoveryError):
            service.restart()
        assert not service.server.available

    def test_non_durable_restart_starts_empty(self):
        sim = Simulation()
        service = KeyService(sim, name="svc", audit=AuditSpec(
            store="segmented", segment_entries=4))
        _fill(service.access_log, 5)
        service.crash()
        stats = service.restart()
        assert not stats["durable"]
        assert stats["lost_entries"] == 5
        assert len(service.access_log) == 0

    def test_recover_drill_without_durability_is_refused(self):
        sim = Simulation()
        service = KeyService(sim, name="svc",
                             audit=AuditSpec(store="segmented"))
        with pytest.raises(ConfigError):
            service.recover_drill()


class TestClusterKillRestart:
    def _group(self, flush_policy="every-seal"):
        sim = Simulation()
        group = ReplicaGroup(
            sim, Topology.symmetric(("local",), 3, 2), audit=AuditSpec(store="durable", segment_entries=4,
                                       flush_policy=flush_policy),
            audit_blobs=BlobStore("memory", DEFAULT_COSTS),
        )
        return sim, group

    def test_replicas_get_disjoint_blob_namespaces(self):
        _, group = self._group(flush_policy="every-append")
        for replica in group.replicas:
            _fill(replica.access_log, 2)
        prefixes = {r.access_log.blobs.prefix for r in group.replicas}
        assert len(prefixes) == 3

    def test_kill_restart_names_the_loss_as_stale_recovery(self):
        _, group = self._group()
        for replica in group.replicas:
            _fill(replica.access_log, 6)  # 4 flushed, 2 in the tail
        assert group.kill(1) == 6
        stats = group.restart(1)
        assert stats["lost_entries"] == 2
        assert group.recovery_stats()[1] == stats
        cluster = ClusterAuditLog(group, threshold=2)
        kinds = [d.kind for d in cluster.divergences()]
        assert "stale-recovery" in kinds
        stale = [d for d in cluster.divergences()
                 if d.kind == "stale-recovery"]
        assert stale[0].replica_indices == (1,)

    def test_lossless_restart_is_not_a_divergence(self):
        _, group = self._group(flush_policy="every-append")
        for replica in group.replicas:
            _fill(replica.access_log, 6)
        group.kill(2)
        stats = group.restart(2)
        assert stats["lost_entries"] == 0
        cluster = ClusterAuditLog(group, threshold=2)
        assert all(d.kind != "stale-recovery"
                   for d in cluster.divergences())


class TestFleetFaultPlan:
    def test_mid_run_kill_restart_recovers_and_is_traced(self):
        from repro.cluster.faults import FaultPlan
        from repro.workloads.fleet import run_fleet

        result = run_fleet(
            devices=6, duration=3.0, seed=b"durable-fleet",
            replicas=3, threshold=2,
            audit_store="segmented", segment_entries=16,
            audit_durable=True, audit_flush_policy="every-append",
            faults=FaultPlan.replica_kill(1, at=1.0, duration=0.5),
            inspect=lambda group: group.recovery_stats(),
        )
        actions = [text.split()[0] for _, text in result.fault_trace]
        assert actions == ["kill", "restart"]
        stats = result.inspection[1]
        assert stats is not None and stats["durable"]
        assert stats["lost_entries"] == 0  # every-append loses nothing

    def test_fault_plan_needs_a_cluster(self):
        from repro.cluster.faults import FaultPlan
        from repro.workloads.fleet import run_fleet

        with pytest.raises(ValueError, match="replica cluster"):
            run_fleet(devices=2, duration=1.0, seed=b"x", replicas=1,
                      faults=FaultPlan.replica_kill(0, at=0.5,
                                                    duration=0.2))
