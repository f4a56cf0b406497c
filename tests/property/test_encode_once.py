"""Encode-once durable log: same bytes, one encode per entry.

``encode_segment`` keeps the encoded record of every entry it has
already flushed on the segment, so a tail flush serialises only what is
new.  The contract that makes this a replacement and not a format
change, driven by hypothesis:

1. **byte identity** — after every step of a random script (single and
   group appends, forced seals, checkpoints, compaction, crash →
   recover → keep appending) every ``seg-*`` blob and the ``tail`` blob
   equal what the from-scratch encoder (``tests/codec_oracle.py``)
   produces for the corresponding segment of a mirror store replayed
   from the surviving records;
2. **encode once** — ``encode_entry`` runs at most once per committed
   entry, plus at most one re-encode of the recovered tail after each
   recovery;
3. **bounded cache** — sealed segments hold no encoded records, and the
   active segment's cache is never larger than its own blob;
4. **hash once** — each ``encode_segment`` call feeds SHA-256 at most
   the record bytes it adds plus a fixed header-and-suffix allowance
   (exactly: the blob body minus the prefix its running hash already
   covered), counted through ``hashlib.sha256`` while the call runs.

Runs under all three flush policies, several segment sizes, and with
auto-compaction on and off.  Forgeries of the ``KPSEG\\x02`` layout
close the file: a flipped entry count, two swapped records, a sealed
segment with no entries and a blob in the ``KPSEG\\x01`` layout, each
refused by recovery.
"""

from __future__ import annotations

import hashlib
import struct
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.auditstore import (
    BlobImage,
    DurableAuditStore,
    SegmentedAuditStore,
    codec,
    durable,
)
from repro.errors import AuditRecoveryError
from repro.storage.backend import BlobStore
from tests.codec_oracle import (
    HEADER_SIZE,
    SEAL_RECORD_SIZE,
    SUFFIX_SIZE,
    CountingSha256,
    encode_segment_from_scratch,
    prefix_segment,
    refooter,
)

_HASH = 32
#: what a flush may hash beyond its new records: the header (first
#: flush of a segment) and the largest suffix (a sealed segment's).
FIXED_ALLOWANCE = HEADER_SIZE + SEAL_RECORD_SIZE + SUFFIX_SIZE

DEVICES = [f"dev-{i}" for i in range(3)]
AUDIT_IDS = [bytes([i]) * 24 for i in range(4)]
KINDS = ["fetch", "create", "evict"]
#: one value per codec tag, so every field encoding rides the cache
EXTRAS = [None, True, False, 7, -(2 ** 70), 0.25, b"\x00\xff", "näme"]

record = st.tuples(
    st.integers(min_value=0, max_value=len(DEVICES) - 1),
    st.integers(min_value=0, max_value=len(AUDIT_IDS) - 1),
    st.integers(min_value=0, max_value=len(KINDS) - 1),
    st.integers(min_value=0, max_value=len(EXTRAS) - 1),
)

ops = st.lists(
    st.one_of(
        st.tuples(st.just("append"), record),
        st.tuples(st.just("append_many"),
                  st.lists(record, min_size=0, max_size=7)),
        st.tuples(st.just("seal")),
        st.tuples(st.just("checkpoint")),
        st.tuples(st.just("compact")),
        st.tuples(st.just("crash")),
    ),
    min_size=1,
    max_size=30,
)

configs = st.tuples(
    st.sampled_from(["every-append", "every-seal", "every-n"]),
    st.integers(min_value=1, max_value=4),      # flush_every
    st.integers(min_value=2, max_value=6),      # segment_entries
    st.booleans(),                              # auto_compact
)


def _mirror(committed, seals_at, segment_entries):
    """A plain store replayed from the surviving records, forced seals
    landing where the script put them."""
    store = SegmentedAuditStore(name="key-access",
                                segment_entries=segment_entries,
                                auto_compact=False)
    for i, (t, device, kind, fields) in enumerate(committed, 1):
        store.append(t, device, kind, **fields)
        if i in seals_at:
            store.force_seal()
    return store


def _check_blobs(ns, live, mirror):
    """(1) every blob is the from-scratch encoding of its segment."""
    names = ns.names()
    seg_names = [n for n in names if n.startswith("seg-")]
    assert len(seg_names) == live.stats()["durable"]["spilled_segments"]
    for i, name in enumerate(seg_names):
        assert name == f"seg-{i:08d}"
        assert mirror.segments[i].sealed
        assert ns.get(name) == encode_segment_from_scratch(
            mirror.segments[i])
    if "tail" not in names:
        assert not seg_names
        return
    tail = codec.decode_segment(ns.get("tail"))
    assert tail.index == len(seg_names)
    flushed = live.stats()["durable"]["flushed_entries"]
    assert tail.base_sequence + len(tail) == flushed
    assert ns.get("tail") == encode_segment_from_scratch(
        prefix_segment(mirror.segments[tail.index], len(tail)))


def _hash_counting(real_encode_segment, calls):
    """``encode_segment`` behind a wrapper that checks (4) on each call
    and appends ``(bytes hashed, new record bytes)`` to ``calls``."""
    def encode(segment):
        records_before = len(segment.records)
        covered = (0 if segment.prefix_hash is None
                   else HEADER_SIZE + records_before)
        start = CountingSha256.fed
        with mock.patch.object(hashlib, "sha256", CountingSha256):
            blob = real_encode_segment(segment)
        fed = CountingSha256.fed - start
        suffix = SUFFIX_SIZE + (SEAL_RECORD_SIZE if segment.sealed else 0)
        records = len(blob) - _HASH - HEADER_SIZE - suffix
        new = records - records_before
        calls.append((fed, new))
        assert fed <= new + FIXED_ALLOWANCE, (fed, new)
        assert fed == len(blob) - _HASH - covered, (fed, covered)
        assert refooter(blob[:-_HASH]) == blob
        return blob

    return encode


def _check_cache(live):
    """(3) only the active segment caches, and no more than its blob."""
    *sealed, active = live.segments
    for segment in sealed:
        assert segment.encoded == 0 and not segment.records
    assert active.encoded <= len(active)
    assert len(active.records) < len(encode_segment_from_scratch(active))


@given(script=ops, config=configs)
@settings(max_examples=80, deadline=None)
def test_blobs_are_byte_identical_and_entries_encode_once(script, config):
    flush_policy, flush_every, segment_entries, auto_compact = config
    ns = BlobStore("memory").namespace("audit/prop")
    settings_ = dict(name="key-access", segment_entries=segment_entries,
                     auto_compact=auto_compact, flush_policy=flush_policy,
                     flush_every=flush_every)
    live = DurableAuditStore.create(ns, **settings_)

    committed = []      # records the log still holds
    seals_at = set()    # entry counts at which a forced seal landed
    appended = 0        # entries ever committed, lost ones included
    reencodes = 0       # recovered-tail entries a new instance may redo
    calls = []
    real_encode_entry = codec.encode_entry

    def counting(entry):
        calls.append(entry.sequence)
        return real_encode_entry(entry)

    def commit(rec, t):
        dev, aid, kind, extra = rec
        return (t, DEVICES[dev], KINDS[kind],
                {"audit_id": AUDIT_IDS[aid], "extra": EXTRAS[extra]})

    hashed = []
    t = 0.0
    with mock.patch.object(codec, "encode_entry", counting), \
            mock.patch.object(durable, "encode_segment", _hash_counting(
                durable.encode_segment, hashed)):
        for op in script:
            if op[0] == "append":
                t += 1.0
                stamp, device, kind, fields = commit(op[1], t)
                live.append(stamp, device, kind, **fields)
                committed.append((stamp, device, kind, fields))
                appended += 1
            elif op[0] == "append_many":
                batch = []
                for rec in op[1]:
                    t += 1.0
                    batch.append(commit(rec, t))
                live.append_many(batch)
                committed.extend(batch)
                appended += len(batch)
            elif op[0] == "seal":
                if live.force_seal() is not None:
                    seals_at.add(len(committed))
            elif op[0] == "checkpoint":
                live.checkpoint()
            elif op[0] == "compact":
                live.compact()
            else:
                flushed = live.stats()["durable"]["flushed_entries"]
                live.crash()
                assert not live.segments[-1].records
                live = DurableAuditStore.recover(
                    ns, entries_before=len(committed), **settings_)
                assert live.recovery["lost_entries"] == \
                    len(committed) - flushed
                del committed[flushed:]
                reencodes += live.recovery["tail_entries"]

            mirror = _mirror(committed, seals_at, segment_entries)
            assert [e.chain_hash for e in live] == \
                [e.chain_hash for e in mirror]
            _check_blobs(ns, live, mirror)
            _check_cache(live)
            # (2) each entry at most once, plus the recovered tails
            assert len(calls) <= appended + reencodes
            if not reencodes:
                assert len(calls) == len(set(calls))

    assert live.verify_chain()
    # (4) over the whole script: at most the record bytes flushed plus
    # the fixed allowance once per flush.
    assert sum(fed for fed, _ in hashed) <= \
        sum(new for _, new in hashed) + FIXED_ALLOWANCE * len(hashed)


# -- forgeries of the v2 layout ---------------------------------------------


def _spilled_image():
    """A crash image with two sealed four-entry segments and a tail."""
    ns = BlobStore("memory").namespace("audit/forge")
    live = DurableAuditStore.create(ns, name="key-access", segment_entries=4,
                                    flush_policy="every-append")
    for i in range(10):
        live.append(float(i), DEVICES[i % 3], "fetch",
                    audit_id=AUDIT_IDS[i % 4])
    return ns.snapshot()


def _recover(image):
    return DurableAuditStore.recover(BlobImage(image), name="key-access",
                                     segment_entries=4)


def _record_spans(body: bytes) -> list[tuple[int, int]]:
    """``(start, end)`` of each length-prefixed record of a blob body."""
    suffix = SUFFIX_SIZE + (SEAL_RECORD_SIZE if body[-1] & 0x01 else 0)
    spans, at = [], HEADER_SIZE
    while at < len(body) - suffix:
        end = at + 4 + int.from_bytes(body[at:at + 4], "big")
        spans.append((at, end))
        at = end
    return spans


def test_the_image_recovers_untouched():
    assert len(_recover(_spilled_image())) == 10


@pytest.mark.parametrize("blob", ["seg-00000000", "tail"])
@pytest.mark.parametrize("count", [0, 3, 5, 2 ** 31])
def test_a_flipped_entry_count_is_refused(blob, count):
    image = _spilled_image()
    body = bytearray(image[blob][:-_HASH])
    assert int.from_bytes(body[-5:-1], "big") in (4, 2)
    body[-5:-1] = count.to_bytes(4, "big")
    image[blob] = refooter(bytes(body))
    with pytest.raises(AuditRecoveryError):
        _recover(image)


@pytest.mark.parametrize("blob", ["seg-00000000", "seg-00000001", "tail"])
def test_swapped_records_are_refused(blob):
    image = _spilled_image()
    body = image[blob][:-_HASH]
    (a, b), (c, d) = _record_spans(body)[:2]
    image[blob] = refooter(body[:a] + body[c:d] + body[a:b] + body[d:])
    with pytest.raises(AuditRecoveryError, match="sequence"):
        _recover(image)


def test_a_sealed_segment_without_entries_is_refused():
    # What a cut through the records can leave: a flags byte that reads
    # "sealed" over a zero count, and no entry to check the seal against.
    image = _spilled_image()
    body = image["seg-00000000"][:-_HASH]
    image["seg-00000000"] = refooter(
        body[:HEADER_SIZE] + body[-SEAL_RECORD_SIZE - SUFFIX_SIZE:-5]
        + struct.pack(">IB", 0, 0x01))
    with pytest.raises(AuditRecoveryError, match="sealed with no entries"):
        _recover(image)


def _as_v1(blob: bytes) -> bytes:
    """The same segment in the ``KPSEG\\x01`` layout: flags, seal
    record and count before the records."""
    body = blob[:-_HASH]
    sealed = body[-1] & 0x01
    suffix = SUFFIX_SIZE + (SEAL_RECORD_SIZE if sealed else 0)
    seal, (count, flags) = body[-suffix:-5], struct.unpack(">IB", body[-5:])
    return refooter(b"KPSEG\x01" + body[6:HEADER_SIZE]
                    + bytes([flags]) + seal + count.to_bytes(4, "big")
                    + body[HEADER_SIZE:-suffix])


@pytest.mark.parametrize("blob", ["seg-00000000", "tail"])
def test_a_v1_blob_is_refused_as_bad_magic(blob):
    image = _spilled_image()
    v1 = _as_v1(image[blob])
    assert len(v1) == len(image[blob])
    image[blob] = v1
    with pytest.raises(AuditRecoveryError, match="bad magic"):
        _recover(image)
