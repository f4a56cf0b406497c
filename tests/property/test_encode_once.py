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
   active segment's cache is never larger than its own blob.

Runs under all three flush policies, several segment sizes, and with
auto-compaction on and off.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.auditstore import DurableAuditStore, SegmentedAuditStore, codec
from repro.storage.backend import BlobStore
from tests.codec_oracle import encode_segment_from_scratch, prefix_segment

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

    t = 0.0
    with mock.patch.object(codec, "encode_entry", counting):
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
