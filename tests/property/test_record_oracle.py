"""The chain step and the record encoder against their oracles.

``chain_digest`` writes an entry's chain material as an f-string and
``encode_entry`` packs a record's fixed head in one ``struct`` call;
``tests/codec_oracle.py`` keeps what they replaced (the tuple ``repr``
and one ``pack`` per field).  For random entries with 0-4 fields of
every tagged value kind — ``None``, bools, negative and wider-than-64-bit
ints, ``-0.0`` / ``nan`` / ``inf`` / ``1e16``, bytes with quotes and
backslashes, strings with both quote kinds and non-ASCII text — driven
by hypothesis:

* every chain hash of a segmented store, a flat log and a durable
  store equals the oracle's chain over the same records;
* every encoded record equals the oracle's record;
* ``AuditSegment.verify`` reaches the oracle's last hash on the live
  entries, on the compacted tuples, and on the segment decoded from its
  blob, and ``verify_chain`` holds on the store recovered from blobs.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.auditstore import (
    AppendOnlyLog,
    BlobImage,
    DurableAuditStore,
    SegmentedAuditStore,
    codec,
)
from repro.auditstore.log import GENESIS_HASH
from repro.crypto.sha256 import sha256_fast
from repro.storage.backend import BlobStore
from tests.codec_oracle import (
    oracle_chain_hash,
    oracle_encode_entry,
    oracle_material,
)

QUOTED = st.sampled_from(["'", '"', "\\", "'\"", "it's", 'say "hi"',
                          "back\\slash", "née", "日本", "é'\"\\"])
texts = st.one_of(QUOTED, st.text(max_size=8))
#: field names ``append(timestamp, device_id, kind, **fields)`` can take
keys = texts.filter(lambda key: key not in ("self", "timestamp",
                                            "device_id", "kind"))

values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2 ** 63, max_value=2 ** 63),
    st.integers(min_value=-2 ** 130, max_value=2 ** 130),
    st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), float("-inf"),
                     1e16, -1e16, 0.1]),
    st.floats(),
    st.binary(max_size=12),
    st.sampled_from([b"'", b'"', b"\\", b"'\"\\", b"it's \"q\"\\\n"]),
    texts,
)

records = st.lists(
    st.tuples(
        st.one_of(st.floats(allow_nan=False), st.sampled_from([-0.0, 1e16])),
        texts,
        texts,
        st.dictionaries(keys, values, max_size=4),
    ),
    min_size=1,
    max_size=12,
)


def _oracle_chain(recs) -> list[bytes]:
    """The chain hashes of ``recs`` from the tuple-``repr`` material."""
    prev, out = GENESIS_HASH, []
    for sequence, (timestamp, device_id, kind, fields) in enumerate(recs):
        prev = sha256_fast(prev + oracle_material(
            sequence, timestamp, device_id, kind, fields))
        out.append(prev)
    return out


@given(recs=records)
@settings(max_examples=200, deadline=None)
def test_chain_hashes_and_records_equal_the_oracles(recs):
    want = _oracle_chain(recs)

    store = SegmentedAuditStore(segment_entries=5, auto_compact=False)
    store.append_many([(t, d, k, dict(f)) for t, d, k, f in recs])
    flat = AppendOnlyLog()
    for timestamp, device_id, kind, fields in recs:
        flat.append(timestamp, device_id, kind, **fields)
    assert [e.chain_hash for e in store] == want
    assert [e.chain_hash for e in flat] == want
    assert flat.verify_chain()

    prev = GENESIS_HASH
    for entry in store:
        assert oracle_chain_hash(prev, entry) == entry.chain_hash
        assert codec.encode_entry(entry) == oracle_encode_entry(entry)
        prev = entry.chain_hash

    # live, then packed, then decoded from its blob: each verify path
    # walks the oracle's chain to the oracle's last hash.
    store.force_seal()
    for segment in store.segments:
        if not len(segment):
            continue
        last = want[segment.base_sequence + len(segment) - 1]
        assert segment.verify(segment.base_hash) == last
        decoded = codec.decode_segment(codec.encode_segment(segment))
        assert decoded.verify(segment.base_hash) == last
        assert segment.compact() == len(segment)
        assert segment.verify(segment.base_hash) == last
    assert store.verify_chain()


@given(recs=records)
@settings(max_examples=60, deadline=None)
def test_durable_appends_and_recovery_follow_the_oracle_chain(recs):
    want = _oracle_chain(recs)
    ns = BlobStore("memory").namespace("audit/oracle")
    live = DurableAuditStore.create(ns, segment_entries=3,
                                    flush_policy="every-append")
    for timestamp, device_id, kind, fields in recs:
        live.append(timestamp, device_id, kind, **fields)
    assert [e.chain_hash for e in live] == want
    recovered = DurableAuditStore.recover(
        BlobImage(ns.snapshot()), segment_entries=3,
        entries_before=len(recs))
    assert recovered.recovery["lost_entries"] == 0
    assert recovered.verify_chain()
    assert [e.chain_hash for e in recovered] == want
