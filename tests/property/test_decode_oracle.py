"""One-pass blob decode and packed-form verification against their oracles.

``codec.decode_segment`` / ``codec.decode_checkpoint`` walk a blob with
``struct.unpack_from`` at explicit offsets; the cursor decoder they
replaced lives on in ``tests/codec_oracle.py``.  ``AuditSegment.verify``
hashes a compacted segment straight from its packed tuples; the
definition of the chain step is still ``entry_digest``.  Driven by
hypothesis:

(a) **same result** — for random entries (every tagged value kind, 0..n
    fields, non-ASCII text) in every segment shape (empty, active tail,
    sealed, compacted before its first flush) both decoders return the
    same segment, field for field and seal record included, and
    re-encoding it reproduces the blob byte for byte; likewise for
    checkpoints;
(b) **same refusals** — for every prefix truncation, random byte flips
    and slack planted inside a record, with the footer left stale or
    recomputed, both decoders agree on accept/refuse, except that only
    the oracle lets ``UnicodeDecodeError`` out on invalid UTF-8 and
    accepts in-record slack; nothing but ``AuditRecoveryError`` ever
    escapes the new decoder;
(c) **same chain** — packed ``verify`` == live ``verify`` == a loop over
    ``entry_digest``, and changing any one column of any one packed
    tuple makes ``verify`` return ``None``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.auditstore import SegmentedAuditStore, codec
from repro.auditstore.log import entry_digest
from repro.errors import AuditRecoveryError
from tests.codec_oracle import (
    HEADER_SIZE,
    SEAL_RECORD_SIZE,
    SUFFIX_SIZE,
    _Reader,
    decode_entry,
    encode_segment_from_scratch,
    oracle_checkpoint,
    oracle_segment,
    refooter,
)

U64 = st.integers(min_value=0, max_value=2 ** 64 - 1)
floats = st.floats(allow_nan=False)  # -0.0 and +-inf included
texts = st.text(max_size=8)

values = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2 ** 200, 2 ** 200),
    floats, st.sampled_from([-0.0, float("inf"), float("-inf")]),
    st.binary(max_size=40), texts,
)

records = st.lists(
    st.tuples(floats, texts, texts,
              st.dictionaries(texts, values, max_size=4)),
    max_size=6,
)

SHAPES = ("tail", "sealed", "compacted")

segments = st.tuples(
    st.integers(min_value=0, max_value=3),  # sealed segments before it
    records,
    st.sampled_from(SHAPES),
)


def _segment(spec):
    """The segment ``spec`` describes, cut from a real store so that its
    index, base sequence, base hash and seal chain are not the genesis
    ones.  No records -> the empty active segment, whatever the shape."""
    before, recs, shape = spec
    store = SegmentedAuditStore(segment_entries=64, auto_compact=False)
    for i in range(before):
        store.append(float(i), "dev-0", "fetch", audit_id=b"\x01" * 24)
        store.force_seal()
    store.append_many(recs)
    segment = store.segments[-1]
    if recs and shape != "tail":
        store.force_seal()
        if shape == "compacted":
            store.compact()
    return segment


def _same_segment(new, old):
    # repr, not ==: 0.0 == -0.0 and True == 1 must not pass for equal.
    assert [repr(e) for e in new] == [repr(e) for e in old]
    for attr in ("index", "base_sequence", "base_hash", "sealed", "compacted",
                 "last_hash", "seal_hash", "first_timestamp",
                 "last_timestamp", "encoded"):
        assert repr(getattr(new, attr)) == repr(getattr(old, attr)), attr
    assert not new.compacted and not new.records


def _outcome(decode, blob):
    """("ok", result) | ("refused", None) | ("unicode", None); any other
    exception propagates and fails the test."""
    try:
        return "ok", decode(blob)
    except AuditRecoveryError:
        return "refused", None
    except UnicodeDecodeError:
        return "unicode", None


def _has_slack(blob: bytes) -> bool:
    """Whether some record of an oracle-accepted segment blob is longer
    than the entry inside it."""
    body = blob[:-32]
    suffix = SUFFIX_SIZE + (SEAL_RECORD_SIZE if body[-1] & 0x01 else 0)
    r = _Reader(body[HEADER_SIZE:-suffix], "records")
    for _ in range(int.from_bytes(body[-5:-1], "big")):
        record = _Reader(r.lp_bytes(), "record")
        decode_entry(record)
        if record.off != len(record.data):
            return True
    return False


def _agree(blob: bytes, new_decode, old_decode, same, slack=None):
    new, got = _outcome(new_decode, blob)
    old, want = _outcome(old_decode, blob)
    assert new != "unicode", "UnicodeDecodeError escaped the decoder"
    if old == "ok" and new == "ok":
        same(got, want)
    elif old == "ok":
        assert slack is not None and slack(blob), \
            "refused a blob the oracle accepts, and it holds no slack"
    else:
        assert new == "refused"


# -- (a) same result ---------------------------------------------------------


@given(spec=segments)
@settings(max_examples=150, deadline=None)
def test_segment_decodes_like_the_oracle_and_reencodes_identically(spec):
    segment = _segment(spec)
    blob = codec.encode_segment(segment)
    assert blob == encode_segment_from_scratch(segment)
    new = codec.decode_segment(blob)
    _same_segment(new, oracle_segment(blob))
    assert encode_segment_from_scratch(new) == blob
    assert codec.encode_segment(new) == blob


checkpoints = st.fixed_dictionaries({
    "upto": U64,
    "bound_hash": st.binary(min_size=32, max_size=32),
    "timeline": st.dictionaries(texts, st.lists(U64, max_size=6), max_size=4),
    "file_access": st.dictionaries(
        st.binary(max_size=30), st.lists(U64, max_size=6), max_size=4),
    "window": st.lists(st.tuples(floats, U64), max_size=8),
    "ingested": U64,
    "out_of_order": U64,
})


def _same_checkpoint(new, old):
    assert repr(new) == repr(old)


@given(state=checkpoints)
@settings(max_examples=150, deadline=None)
def test_checkpoint_decodes_like_the_oracle_and_reencodes_identically(state):
    blob = codec.encode_checkpoint(**state)
    new = codec.decode_checkpoint(blob)
    _same_checkpoint(new, oracle_checkpoint(blob))
    assert codec.encode_checkpoint(**new) == blob
    assert {k: new[k] for k in ("upto", "bound_hash", "ingested",
                                "out_of_order")} == \
        {k: state[k] for k in ("upto", "bound_hash", "ingested",
                               "out_of_order")}


# -- (b) same refusals -------------------------------------------------------

flips = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
              st.integers(min_value=1, max_value=255)),
    min_size=1, max_size=3,
)


def _flipped(body: bytes, where) -> bytes:
    out = bytearray(body)
    for share, mask in where:
        out[int(share * len(out))] ^= mask
    return bytes(out)


@given(spec=segments)
@settings(max_examples=40, deadline=None)
def test_every_truncated_segment_is_refused_by_both(spec):
    blob = codec.encode_segment(_segment(spec))
    body = blob[:-32]
    for cut in range(len(blob)):
        for damaged in (blob[:cut], refooter(body[:cut])):
            if damaged == blob:
                continue
            assert _outcome(codec.decode_segment, damaged)[0] == "refused"
            assert _outcome(oracle_segment, damaged)[0] == "refused"


@given(state=checkpoints)
@settings(max_examples=40, deadline=None)
def test_every_truncated_checkpoint_is_refused_by_both(state):
    blob = codec.encode_checkpoint(**state)
    body = blob[:-32]
    for cut in range(len(blob)):
        for damaged in (blob[:cut], refooter(body[:cut])):
            if damaged == blob:
                continue
            assert _outcome(codec.decode_checkpoint, damaged)[0] == "refused"
            assert _outcome(oracle_checkpoint, damaged)[0] == "refused"


@given(spec=segments, where=flips)
@settings(max_examples=300, deadline=None)
def test_flipped_segment_bytes_get_the_oracles_verdict(spec, where):
    blob = codec.encode_segment(_segment(spec))
    body = _flipped(blob[:-32], where)
    for damaged in (body + blob[-32:], refooter(body)):
        _agree(damaged, codec.decode_segment, oracle_segment, _same_segment,
               slack=_has_slack)


@given(state=checkpoints, where=flips)
@settings(max_examples=300, deadline=None)
def test_flipped_checkpoint_bytes_get_the_oracles_verdict(state, where):
    blob = codec.encode_checkpoint(**state)
    body = _flipped(blob[:-32], where)
    for damaged in (body + blob[-32:], refooter(body)):
        _agree(damaged, codec.decode_checkpoint, oracle_checkpoint,
               _same_checkpoint)


@given(spec=segments.filter(lambda spec: spec[1]),
       victim=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
       junk=st.binary(min_size=1, max_size=9))
@settings(max_examples=100, deadline=None)
def test_slack_inside_a_record_is_refused_where_the_oracle_accepts(
        spec, victim, junk):
    segment = _segment(spec)
    body = codec.encode_segment(segment)[:-32]
    at = HEADER_SIZE
    for entry in list(segment)[:int(victim * len(segment))]:
        at += 4 + len(codec.encode_entry(entry))
    length = int.from_bytes(body[at:at + 4], "big")
    end = at + 4 + length
    forged = refooter(
        body[:at] + (length + len(junk)).to_bytes(4, "big")
        + body[at + 4:end] + junk + body[end:])
    assert _has_slack(forged)
    assert _outcome(oracle_segment, forged)[0] == "ok"
    assert _outcome(codec.decode_segment, forged)[0] == "refused"


# -- (c) same chain ----------------------------------------------------------


def _changed(packed: tuple, column: int) -> tuple:
    value = packed[column]
    if column == 0:
        value += 1
    elif column == 1:
        value = 1.5 if value == 0.5 else 0.5
    elif column in (2, 3):
        value += "x"
    elif column == 4:
        value = value[1:] if value else (("audit_id", None),)
    else:
        value = bytes([value[0] ^ 0x01]) + value[1:]
    return packed[:column] + (value,) + packed[column + 1:]


@given(spec=segments.filter(lambda spec: spec[1]),
       row=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
       column=st.integers(min_value=0, max_value=5))
@settings(max_examples=200, deadline=None)
def test_packed_verify_is_live_verify_is_entry_digest(spec, row, column):
    segment = _segment((spec[0], spec[1], "sealed"))
    prev = segment.base_hash
    for entry in segment:
        assert entry_digest(prev, entry) == entry.chain_hash
        prev = entry.chain_hash
    assert segment.verify(segment.base_hash) == prev
    assert segment.compact() == len(spec[1])
    assert segment.verify(segment.base_hash) == prev
    assert segment.verify(b"\x01" * 32) is None

    at = int(row * len(segment))
    intact = segment._packed[at]
    segment._packed[at] = _changed(intact, column)
    assert segment.verify(segment.base_hash) is None
    segment._packed[at] = intact
    assert segment.verify(segment.base_hash) == prev
