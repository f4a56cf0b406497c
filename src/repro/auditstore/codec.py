"""Canonical byte encoding for audit segments and view checkpoints.

This is the durability seam's wire format: the serialization-ready
segment shape (sealed, compacted, seal-chained) cashed in as a
versioned, length-prefixed blob layout.  Two blob kinds exist:

``segment`` (magic ``KPSEG\\x02``)
    One :class:`~repro.auditstore.store.AuditSegment`, entries
    embedded with their chain hashes::

        header   magic · u32 index · u64 base sequence · 32B base hash
        records  per entry: u32 length · encoded entry
        suffix   [sealed only: 32B last hash · 32B seal hash
                  · f64 first timestamp · f64 last timestamp]
                 · u32 entry count · u8 flags (0x01 = sealed)
        footer   SHA-256 over everything before it

    What changes between two flushes of one segment — the entry
    count and, at seal time, the flags and seal record — sits after
    the records, so header · records is a prefix that only grows.  A
    flush therefore extends the segment's running hash of that prefix
    by the new records alone and finishes a copy of it with the
    suffix.  The flags byte is last, so a reader finds the suffix from
    the end of the body.  Sealed segments carry the full seal record
    so the seal chain can be re-verified from blobs alone; unsealed
    tails re-derive their running state from the entries on decode.
    ``KPSEG\\x01`` (count, flags and seal record before the records)
    is refused as bad magic.

``checkpoint`` (magic ``KPCKP\\x01``)
    An :class:`~repro.auditstore.views.AuditViews` snapshot bound to a
    log position: the watermark sequence count and the chain hash of
    the last covered entry.  Recovery replays only the tail past the
    watermark — and discards the checkpoint entirely if its binding
    hash does not match the recovered log (a stale or foreign
    snapshot must never silently shape forensic answers).

Every blob ends in a SHA-256 footer over all preceding bytes, so bit
rot and truncation are detected before any chain math runs.  All
integers are big-endian; strings are UTF-8; field values use a small
tagged encoding (None/bool/int/float/bytes/str) that round-trips
exactly — floats travel as IEEE-754 doubles, which is lossless for
the simulated clocks, so re-deriving ``chain_digest`` over decoded
entries reproduces the original chain bytes bit for bit.

Decode errors raise :class:`~repro.errors.AuditRecoveryError`; this
module never guesses at damaged input.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any

from repro.crypto.sha256 import sha256_fast
from repro.errors import AuditRecoveryError

from .log import LogEntry, new_entry
from .store import AuditSegment

__all__ = [
    "SEGMENT_MAGIC",
    "CHECKPOINT_MAGIC",
    "encode_entry",
    "encode_segment",
    "decode_segment",
    "encode_checkpoint",
    "decode_checkpoint",
]

SEGMENT_MAGIC = b"KPSEG\x02"
CHECKPOINT_MAGIC = b"KPCKP\x01"

_HASH = 32  # sha256 digest size

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_F64 = struct.Struct(">d")

# Fixed-layout runs read or written in one call each.
#: magic, index, base sequence, base hash
_SEGMENT_HEAD = struct.Struct(">6sIQ32s")
#: last hash, seal hash, first and last timestamp
_SEAL_RECORD = struct.Struct(">32s32sdd")
#: entry count, flags
_SEGMENT_END = struct.Struct(">IB")
#: sequence, timestamp, device-id length
_ENTRY_HEAD = struct.Struct(">QdH")
#: record length, then ``_ENTRY_HEAD``
_RECORD_HEAD = struct.Struct(">IQdH")
#: magic, upto, bound hash, ingested, out-of-order
_CHECKPOINT_HEAD = struct.Struct(">6sQ32sQQ")
#: timestamp, sequence
_WINDOW_ITEM = struct.Struct(">dQ")

# Tagged field values.  ``I`` carries a length-prefixed signed
# big-endian payload so arbitrary-precision ints survive.
_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_FLOAT = b"D"
_TAG_BYTES = b"B"
_TAG_STR = b"S"


def _lp(data: bytes, width=_U32) -> bytes:
    return width.pack(len(data)) + data


def _lp_str(text: str, width=_U16) -> bytes:
    return _lp(text.encode("utf-8"), width)


# -- tagged field values -----------------------------------------------------


def _encode_value(value: Any) -> bytes:
    if value is None:
        return _TAG_NONE
    if value is True:
        return _TAG_TRUE
    if value is False:
        return _TAG_FALSE
    if isinstance(value, int):
        n = max(1, (value.bit_length() + 8) // 8)  # room for the sign bit
        return _TAG_INT + _lp(value.to_bytes(n, "big", signed=True), _U16)
    if isinstance(value, float):
        return _TAG_FLOAT + _F64.pack(value)
    if isinstance(value, (bytes, bytearray)):
        return _TAG_BYTES + _lp(bytes(value))
    if isinstance(value, str):
        return _TAG_STR + _lp(value.encode("utf-8"))
    raise AuditRecoveryError(
        f"cannot encode audit field value of type {type(value).__name__}"
    )


def _value_at(body: bytes, pos: int) -> tuple[Any, int]:
    """The tagged value at ``pos`` and the position just past it.

    Slices never raise on a short buffer; the caller's record-end
    equality check is what catches a value that runs off its record.
    """
    tag = body[pos:pos + 1]
    pos += 1
    if tag == _TAG_BYTES:
        (n,) = _U32.unpack_from(body, pos)
        pos += 4
        return body[pos:pos + n], pos + n
    if tag == _TAG_STR:
        (n,) = _U32.unpack_from(body, pos)
        pos += 4
        return body[pos:pos + n].decode("utf-8"), pos + n
    if tag == _TAG_INT:
        (n,) = _U16.unpack_from(body, pos)
        pos += 2
        return int.from_bytes(body[pos:pos + n], "big", signed=True), pos + n
    if tag == _TAG_FLOAT:
        return _F64.unpack_from(body, pos)[0], pos + 8
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_TRUE:
        return True, pos
    if tag == _TAG_FALSE:
        return False, pos
    raise AuditRecoveryError(f"unknown field-value tag {tag!r}")


# -- entries -----------------------------------------------------------------


def encode_entry(entry: LogEntry) -> bytes:
    if len(entry.chain_hash) != _HASH:
        raise AuditRecoveryError(
            f"entry {entry.sequence} has no chain hash; only committed "
            "entries are encodable"
        )
    device_id = entry.device_id.encode()
    kind = entry.kind.encode()
    fields = entry.fields
    parts = [
        _ENTRY_HEAD.pack(entry.sequence, entry.timestamp, len(device_id)),
        device_id,
        _U16.pack(len(kind)),
        kind,
        _U16.pack(len(fields)),
    ]
    for key in sorted(fields):
        parts.append(_lp_str(key))
        value = fields[key]
        if type(value) is bytes:
            parts.append(_TAG_BYTES)
            parts.append(_U32.pack(len(value)))
            parts.append(value)
        else:
            parts.append(_encode_value(value))
    parts.append(entry.chain_hash)
    return b"".join(parts)


# -- segments ----------------------------------------------------------------

_FLAG_SEALED = 0x01


def encode_segment(segment: AuditSegment) -> bytes:
    """Serialize one segment (live or compacted; sealed or the tail).

    Entries are encoded and hashed once: only those added since the
    segment's previous encode are serialised (into its record cache)
    and fed to its running hash of header · records.  The footer is a
    copy of that hash finished with the suffix, and the blob is
    assembled with one join.  A sealed segment is written exactly
    once, so its cache and hash are released here.
    """
    head = _SEGMENT_HEAD.pack(SEGMENT_MAGIC, segment.index,
                              segment.base_sequence, segment.base_hash)
    prefix = segment.prefix_hash
    if prefix is None:
        prefix = segment.prefix_hash = hashlib.sha256(head)
    parts = []
    for entry in segment.entries_from(segment.encoded):
        record = encode_entry(entry)
        parts.append(_U32.pack(len(record)))
        parts.append(record)
    if parts:
        new = b"".join(parts)
        prefix.update(new)
        segment.records += new
    segment.encoded = len(segment)
    if segment.sealed:
        suffix = _SEAL_RECORD.pack(
            segment.last_hash, segment.seal_hash,
            segment.first_timestamp, segment.last_timestamp,
        ) + _SEGMENT_END.pack(len(segment), _FLAG_SEALED)
    else:
        suffix = _SEGMENT_END.pack(len(segment), 0)
    footer = prefix.copy()
    footer.update(suffix)
    blob = b"".join((head, segment.records, suffix, footer.digest()))
    if segment.sealed:
        segment.drop_records()
    return blob


class _Texts(dict):
    """``bytes -> str`` for one blob's device ids, kinds and field
    keys: a handful of distinct values repeated on every record, so
    each is decoded (and held) once."""

    def __missing__(self, raw: bytes) -> str:
        text = self[raw] = raw.decode("utf-8")
        return text


def _checked_body(data: bytes, magic: bytes, what: str, kind: str) -> bytes:
    """The blob minus its footer, once length, checksum and magic hold."""
    if len(data) < len(magic) + _HASH:
        raise AuditRecoveryError(f"{what}: too short to be a {kind}")
    body, footer = data[:-_HASH], data[-_HASH:]
    if sha256_fast(body) != footer:
        raise AuditRecoveryError(f"{what}: checksum footer mismatch")
    if not body.startswith(magic):
        raise AuditRecoveryError(
            f"{what}: bad magic {body[:len(magic)]!r} (expected {magic!r})"
        )
    return body


def decode_segment(data: bytes, what: str = "segment blob") -> AuditSegment:
    """Rebuild a segment; raises :class:`AuditRecoveryError` on damage.

    Verifies the footer before reading anything, then re-derives the
    running state (last hash, time span) from the entries for unsealed
    tails and cross-checks it against the stored seal record for
    sealed segments.  Chain *verification* against neighbours is the
    caller's job (:meth:`SegmentedAuditStore.verify_chain`).

    The suffix is read from the end of the body (its flags byte is
    last), then the records in one pass at explicit offsets.  A
    fixed-width read past the end of the body raises ``struct.error``;
    a variable-width slice cannot, so every record must end exactly
    where its length prefix says (and before the suffix) — that one
    equality bounds every read made inside the record — and the last
    one exactly where the suffix begins.
    """
    body = _checked_body(data, SEGMENT_MAGIC, what, "segment")
    size = len(body)
    record_head = _RECORD_HEAD.unpack_from
    u16 = _U16.unpack_from
    texts = _Texts()
    entries: list[LogEntry] = []
    off = 0
    try:
        _, index, base_sequence, base_hash = _SEGMENT_HEAD.unpack_from(body)
        records_end = size - _SEGMENT_END.size
        count, flags = _SEGMENT_END.unpack_from(body, records_end)
        sealed = flags & _FLAG_SEALED
        if sealed:
            records_end -= _SEAL_RECORD.size
        if records_end < _SEGMENT_HEAD.size:
            raise AuditRecoveryError(
                f"truncated {what}: {size} bytes cannot hold its header "
                "and suffix"
            )
        seal_record = (_SEAL_RECORD.unpack_from(body, records_end)
                       if sealed else None)
        off = _SEGMENT_HEAD.size
        for expected in range(base_sequence, base_sequence + count):
            length, sequence, timestamp, n = record_head(body, off)
            end = off + 4 + length
            if end > records_end:
                raise AuditRecoveryError(
                    f"truncated {what}: entry {expected - base_sequence} "
                    f"claims {length} bytes at offset {off}, the records "
                    f"end at {records_end}"
                )
            if sequence != expected:
                raise AuditRecoveryError(
                    f"{what}: entry {expected - base_sequence} carries "
                    f"sequence {sequence}, expected {expected}"
                )
            pos = off + _RECORD_HEAD.size
            device_id = texts[body[pos:pos + n]]
            pos += n
            (n,) = u16(body, pos)
            pos += 2
            kind = texts[body[pos:pos + n]]
            pos += n
            (n_fields,) = u16(body, pos)
            pos += 2
            fields = {}
            for _ in range(n_fields):
                (n,) = u16(body, pos)
                pos += 2
                key = texts[body[pos:pos + n]]
                fields[key], pos = _value_at(body, pos + n)
            if pos + _HASH != end:
                raise AuditRecoveryError(
                    f"{what}: entry {expected - base_sequence} ends at "
                    f"offset {pos + _HASH}, its record at {end}"
                )
            entries.append(new_entry(
                sequence, timestamp, device_id, kind, fields, body[pos:end]
            ))
            off = end
    except (struct.error, UnicodeDecodeError) as exc:
        raise AuditRecoveryError(
            f"truncated or malformed {what} near offset {off}: {exc}"
        ) from exc
    if off != records_end:
        raise AuditRecoveryError(
            f"{what}: {records_end - off} bytes between the {count} "
            "entries and the suffix"
        )
    segment = AuditSegment(
        index=index, base_sequence=base_sequence, base_hash=base_hash
    )
    segment.hold_many(entries)
    if seal_record is not None:
        last_hash, seal_hash, first_ts, last_ts = seal_record
        # Only a segment with entries seals; a cut through the records can
        # leave a flags byte that reads "sealed" over a count of 0.
        if not count:
            raise AuditRecoveryError(f"{what}: sealed with no entries")
        if segment.last_hash != last_hash:
            raise AuditRecoveryError(
                f"{what}: stored last hash disagrees with entries"
            )
        segment.sealed = True
        segment.last_hash = last_hash
        segment.seal_hash = seal_hash
        segment.first_timestamp = first_ts
        segment.last_timestamp = last_ts
    return segment


# -- view checkpoints --------------------------------------------------------


def encode_checkpoint(
    upto: int,
    bound_hash: bytes,
    timeline: dict[str, list[int]],
    file_access: dict[bytes, list[int]],
    window: list[tuple[float, int]],
    ingested: int,
    out_of_order: int,
) -> bytes:
    parts = [
        CHECKPOINT_MAGIC,
        _U64.pack(upto),
        bound_hash,
        _U64.pack(ingested),
        _U64.pack(out_of_order),
        _U32.pack(len(timeline)),
    ]
    for device_id in sorted(timeline):
        seqs = timeline[device_id]
        parts.append(_lp_str(device_id))
        parts.append(_U32.pack(len(seqs)))
        parts.extend(_U64.pack(s) for s in seqs)
    parts.append(_U32.pack(len(file_access)))
    for audit_id in sorted(file_access):
        seqs = file_access[audit_id]
        parts.append(_lp(audit_id, _U16))
        parts.append(_U32.pack(len(seqs)))
        parts.extend(_U64.pack(s) for s in seqs)
    parts.append(_U32.pack(len(window)))
    for timestamp, sequence in window:
        parts.append(_F64.pack(timestamp))
        parts.append(_U64.pack(sequence))
    body = b"".join(parts)
    return body + sha256_fast(body)


def _sequence_lists(body: bytes, off: int, texts: bool) -> tuple[dict, int]:
    """The ``key -> [sequence, ...]`` table at ``off`` (one unpack per
    list) and the position just past it.  A key slice that runs off
    the body leaves the list-length read behind it out of range."""
    table: dict = {}
    (keys,) = _U32.unpack_from(body, off)
    off += 4
    for _ in range(keys):
        (n,) = _U16.unpack_from(body, off)
        off += 2
        key = body[off:off + n]
        off += n
        (n,) = _U32.unpack_from(body, off)
        off += 4
        table[key.decode("utf-8") if texts else key] = list(
            struct.unpack_from(f">{n}Q", body, off)
        )
        off += 8 * n
    return table, off


def decode_checkpoint(data: bytes, what: str = "checkpoint blob") -> dict:
    body = _checked_body(data, CHECKPOINT_MAGIC, what, "checkpoint")
    try:
        _, upto, bound_hash, ingested, out_of_order = (
            _CHECKPOINT_HEAD.unpack_from(body)
        )
        timeline, off = _sequence_lists(
            body, _CHECKPOINT_HEAD.size, texts=True
        )
        file_access, off = _sequence_lists(body, off, texts=False)
        (n,) = _U32.unpack_from(body, off)
        off += 4
    except (struct.error, UnicodeDecodeError) as exc:
        raise AuditRecoveryError(
            f"truncated or malformed {what}: {exc}"
        ) from exc
    end = off + _WINDOW_ITEM.size * n
    if end != len(body):
        raise AuditRecoveryError(
            f"{what}: window index of {n} items ends {end - len(body):+d} "
            "bytes from the end of the body"
        )
    return {
        "upto": upto,
        "bound_hash": bound_hash,
        "ingested": ingested,
        "out_of_order": out_of_order,
        "timeline": timeline,
        "file_access": file_access,
        "window": list(_WINDOW_ITEM.iter_unpack(body[off:end])),
    }
