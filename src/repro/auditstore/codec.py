"""Canonical byte encoding for audit segments and view checkpoints.

This is the durability seam's wire format: the serialization-ready
segment shape (sealed, compacted, seal-chained) finally cashed in as a
versioned, length-prefixed blob layout.  Two blob kinds exist:

``segment`` (magic ``KPSEG\\x01``)
    One :class:`~repro.auditstore.store.AuditSegment`, entries
    embedded with their chain hashes.  Sealed segments carry the full
    seal record (last hash, seal hash, time span) so the seal chain
    can be re-verified from blobs alone; unsealed tails re-derive
    their running state from the entries on decode.

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
the simulated clocks, so re-deriving ``entry_digest`` over decoded
entries reproduces the original chain bytes bit for bit.

Decode errors raise :class:`~repro.errors.AuditRecoveryError`; this
module never guesses at damaged input.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.crypto.sha256 import sha256_fast
from repro.errors import AuditRecoveryError

from .log import LogEntry
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

SEGMENT_MAGIC = b"KPSEG\x01"
CHECKPOINT_MAGIC = b"KPCKP\x01"

_HASH = 32  # sha256 digest size

_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_F64 = struct.Struct(">d")

# Fixed-layout runs the decoders read in one call each.
#: magic, index, base sequence, base hash, flags
_SEGMENT_HEAD = struct.Struct(">6sIQ32sB")
#: last hash, seal hash, first and last timestamp
_SEAL_RECORD = struct.Struct(">32s32sdd")
#: record length, sequence, timestamp, device-id length
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
    parts = [
        _U64.pack(entry.sequence),
        _F64.pack(entry.timestamp),
        _lp_str(entry.device_id),
        _lp_str(entry.kind),
        _U16.pack(len(entry.fields)),
    ]
    for key in sorted(entry.fields):
        parts.append(_lp_str(key))
        parts.append(_encode_value(entry.fields[key]))
    parts.append(entry.chain_hash)
    return b"".join(parts)


# -- segments ----------------------------------------------------------------

_FLAG_SEALED = 0x01


def encode_segment(segment: AuditSegment) -> bytes:
    """Serialize one segment (live or compacted; sealed or the tail).

    Entries are encoded once: only those added since the segment's
    previous encode are serialised (into its record cache), and the
    blob is assembled from the cache.  A sealed segment is written
    exactly once, so its cache is released here.
    """
    records = segment.records
    for entry in segment.entries_from(segment.encoded):
        records += _lp(encode_entry(entry))
    segment.encoded = len(segment)
    parts = [
        SEGMENT_MAGIC,
        _U32.pack(segment.index),
        _U64.pack(segment.base_sequence),
        segment.base_hash,
        _U8.pack(_FLAG_SEALED if segment.sealed else 0),
    ]
    if segment.sealed:
        parts.append(segment.last_hash)
        parts.append(segment.seal_hash)
        parts.append(_F64.pack(segment.first_timestamp))
        parts.append(_F64.pack(segment.last_timestamp))
    parts.append(_U32.pack(len(segment)))
    parts.append(records)
    body = b"".join(parts)
    if segment.sealed:
        segment.drop_records()
    return body + sha256_fast(body)


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

    One pass over the body at explicit offsets.  A fixed-width read
    past the end of the body raises ``struct.error``; a variable-width
    slice cannot, so every record must end exactly where its length
    prefix says (and inside the body) — that one equality bounds every
    read made inside the record.
    """
    body = _checked_body(data, SEGMENT_MAGIC, what, "segment")
    size = len(body)
    record_head = _RECORD_HEAD.unpack_from
    u16 = _U16.unpack_from
    texts = _Texts()
    entries: list[LogEntry] = []
    off = 0
    try:
        _, index, base_sequence, base_hash, flags = _SEGMENT_HEAD.unpack_from(
            body
        )
        off = _SEGMENT_HEAD.size
        seal_record = None
        if flags & _FLAG_SEALED:
            seal_record = _SEAL_RECORD.unpack_from(body, off)
            off += _SEAL_RECORD.size
        (count,) = _U32.unpack_from(body, off)
        off += 4
        for expected in range(base_sequence, base_sequence + count):
            length, sequence, timestamp, n = record_head(body, off)
            end = off + 4 + length
            if end > size:
                raise AuditRecoveryError(
                    f"truncated {what}: entry {expected - base_sequence} "
                    f"claims {length} bytes at offset {off}, body is "
                    f"{size} bytes"
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
            entries.append(LogEntry(
                sequence, timestamp, device_id, kind, fields, body[pos:end]
            ))
            off = end
    except (struct.error, UnicodeDecodeError) as exc:
        raise AuditRecoveryError(
            f"truncated or malformed {what} near offset {off}: {exc}"
        ) from exc
    if off != size:
        raise AuditRecoveryError(
            f"{what}: {size - off} trailing bytes after entries"
        )
    segment = AuditSegment(
        index=index, base_sequence=base_sequence, base_hash=base_hash
    )
    segment.hold_many(entries)
    if seal_record is not None:
        last_hash, seal_hash, first_ts, last_ts = seal_record
        if count and segment.last_hash != last_hash:
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
