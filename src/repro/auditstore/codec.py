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
    "decode_entry",
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

# Tagged field values.  ``I`` carries a length-prefixed signed
# big-endian payload so arbitrary-precision ints survive.
_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_FLOAT = b"D"
_TAG_BYTES = b"B"
_TAG_STR = b"S"


class _Reader:
    """Bounds-checked cursor over one blob."""

    def __init__(self, data: bytes, what: str):
        self.data = data
        self.off = 0
        self.what = what

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise AuditRecoveryError(
                f"truncated {self.what}: wanted {n} bytes at offset "
                f"{self.off}, blob is {len(self.data)} bytes"
            )
        out = self.data[self.off:self.off + n]
        self.off += n
        return out

    def u8(self) -> int:
        return _U8.unpack(self.take(1))[0]

    def u16(self) -> int:
        return _U16.unpack(self.take(2))[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self.take(8))[0]

    def f64(self) -> float:
        return _F64.unpack(self.take(8))[0]

    def lp_bytes(self, width=_U32) -> bytes:
        n = width.unpack(self.take(width.size))[0]
        return self.take(n)

    def lp_str(self, width=_U16) -> str:
        return self.lp_bytes(width).decode("utf-8")


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


def _decode_value(r: _Reader) -> Any:
    tag = r.take(1)
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_TRUE:
        return True
    if tag == _TAG_FALSE:
        return False
    if tag == _TAG_INT:
        return int.from_bytes(r.lp_bytes(_U16), "big", signed=True)
    if tag == _TAG_FLOAT:
        return r.f64()
    if tag == _TAG_BYTES:
        return r.lp_bytes()
    if tag == _TAG_STR:
        return r.lp_bytes().decode("utf-8")
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


def decode_entry(r: _Reader) -> LogEntry:
    sequence = r.u64()
    timestamp = r.f64()
    device_id = r.lp_str()
    kind = r.lp_str()
    n_fields = r.u16()
    fields = {}
    for _ in range(n_fields):
        key = r.lp_str()
        fields[key] = _decode_value(r)
    chain_hash = r.take(_HASH)
    return LogEntry(
        sequence=sequence,
        timestamp=timestamp,
        device_id=device_id,
        kind=kind,
        fields=fields,
        chain_hash=chain_hash,
    )


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


def decode_segment(data: bytes, what: str = "segment blob") -> AuditSegment:
    """Rebuild a segment; raises :class:`AuditRecoveryError` on damage.

    Verifies the footer before reading anything, then re-derives the
    running state (last hash, time span) from the entries for unsealed
    tails and cross-checks it against the stored seal record for
    sealed segments.  Chain *verification* against neighbours is the
    caller's job (:meth:`SegmentedAuditStore.verify_chain`).
    """
    if len(data) < len(SEGMENT_MAGIC) + _HASH:
        raise AuditRecoveryError(f"{what}: too short to be a segment")
    body, footer = data[:-_HASH], data[-_HASH:]
    if sha256_fast(body) != footer:
        raise AuditRecoveryError(f"{what}: checksum footer mismatch")
    r = _Reader(body, what)
    magic = r.take(len(SEGMENT_MAGIC))
    if magic != SEGMENT_MAGIC:
        raise AuditRecoveryError(
            f"{what}: bad magic {magic!r} (expected {SEGMENT_MAGIC!r})"
        )
    index = r.u32()
    base_sequence = r.u64()
    base_hash = r.take(_HASH)
    flags = r.u8()
    sealed = bool(flags & _FLAG_SEALED)
    seal_record = None
    if sealed:
        seal_record = (r.take(_HASH), r.take(_HASH), r.f64(), r.f64())
    count = r.u32()
    segment = AuditSegment(
        index=index, base_sequence=base_sequence, base_hash=base_hash
    )
    for i in range(count):
        entry_bytes = r.lp_bytes()
        entry = decode_entry(_Reader(entry_bytes, f"{what} entry {i}"))
        if entry.sequence != base_sequence + i:
            raise AuditRecoveryError(
                f"{what}: entry {i} carries sequence {entry.sequence}, "
                f"expected {base_sequence + i}"
            )
        segment.hold(entry)
    if r.off != len(body):
        raise AuditRecoveryError(
            f"{what}: {len(body) - r.off} trailing bytes after entries"
        )
    if sealed:
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


def decode_checkpoint(data: bytes, what: str = "checkpoint blob") -> dict:
    if len(data) < len(CHECKPOINT_MAGIC) + _HASH:
        raise AuditRecoveryError(f"{what}: too short to be a checkpoint")
    body, footer = data[:-_HASH], data[-_HASH:]
    if sha256_fast(body) != footer:
        raise AuditRecoveryError(f"{what}: checksum footer mismatch")
    r = _Reader(body, what)
    magic = r.take(len(CHECKPOINT_MAGIC))
    if magic != CHECKPOINT_MAGIC:
        raise AuditRecoveryError(
            f"{what}: bad magic {magic!r} (expected {CHECKPOINT_MAGIC!r})"
        )
    upto = r.u64()
    bound_hash = r.take(_HASH)
    ingested = r.u64()
    out_of_order = r.u64()
    timeline: dict[str, list[int]] = {}
    for _ in range(r.u32()):
        device_id = r.lp_str()
        timeline[device_id] = [r.u64() for _ in range(r.u32())]
    file_access: dict[bytes, list[int]] = {}
    for _ in range(r.u32()):
        audit_id = r.lp_bytes(_U16)
        file_access[audit_id] = [r.u64() for _ in range(r.u32())]
    window = []
    for _ in range(r.u32()):
        timestamp = r.f64()
        window.append((timestamp, r.u64()))
    if r.off != len(body):
        raise AuditRecoveryError(
            f"{what}: {len(body) - r.off} trailing bytes after window index"
        )
    return {
        "upto": upto,
        "bound_hash": bound_hash,
        "ingested": ingested,
        "out_of_order": out_of_order,
        "timeline": timeline,
        "file_access": file_access,
        "window": window,
    }
