"""The codec's oracles: the from-scratch encoder and the cursor decoder.

``repro.auditstore.codec.encode_segment`` assembles a blob from the
segment's cache of already-encoded records.  The encoder here is the
one it replaced — every entry re-serialised on every call, no state
read or written on the segment — kept so the tests can demand that the
cached path produces the same bytes for any history of flushes.

``decode_segment`` / ``decode_checkpoint`` in ``src/`` walk a blob with
``struct.unpack_from`` at explicit offsets.  The decoders here are the
ones they replaced — a bounds-checked cursor (``_Reader``), one
``take()`` per field, one ``hold()`` per entry — kept so the tests can
demand the same entries, seal records and refusals from both.  Two
inputs are refused by ``src/`` and not by this oracle, on purpose:
``oracle_segment`` lets ``UnicodeDecodeError`` escape on invalid UTF-8
(``src/`` raises ``AuditRecoveryError``), and it accepts slack bytes
between an entry's chain hash and the end of its record.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.auditstore.codec import (
    CHECKPOINT_MAGIC,
    SEGMENT_MAGIC,
    encode_entry,
)
from repro.auditstore.log import LogEntry
from repro.auditstore.store import AuditSegment
from repro.crypto.sha256 import sha256_fast
from repro.errors import AuditRecoveryError

_HASH = 32
_FLAG_SEALED = 0x01

_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_F64 = struct.Struct(">d")


def encode_segment_from_scratch(segment: AuditSegment) -> bytes:
    parts = [
        SEGMENT_MAGIC,
        _U32.pack(segment.index),
        _U64.pack(segment.base_sequence),
        segment.base_hash,
        _U8.pack(0x01 if segment.sealed else 0),
    ]
    if segment.sealed:
        parts.append(segment.last_hash)
        parts.append(segment.seal_hash)
        parts.append(_F64.pack(segment.first_timestamp))
        parts.append(_F64.pack(segment.last_timestamp))
    parts.append(_U32.pack(len(segment)))
    for entry in segment:
        record = encode_entry(entry)
        parts.append(_U32.pack(len(record)) + record)
    body = b"".join(parts)
    return body + sha256_fast(body)


def prefix_segment(segment: AuditSegment, count: int) -> AuditSegment:
    """The unsealed segment holding ``segment``'s first ``count``
    entries — what a tail flush saw when the segment was that long."""
    out = AuditSegment(segment.index, segment.base_sequence,
                       segment.base_hash)
    for offset in range(count):
        out.hold(segment.entry_at(offset))
    return out


def refooter(body: bytes) -> bytes:
    """``body`` under a freshly computed checksum footer — what a forger
    who can rewrite a blob, but not close the hash chain, would store."""
    return body + sha256_fast(body)


# -- the cursor decoder ----------------------------------------------------

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


def oracle_segment(data: bytes, what: str = "segment blob") -> AuditSegment:
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


def oracle_checkpoint(data: bytes, what: str = "checkpoint blob") -> dict:
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
