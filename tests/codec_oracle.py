"""From-scratch segment encoder: the byte-identity oracle.

``repro.auditstore.codec.encode_segment`` assembles a blob from the
segment's cache of already-encoded records.  This is the encoder it
replaced — every entry re-serialised on every call, no state read or
written on the segment — kept here so the tests can demand that the
cached path produces the same bytes for any history of flushes.
"""

from __future__ import annotations

import struct

from repro.auditstore.codec import SEGMENT_MAGIC, encode_entry
from repro.auditstore.store import AuditSegment
from repro.crypto.sha256 import sha256_fast

_U8 = struct.Struct(">B")
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
