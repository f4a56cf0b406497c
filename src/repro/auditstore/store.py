"""Event-sourced segmented audit store (the write side).

The flat :class:`~repro.auditstore.log.AppendOnlyLog` keeps every
record in one list and answers every forensic question by scanning it
end to end.  At fleet scale the log is the dominant artifact — 10k
devices produce ~150k entries in 30 simulated seconds — so this module
re-materialises the same logical log as a sequence of *segments*:

* the **active segment** absorbs appends (single or group-committed);
* once it holds ``segment_entries`` records it is **sealed**: a seal
  record captures the segment's boundary hashes, count, and time span,
  and joins a second hash chain *across* segments;
* sealed segments are **compacted** in the background: their
  ``LogEntry`` objects are re-packed into plain tuples (roughly the
  shape a columnar on-disk segment would take) and rebuilt lazily on
  read.

Chain math is *identical* to the flat log: entry N's hash covers entry
N-1's hash even across a segment boundary, and the genesis previous
hash is 32 zero bytes.  A flat log and a segmented store fed the same
records therefore produce byte-identical ``chain_hash`` streams, which
is what lets the store hide behind the ``AppendOnlyLog`` interface.

``verify_chain`` proves three things: every entry chain step, the
linkage of each segment's base hash to its predecessor's last hash,
and the seal chain itself — so truncating, rewriting, or swapping a
sealed segment (even a compacted one) is detected.

Every append is also offered to the attached
:class:`~repro.auditstore.views.AuditViews` projection engine, which
keeps the CQRS read side (per-device timeline, per-file access set,
post-theft window index) incrementally up to date.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional

from repro.crypto.sha256 import sha256_fast

from .log import GENESIS_HASH, LogEntry, chain_entry
from .views import AuditViews

__all__ = ["AuditSegment", "SegmentedAuditStore"]


def _unpack(packed: tuple) -> LogEntry:
    """Rebuild a ``LogEntry`` from its compacted tuple form."""
    sequence, timestamp, device_id, kind, items, chain_hash = packed
    return LogEntry(
        sequence=sequence,
        timestamp=timestamp,
        device_id=device_id,
        kind=kind,
        fields=dict(items),
        chain_hash=chain_hash,
    )


class AuditSegment:
    """One contiguous run of the logical log.

    Holds entries either *live* (``LogEntry`` objects, the mutable
    active form) or *packed* (plain tuples after compaction).  A
    sealed segment additionally carries its seal record: the base
    hash (previous segment's last entry hash), last entry hash, entry
    count, time span, and a ``seal_hash`` chaining it to the previous
    seal.

    A segment that is being flushed to blobs also carries the codec
    records of the entries already written (``records``, covering the
    first ``encoded`` entries), so each entry is serialised once:
    :func:`~repro.auditstore.codec.encode_segment` fills the cache at
    flush time and drops it when it encodes the sealed segment.  A
    store that never flushes never pays for it.
    """

    def __init__(self, index: int, base_sequence: int, base_hash: bytes):
        self.index = index
        self.base_sequence = base_sequence
        #: chain hash of the last entry *before* this segment
        #: (``GENESIS_HASH`` for segment 0).
        self.base_hash = base_hash
        self.sealed = False
        self.compacted = False
        self.last_hash = base_hash
        self.first_timestamp: Optional[float] = None
        self.last_timestamp: Optional[float] = None
        self.seal_hash: Optional[bytes] = None
        self._live: list[LogEntry] = []
        self._packed: list[tuple] = []
        #: length-prefixed codec records of entries ``[0, encoded)``.
        self.records = bytearray()
        self.encoded = 0

    # -- write side -------------------------------------------------

    def hold(self, entry: LogEntry) -> None:
        if self.sealed:
            raise ValueError(f"segment {self.index} is sealed")
        self._live.append(entry)
        self.last_hash = entry.chain_hash
        if self.first_timestamp is None:
            self.first_timestamp = entry.timestamp
        self.last_timestamp = entry.timestamp

    def hold_many(self, entries: list[LogEntry]) -> None:
        """:meth:`hold` for a run of entries at once (blob decode)."""
        if not entries:
            return
        if self.sealed:
            raise ValueError(f"segment {self.index} is sealed")
        if self.first_timestamp is None:
            self.first_timestamp = entries[0].timestamp
        self._live.extend(entries)
        self.last_hash = entries[-1].chain_hash
        self.last_timestamp = entries[-1].timestamp

    def seal(self, prev_seal: bytes) -> bytes:
        """Close the segment and chain its seal record to ``prev_seal``."""
        if self.sealed:
            raise ValueError(f"segment {self.index} is already sealed")
        self.sealed = True
        material = repr(
            (self.index, self.base_sequence, len(self), self.base_hash,
             self.last_hash, self.first_timestamp, self.last_timestamp)
        ).encode()
        self.seal_hash = sha256_fast(prev_seal + material)
        return self.seal_hash

    def compact(self) -> int:
        """Re-pack a sealed segment's entries into plain tuples.

        Returns the number of records packed (0 if nothing to do).
        Reads rebuild ``LogEntry`` objects lazily, and the chain digest
        is computed from entry *content*, so compaction is invisible to
        both queries and ``verify_chain``.
        """
        if not self.sealed or self.compacted:
            return 0
        self._packed = [
            (e.sequence, e.timestamp, e.device_id, e.kind,
             tuple(sorted(e.fields.items())), e.chain_hash)
            for e in self._live
        ]
        self._live = []
        self.compacted = True
        return len(self._packed)

    # -- read side --------------------------------------------------

    def __len__(self) -> int:
        return len(self._packed) if self.compacted else len(self._live)

    def __iter__(self) -> Iterator[LogEntry]:
        if self.compacted:
            return (_unpack(p) for p in self._packed)
        return iter(self._live)

    def entry_at(self, offset: int) -> LogEntry:
        if self.compacted:
            return _unpack(self._packed[offset])
        return self._live[offset]

    def entries_from(self, offset: int) -> Iterator[LogEntry]:
        """Entries at offsets >= ``offset`` within this segment."""
        if self.compacted:
            return (_unpack(p) for p in self._packed[offset:])
        return iter(self._live[offset:])

    def drop_records(self) -> None:
        """Release the encoded-record cache."""
        self.records = bytearray()
        self.encoded = 0

    def verify(self, prev: bytes) -> Optional[bytes]:
        """Check this segment's entry chain starting from ``prev``.

        Returns the last chain hash on success, ``None`` on tamper.
        Both loops hash :func:`~repro.auditstore.log.entry_digest`'s
        material without calling it: a packed tuple already stores the
        sorted field items, so a compacted segment verifies as it lies
        — no ``LogEntry`` is rebuilt and nothing is sorted again.
        """
        if self.base_hash != prev:
            return None
        if self.compacted:
            for (sequence, timestamp, device_id, kind, items,
                 chain_hash) in self._packed:
                material = repr(
                    (sequence, timestamp, device_id, kind, list(items))
                ).encode()
                if sha256_fast(prev + material) != chain_hash:
                    return None
                prev = chain_hash
        else:
            for entry in self._live:
                material = repr(
                    (entry.sequence, entry.timestamp, entry.device_id,
                     entry.kind, sorted(entry.fields.items()))
                ).encode()
                if sha256_fast(prev + material) != entry.chain_hash:
                    return None
                prev = entry.chain_hash
        if self and self.last_hash != prev:
            return None
        return prev

    def describe(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "base_sequence": self.base_sequence,
            "entries": len(self),
            "sealed": self.sealed,
            "compacted": self.compacted,
            "first_timestamp": self.first_timestamp,
            "last_timestamp": self.last_timestamp,
        }


class SegmentedAuditStore:
    """Drop-in replacement for ``AppendOnlyLog`` with segments + views.

    Presents the flat log's whole surface — ``append``,
    ``append_many`` (group commit), ``entries``, ``verify_chain``,
    ``entry_at``, ``tail``, iteration, ``len`` — while organising
    storage into seal-chained segments and keeping materialized views
    current on every append.
    """

    def __init__(
        self,
        name: str = "audit",
        segment_entries: int = 1024,
        auto_compact: bool = True,
    ):
        if segment_entries < 2:
            raise ValueError("segment_entries must be at least 2")
        self.name = name
        self.segment_entries = segment_entries
        self.auto_compact = auto_compact
        self.segments: list[AuditSegment] = [
            AuditSegment(index=0, base_sequence=0, base_hash=GENESIS_HASH)
        ]
        self.views = AuditViews(self)
        self._count = 0
        self._last_hash = GENESIS_HASH
        self._last_seal = GENESIS_HASH
        #: lifetime counters (surfaced by ``ctl.audit_stats``).
        self.appends = 0
        self.group_commits = 0
        self.seals = 0
        self.compactions = 0

    @classmethod
    def restore(
        cls,
        segments: list[AuditSegment],
        name: str = "audit",
        segment_entries: int = 1024,
        auto_compact: bool = True,
    ) -> "SegmentedAuditStore":
        """Rebuild a store around already-decoded segments (recovery).

        Unlike appends, restore installs the segments as-is: no view
        ingestion happens here (the recovering caller either replays a
        checkpointed snapshot plus the tail, or rebuilds from scratch),
        and no chain math is re-run — callers MUST follow up with
        :meth:`verify_chain` before trusting the result.  Sealed
        segments stay in the form they arrived in; ``auto_compact``
        governs later seals, and a caller that wants the restored ones
        packed calls :meth:`compact` once it is done reading them.  If
        the last segment arrives sealed, a fresh empty active segment
        is opened so the store can keep appending.
        """
        if not segments:
            raise ValueError("restore needs at least one segment")
        for i, segment in enumerate(segments):
            if segment.index != i:
                raise ValueError(
                    f"segment at position {i} has index {segment.index}"
                )
            if i < len(segments) - 1 and not segment.sealed:
                raise ValueError(
                    f"interior segment {i} is unsealed; only the last "
                    "segment may be an active tail"
                )
        store = cls.__new__(cls)
        store.name = name
        store.segment_entries = max(2, int(segment_entries))
        store.auto_compact = auto_compact
        store.segments = list(segments)
        last = store.segments[-1]
        store._count = last.base_sequence + len(last)
        store._last_hash = last.last_hash
        sealed = [s for s in store.segments if s.sealed]
        store._last_seal = sealed[-1].seal_hash if sealed else GENESIS_HASH
        if last.sealed:
            store.segments.append(
                AuditSegment(
                    index=last.index + 1,
                    base_sequence=store._count,
                    base_hash=store._last_hash,
                )
            )
        store.views = AuditViews(store)
        # Lifetime counters restart from what the segments show; the
        # pre-crash totals died with the process and recovery stats say
        # so explicitly.
        store.appends = store._count
        store.group_commits = 0
        store.seals = len(sealed)
        store.compactions = 0
        return store

    # -- write side -------------------------------------------------

    @property
    def _active(self) -> AuditSegment:
        return self.segments[-1]

    def _roll(self) -> None:
        """Seal the active segment and open a fresh one."""
        active = self._active
        self._last_seal = active.seal(self._last_seal)
        self.seals += 1
        if self.auto_compact:
            self.compactions += 1 if active.compact() else 0
        self.segments.append(
            AuditSegment(
                index=active.index + 1,
                base_sequence=self._count,
                base_hash=self._last_hash,
            )
        )

    def _commit(self, timestamp: float, device_id: str, kind: str,
                fields: dict[str, Any]) -> LogEntry:
        """Chain and hold one record; takes ownership of ``fields``."""
        entry = chain_entry(
            self._last_hash, self._count, timestamp, device_id, kind, fields
        )
        self._active.hold(entry)
        self._count += 1
        self._last_hash = entry.chain_hash
        self.views.ingest(entry)
        if len(self._active) >= self.segment_entries:
            self._roll()
        return entry

    def append(
        self, timestamp: float, device_id: str, kind: str, **fields: Any
    ) -> LogEntry:
        self.appends += 1
        return self._commit(timestamp, device_id, kind, fields)

    def append_many(
        self, records: list[tuple[float, str, str, dict]]
    ) -> list[LogEntry]:
        """Group commit: the whole batch lands under one durable write
        (one ``service_log_append`` charge at the caller), and segment
        rolls happen at batch boundaries within the group exactly as
        they would for individual appends."""
        self.group_commits += 1
        return [
            self._commit(timestamp, device_id, kind, dict(fields))
            for timestamp, device_id, kind, fields in records
        ]

    def force_seal(self) -> Optional[int]:
        """Seal the active segment now (``ctl.audit_seal``).

        Returns the sealed segment's index, or ``None`` if the active
        segment was empty (nothing to seal).
        """
        if not len(self._active):
            return None
        index = self._active.index
        self._roll()
        return index

    def compact(self) -> int:
        """Compact every sealed-but-live segment; returns records packed."""
        packed = 0
        for segment in self.segments:
            did = segment.compact()
            if did:
                packed += did
                self.compactions += 1
        return packed

    # -- flat-log-compatible read side ------------------------------

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[LogEntry]:
        for segment in self.segments:
            yield from segment

    def entry_at(self, sequence: int) -> LogEntry:
        """Random access by sequence: O(log segments) + O(1)."""
        if not 0 <= sequence < self._count:
            raise IndexError(sequence)
        lo, hi = 0, len(self.segments) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.segments[mid].base_sequence <= sequence:
                lo = mid
            else:
                hi = mid - 1
        segment = self.segments[lo]
        return segment.entry_at(sequence - segment.base_sequence)

    def tail(self, start: int) -> list[LogEntry]:
        """Entries at sequences >= ``start`` without a full scan."""
        if start >= self._count:
            return []
        start = max(start, 0)
        out: list[LogEntry] = []
        for segment in self.segments:
            if segment.base_sequence + len(segment) > start:
                out.extend(
                    segment.entries_from(max(0, start - segment.base_sequence))
                )
        return out

    def entries(
        self,
        since: Optional[float] = None,
        device_id: Optional[str] = None,
        kind: Optional[str] = None,
        predicate: Optional[Callable[[LogEntry], bool]] = None,
    ) -> list[LogEntry]:
        """Filtered scan, same semantics as the flat log."""
        out = []
        for entry in self:
            if since is not None and entry.timestamp < since:
                continue
            if device_id is not None and entry.device_id != device_id:
                continue
            if kind is not None and entry.kind != kind:
                continue
            if predicate is not None and not predicate(entry):
                continue
            out.append(entry)
        return out

    def verify_chain(self) -> bool:
        """Prove no truncation or rewrite, within or across segments.

        Checks (1) every entry chain step, (2) segment linkage — each
        segment's base hash is its predecessor's last entry hash — and
        (3) the seal chain over sealed segments.
        """
        prev = GENESIS_HASH
        prev_seal = GENESIS_HASH
        for segment in self.segments:
            result = segment.verify(prev)
            if result is None:
                return False
            prev = result
            if segment.sealed:
                material = repr(
                    (segment.index, segment.base_sequence, len(segment),
                     segment.base_hash, segment.last_hash,
                     segment.first_timestamp, segment.last_timestamp)
                ).encode()
                expected = sha256_fast(prev_seal + material)
                if expected != segment.seal_hash:
                    return False
                prev_seal = segment.seal_hash
        return prev == self._last_hash

    # -- introspection ----------------------------------------------

    def stats(self) -> dict[str, Any]:
        return {
            "store": "segmented",
            "name": self.name,
            "entries": self._count,
            "segments": len(self.segments),
            "sealed": sum(1 for s in self.segments if s.sealed),
            "compacted": sum(1 for s in self.segments if s.compacted),
            "segment_entries": self.segment_entries,
            "appends": self.appends,
            "group_commits": self.group_commits,
            "seals": self.seals,
            "compactions": self.compactions,
            "views": self.views.stats(),
        }
