"""Append-only, tamper-evident log primitives for the audit services.

Both services log durably *before* replying ("Before responding to the
request, the service durably logs the requested ID and a timestamp"),
and the metadata store is explicitly append-only so a thief "cannot
overwrite the user's metadata with bogus information after theft" —
later records never erase earlier ones.

Entries are hash-chained; :meth:`AppendOnlyLog.verify_chain` lets the
forensic tool prove the log was not truncated or rewritten in place.

This module is the write-side foundation of :mod:`repro.auditstore`:
:class:`AppendOnlyLog` is the paper's flat log, :class:`ShardedLog`
splits it across independent chains, and
:class:`~repro.auditstore.store.SegmentedAuditStore` (the event-sourced
store) builds group-committed, compactable segments on the same chain
math.  The historical import path ``repro.core.services.logstore``
remains as a deprecation shim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from repro.crypto.sha256 import sha256_fast

__all__ = [
    "LogEntry",
    "AppendOnlyLog",
    "ShardedLog",
    "DISCLOSING_KINDS",
    "GENESIS_HASH",
    "entry_digest",
    "chain_entry",
]

#: the chain's genesis "previous hash" — 32 zero bytes.
GENESIS_HASH = b"\x00" * 32

#: Log-entry kinds that disclose key material (what the forensic tool
#: counts as compromising; shared by the key service, the cluster log
#: merge, and the materialized views).
DISCLOSING_KINDS = ("fetch", "refresh", "prefetch", "profile-prefetch",
                    "paired-fetch", "paired-refresh", "paired-prefetch",
                    "paired-profile-prefetch", "create")


@dataclass(frozen=True)
class LogEntry:
    """One durable record."""

    sequence: int
    timestamp: float
    device_id: str
    kind: str
    fields: dict[str, Any]
    chain_hash: bytes = b""

    def describe(self) -> str:
        detail = ", ".join(f"{k}={v!r}" for k, v in sorted(self.fields.items()))
        return f"[{self.timestamp:.3f}] {self.device_id} {self.kind}: {detail}"


def entry_digest(prev: bytes, entry: LogEntry) -> bytes:
    """The chain step: H(prev || canonical-entry-material).

    The material is derived from the entry's *content* (not its storage
    form), so a compacted record re-verifies byte-for-byte against the
    hash its original produced.
    """
    material = repr(
        (entry.sequence, entry.timestamp, entry.device_id, entry.kind,
         sorted(entry.fields.items()))
    ).encode()
    return sha256_fast(prev + material)


# Backwards-compatible private alias (pre-auditstore name).
_entry_digest = entry_digest


def chain_entry(prev: bytes, sequence: int, timestamp: float,
                device_id: str, kind: str, fields: dict[str, Any]) -> LogEntry:
    """Build the committed entry that follows ``prev`` on the chain.

    Inlines :func:`entry_digest`'s material (same bytes) so the entry
    is constructed exactly once — frozen-dataclass construction is half
    the append hot path's cost.  ``fields`` is stored as-is: the caller
    hands over a dict it owns.
    """
    material = repr(
        (sequence, timestamp, device_id, kind, sorted(fields.items()))
    ).encode()
    return LogEntry(
        sequence=sequence,
        timestamp=timestamp,
        device_id=device_id,
        kind=kind,
        fields=fields,
        chain_hash=sha256_fast(prev + material),
    )


@dataclass
class AppendOnlyLog:
    """A hash-chained append-only record sequence."""

    name: str = "log"
    _entries: list[LogEntry] = field(default_factory=list)

    def append(
        self, timestamp: float, device_id: str, kind: str, **fields: Any
    ) -> LogEntry:
        entries = self._entries
        prev = entries[-1].chain_hash if entries else GENESIS_HASH
        # The kwargs dict is fresh and owned by this call, so it is
        # stored without a defensive copy.
        entry = chain_entry(
            prev, len(entries), timestamp, device_id, kind, fields
        )
        entries.append(entry)
        return entry

    def append_many(
        self, records: list[tuple[float, str, str, dict]]
    ) -> list[LogEntry]:
        """Group commit: append N records under one durable write.

        The records are ``(timestamp, device_id, kind, fields)`` tuples;
        the chain math is identical to N individual appends (readers and
        :meth:`verify_chain` cannot tell them apart).  The *durable
        write charge* for the group is the caller's responsibility —
        this is what lets the server frontend amortise one
        ``service_log_append`` over a cross-device batch.
        """
        return [
            self.append(timestamp, device_id, kind, **fields)
            for timestamp, device_id, kind, fields in records
        ]

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[LogEntry]:
        return iter(self._entries)

    def entry_at(self, sequence: int) -> LogEntry:
        """Random access by sequence number (view materialization)."""
        return self._entries[sequence]

    def tail(self, start: int) -> list[LogEntry]:
        """Entries at append positions >= ``start`` (incremental reads:
        the cluster merge's high-water-mark scans)."""
        return self._entries[start:]

    def entries(
        self,
        since: Optional[float] = None,
        device_id: Optional[str] = None,
        kind: Optional[str] = None,
        predicate: Optional[Callable[[LogEntry], bool]] = None,
    ) -> list[LogEntry]:
        """Filtered view (forensics-side reads; not an RPC)."""
        out = []
        for entry in self._entries:
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
        """Check the hash chain end to end."""
        prev = GENESIS_HASH
        for entry in self._entries:
            expected = entry_digest(prev, entry)
            if expected != entry.chain_hash:
                return False
            prev = entry.chain_hash
        return True


class ShardedLog:
    """N independent hash chains presenting one logical log.

    Each shard is a full :class:`AppendOnlyLog` (its own chain, so
    shards can be written by concurrent service workers without a
    global serialization point), routed by a caller-supplied function
    of the record.  Readers see the global append order: iteration,
    ``entries`` and ``len`` behave exactly like a single log, and
    :meth:`verify_chain` proves every shard's chain.
    """

    def __init__(self, name: str, shards: int, router: Callable[..., int]):
        if shards < 1:
            raise ValueError("a sharded log needs at least one shard")
        self.name = name
        # router(device_id, kind, fields) -> shard index (any int).
        self._router = router
        self.shards = [
            AppendOnlyLog(name=f"{name}-s{i}") for i in range(shards)
        ]
        self._order: list[LogEntry] = []

    def shard_of(self, device_id: str, kind: str, fields: dict) -> int:
        return self._router(device_id, kind, fields) % len(self.shards)

    def append(
        self, timestamp: float, device_id: str, kind: str, **fields: Any
    ) -> LogEntry:
        idx = self.shard_of(device_id, kind, fields)
        entry = self.shards[idx].append(timestamp, device_id, kind, **fields)
        self._order.append(entry)
        return entry

    def append_many(
        self, records: list[tuple[float, str, str, dict]]
    ) -> list[LogEntry]:
        """Group commit across shards; global order follows the batch."""
        return [
            self.append(timestamp, device_id, kind, **fields)
            for timestamp, device_id, kind, fields in records
        ]

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[LogEntry]:
        return iter(self._order)

    def entry_at(self, position: int) -> LogEntry:
        """Random access by global append position."""
        return self._order[position]

    def tail(self, start: int) -> list[LogEntry]:
        """Entries at global append positions >= ``start``."""
        return self._order[start:]

    def entries(
        self,
        since: Optional[float] = None,
        device_id: Optional[str] = None,
        kind: Optional[str] = None,
        predicate: Optional[Callable[[LogEntry], bool]] = None,
    ) -> list[LogEntry]:
        """Filtered view over the global append order."""
        out = []
        for entry in self._order:
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
        return all(shard.verify_chain() for shard in self.shards)
