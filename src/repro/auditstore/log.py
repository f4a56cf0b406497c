"""Append-only, tamper-evident log primitives for the audit services.

Both services log durably *before* replying ("Before responding to the
request, the service durably logs the requested ID and a timestamp"),
and the metadata store is explicitly append-only so a thief "cannot
overwrite the user's metadata with bogus information after theft" —
later records never erase earlier ones.

Entries are hash-chained from a genesis hash;
:meth:`AppendOnlyLog.verify_chain` lets the forensic tool prove that no
interior record was changed, dropped, inserted or reordered.  It cannot
prove the log is complete: a log missing its newest records still
verifies.  Detecting a lost tail needs an anchor, the head's sequence
and chain hash held where the log's keeper cannot rewrite them (see
"An anchored audit head" in ROADMAP.md).

This module is the write-side foundation of :mod:`repro.auditstore`:
:class:`AppendOnlyLog` is the paper's flat log, and
:class:`~repro.auditstore.store.SegmentedAuditStore` (the event-sourced
store) builds group-committed, compactable segments on the same chain
math.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from repro.crypto.sha256 import sha256_fast

__all__ = [
    "LogEntry",
    "AppendOnlyLog",
    "DISCLOSING_KINDS",
    "GENESIS_HASH",
    "chain_digest",
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


_new_object = object.__new__


def new_entry(sequence: int, timestamp: float, device_id: str, kind: str,
              fields: dict[str, Any], chain_hash: bytes) -> LogEntry:
    """A :class:`LogEntry` filled straight into its ``__dict__`` instead
    of through the frozen dataclass ``__init__``'s six
    ``object.__setattr__`` calls; the type, equality, repr and chain
    bytes are the same.  The keys go in one by one, in field order, so
    the dict keeps sharing its key table with every other entry's (a
    ``dict.update`` would copy it: 200 more bytes an entry)."""
    entry = _new_object(LogEntry)
    attrs = entry.__dict__
    attrs["sequence"] = sequence
    attrs["timestamp"] = timestamp
    attrs["device_id"] = device_id
    attrs["kind"] = kind
    attrs["fields"] = fields
    attrs["chain_hash"] = chain_hash
    return entry


def chain_digest(prev: bytes, sequence: int, timestamp: float,
                 device_id: str, kind: str, items) -> bytes:
    """The chain step: H(prev || canonical-entry-material).

    ``items`` are the entry's field ``(key, value)`` pairs: a dict's
    ``items()`` view, or the key-sorted tuple a compacted segment
    packs.  The material is ``repr((sequence, timestamp, device_id,
    kind, sorted(items)))`` — derived from the entry's *content*, not
    its storage form, so a compacted record re-verifies byte for byte
    against the hash its original produced.  It is written out as an
    f-string instead, which builds no tuple, and for the usual single
    field no list either.
    """
    if len(items) == 1:
        ((key, value),) = items
        material = (f"({sequence!r}, {timestamp!r}, {device_id!r}, "
                    f"{kind!r}, [({key!r}, {value!r})])")
    else:
        material = (f"({sequence!r}, {timestamp!r}, {device_id!r}, "
                    f"{kind!r}, {sorted(items)!r})")
    return sha256_fast(prev + material.encode())


def entry_digest(prev: bytes, entry: LogEntry) -> bytes:
    """:func:`chain_digest` of a built entry."""
    return chain_digest(prev, entry.sequence, entry.timestamp,
                        entry.device_id, entry.kind, entry.fields.items())


def chain_entry(prev: bytes, sequence: int, timestamp: float,
                device_id: str, kind: str, fields: dict[str, Any]) -> LogEntry:
    """Build the committed entry that follows ``prev`` on the chain.

    The entry is constructed exactly once, by :func:`new_entry`.
    ``fields`` is stored as-is: the caller hands over a dict it owns.
    """
    return new_entry(sequence, timestamp, device_id, kind, fields,
                     chain_digest(prev, sequence, timestamp, device_id,
                                  kind, fields.items()))


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

    def stats(self) -> dict[str, Any]:
        return {"store": "flat", "name": self.name,
                "entries": len(self._entries)}
