"""Materialized forensic views (the CQRS read side).

Every append to a :class:`~repro.auditstore.store.SegmentedAuditStore`
is offered to an :class:`AuditViews` instance, which incrementally
maintains three projections over the event-sourced log:

``per-device timeline``
    device_id → the sequence numbers of that device's records, in
    append order.  Answers "what did this device do" without touching
    other devices' records.

``per-file access set``
    audit_id → the sequence numbers of the *disclosing* records that
    touched that file's key.  Answers "who ever fetched this file's
    key" in O(accesses to that file).

``post-theft window index``
    the disclosing records ordered by ``(timestamp, sequence)``.
    Answers the paper's central forensic question — every key
    disclosure at or after ``Tloss − Texp`` — with one bisect instead
    of a full scan.  Kept correct under out-of-order timestamps (the
    phone's ``report_batch`` records carry phone-side clocks) by
    insertion-sorting stragglers.

The views store only light ``(sequence, ...)`` references and
re-materialise full ``LogEntry`` objects through the source's
``entry_at``; a view never holds a second copy of the log.  Queries
return exactly what the equivalent raw-log scan returns — the CLI's
reconciliation mode and the property suite both enforce this — and
``rebuild`` replays the source from scratch (``ctl.audit_rebuild``,
crash recovery).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Any, Optional

from .log import DISCLOSING_KINDS, LogEntry

__all__ = ["AuditViews", "accesses_after"]


def accesses_after(log, t: float,
                   device_id: Optional[str] = None) -> list[LogEntry]:
    """Every key-disclosing entry of ``log`` at or after ``t``, in
    append order, for the live key service and an offline bundle alike:
    from the log's window view if it keeps views, else by a scan."""
    views = getattr(log, "views", None)
    if views is not None:
        return views.accesses_after(t, device_id=device_id)
    return [e for e in log.entries(since=t, device_id=device_id)
            if e.kind in DISCLOSING_KINDS]


class AuditViews:
    """Incrementally maintained projections over one audit log.

    ``source`` must expose ``entry_at(sequence)`` and iteration (a
    ``SegmentedAuditStore`` or a flat ``AppendOnlyLog``: every log
    numbers its entries 0, 1, 2, … in one sequence space).
    """

    def __init__(self, source: Any):
        self.source = source
        #: device_id -> [sequence, ...] in append order.
        self._timeline: dict[str, list[int]] = {}
        #: audit_id -> [sequence, ...] of disclosing records, append order.
        self._file_access: dict[bytes, list[int]] = {}
        #: [(timestamp, sequence), ...] of disclosing records, sorted.
        self._window: list[tuple[float, int]] = []
        self.ingested = 0
        self.rebuilds = 0
        #: straggler insertions into the window index (out-of-order
        #: timestamps from phone-side report batches).
        self.out_of_order = 0

    # -- write side (called on every append) ------------------------

    def ingest(self, entry: LogEntry) -> None:
        self.ingested += 1
        self._timeline.setdefault(entry.device_id, []).append(entry.sequence)
        if entry.kind not in DISCLOSING_KINDS:
            return
        audit_id = entry.fields.get("audit_id")
        if isinstance(audit_id, (bytes, bytearray)) and audit_id:
            self._file_access.setdefault(bytes(audit_id), []).append(
                entry.sequence
            )
        item = (entry.timestamp, entry.sequence)
        if not self._window or item >= self._window[-1]:
            self._window.append(item)
        else:
            insort(self._window, item)
            self.out_of_order += 1

    def rebuild(self) -> int:
        """Drop every projection and replay the source end to end."""
        self._timeline.clear()
        self._file_access.clear()
        self._window.clear()
        self.ingested = 0
        self.out_of_order = 0
        for entry in self.source:
            self.ingest(entry)
        self.rebuilds += 1
        return self.ingested

    # -- checkpointing (the durable store's view snapshots) ----------

    def checkpoint_state(self) -> dict[str, Any]:
        """Copy out every projection for serialization.

        The caller pairs this with the log position it was taken at
        (count + bound chain hash); the views themselves hold only
        sequence references, so the snapshot is small relative to the
        log it summarises.
        """
        return {
            "timeline": {d: list(s) for d, s in self._timeline.items()},
            "file_access": {
                a: list(s) for a, s in self._file_access.items()
            },
            "window": list(self._window),
            "ingested": self.ingested,
            "out_of_order": self.out_of_order,
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Replace every projection with a checkpointed snapshot.

        Recovery then re-ingests only the tail past the checkpoint's
        watermark instead of replaying the whole log.
        """
        self._timeline = {d: list(s) for d, s in state["timeline"].items()}
        self._file_access = {
            bytes(a): list(s) for a, s in state["file_access"].items()
        }
        self._window = [(float(t), int(s)) for t, s in state["window"]]
        self.ingested = int(state["ingested"])
        self.out_of_order = int(state["out_of_order"])

    # -- queries (each must equal the raw-log scan) ------------------

    def _materialize(self, sequences: list[int]) -> list[LogEntry]:
        return [self.source.entry_at(seq) for seq in sequences]

    def accesses_after(
        self, t: float, device_id: Optional[str] = None
    ) -> list[LogEntry]:
        """Disclosing records at or after ``t`` — the post-theft window.

        One bisect on the window index instead of a log scan; results
        come back in append order, matching the flat log's scan in
        :func:`accesses_after` exactly.
        """
        start = bisect_left(self._window, t, key=lambda item: item[0])
        sequences = sorted(seq for _, seq in self._window[start:])
        out = self._materialize(sequences)
        if device_id is not None:
            out = [e for e in out if e.device_id == device_id]
        return out

    def device_timeline(
        self,
        device_id: str,
        since: Optional[float] = None,
        kind: Optional[str] = None,
    ) -> list[LogEntry]:
        """Every record a device produced, in append order."""
        out = self._materialize(self._timeline.get(device_id, []))
        if since is not None:
            out = [e for e in out if e.timestamp >= since]
        if kind is not None:
            out = [e for e in out if e.kind == kind]
        return out

    def file_accesses(
        self, audit_id: bytes, since: Optional[float] = None
    ) -> list[LogEntry]:
        """Every disclosing record that touched one file's key."""
        out = self._materialize(self._file_access.get(bytes(audit_id), []))
        if since is not None:
            out = [e for e in out if e.timestamp >= since]
        return out

    def devices(self) -> list[str]:
        return sorted(self._timeline)

    def audit_ids(self) -> list[bytes]:
        return sorted(self._file_access)

    # -- introspection ----------------------------------------------

    def stats(self) -> dict[str, Any]:
        return {
            "devices": len(self._timeline),
            "files": len(self._file_access),
            "window_entries": len(self._window),
            "ingested": self.ingested,
            "out_of_order": self.out_of_order,
            "rebuilds": self.rebuilds,
        }
