"""Durable audit store: segment spill, group commit, crash recovery.

:class:`DurableAuditStore` is a
:class:`~repro.auditstore.store.SegmentedAuditStore` that gives the
paper's security argument its missing leg: the forensic record now
survives the process.  Three blob kinds land in a write-once
:class:`~repro.storage.backend.BlobNamespace`:

``seg-<index>``
    Each sealed segment, spilled exactly once at seal time and never
    rewritten — the write-once contract makes retroactive tampering a
    detectable overwrite, not a quiet edit.

``tail``
    The active segment, group-committed on the flush policy:
    ``every-append`` (persist before every reply — the paper's strict
    log-before-disclose durability), ``every-seal`` (only sealed data
    is durable; the open tail is the loss window), or ``every-n``
    (persist after every N appends).  Every spill also rewrites the
    tail, so the flushed watermark never lags a seal.

``checkpoint``
    An :class:`~repro.auditstore.views.AuditViews` snapshot bound to
    (count, chain hash).  Recovery replays only the tail past the
    watermark instead of the whole log.

Appends are synchronous (the log-before-disclose invariant) while the
simulation charges time through generators, so every blob write's
simulated cost — backend bytes plus an ``audit_fsync`` barrier —
accumulates in a pending-cost account that the owning service drains
at its next yield point.  With durability off nothing accrues and the
flags-off timeline is byte-identical.

Recovery (:meth:`DurableAuditStore.recover`) reloads the blobs,
refuses damaged or inconsistent input with
:class:`~repro.errors.AuditRecoveryError`, re-verifies the full seal
chain, and reports exactly what it found — a lost unflushed tail is
*detected* (the service compares against its pre-crash count), never
silent.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.costmodel import DEFAULT_COSTS, CostModel
from repro.errors import AuditRecoveryError

from .codec import (
    decode_checkpoint,
    decode_segment,
    encode_checkpoint,
    encode_segment,
)
from .log import GENESIS_HASH, LogEntry
from .store import SegmentedAuditStore

__all__ = ["DurableAuditStore", "BlobImage", "FLUSH_POLICIES"]

FLUSH_POLICIES = ("every-append", "every-seal", "every-n")

_SEG_PREFIX = "seg-"
_TAIL = "tail"
_CHECKPOINT = "checkpoint"


def _segment_blob_name(index: int) -> str:
    return f"{_SEG_PREFIX}{index:08d}"


class BlobImage:
    """Read-only blob mapping — a seized disk image for forensics.

    Adapts a plain ``{name: bytes}`` dict (e.g. a
    ``BlobStore.snapshot()`` crash image, or files read from an
    exported directory) to the read surface :meth:`recover` needs.
    """

    def __init__(self, blobs: dict[str, bytes]):
        self._blobs = dict(blobs)

    def get(self, name: str) -> bytes:
        return self._blobs[name]

    def names(self) -> list[str]:
        return sorted(self._blobs)

    def put(self, name: str, data: bytes, overwrite: bool = False) -> float:
        raise AuditRecoveryError(
            "blob image is read-only (recover into a live namespace "
            "to resume appending)"
        )


class DurableAuditStore(SegmentedAuditStore):
    """A ``SegmentedAuditStore`` that persists through a blob namespace.

    Every write (``append``, ``append_many``, ``force_seal``) runs the
    base store's write and then the spill/flush machinery, banking its
    simulated cost in ``pending_cost``; reads are the base store's.
    """

    def __init__(
        self,
        blobs: Any,
        name: str = "audit",
        segment_entries: int = 1024,
        auto_compact: bool = True,
        costs: CostModel = DEFAULT_COSTS,
        flush_policy: str = "every-seal",
        flush_every: int = 64,
    ):
        super().__init__(name=name, segment_entries=segment_entries,
                         auto_compact=auto_compact)
        self._attach(blobs, costs, flush_policy, flush_every)

    def _attach(self, blobs: Any, costs: CostModel, flush_policy: str,
                flush_every: int) -> None:
        self.blobs = blobs
        self.costs = costs
        self.flush_policy = flush_policy
        self.flush_every = flush_every
        #: sealed segments already spilled (== next seg blob index).
        self._spilled = 0
        #: entry count covered by the last tail/segment flush.
        self._flushed = 0
        #: appends since the last tail flush (every-n bookkeeping).
        self._dirty = 0
        #: simulated seconds owed to the timeline, drained by the
        #: owning service at its next yield point.
        self.pending_cost = 0.0
        self.flushes = 0
        self.checkpoints = 0
        self.crashed = False
        self.entries_at_crash: Optional[int] = None
        #: populated by :meth:`recover` on restored instances.
        self.recovery: Optional[dict[str, Any]] = None

    @classmethod
    def create(cls, blobs: Any, **knobs: Any) -> "DurableAuditStore":
        """A fresh store spilling into ``blobs`` (the constructor's
        name beside :meth:`recover`)."""
        return cls(blobs, **knobs)

    # -- write side (base write, then persist) -----------------------

    def _check_alive(self) -> None:
        if self.crashed:
            raise AuditRecoveryError(
                f"audit store {self.name!r} has crashed; "
                "recover before appending"
            )

    def append(self, timestamp: float, device_id: str, kind: str,
               **fields: Any) -> LogEntry:
        self._check_alive()
        entry = super().append(timestamp, device_id, kind, **fields)
        self._after_write(1)
        return entry

    def append_many(
        self, records: list[tuple[float, str, str, dict]]
    ) -> list[LogEntry]:
        self._check_alive()
        entries = super().append_many(records)
        self._after_write(len(entries))
        return entries

    def force_seal(self) -> Optional[int]:
        self._check_alive()
        index = super().force_seal()
        self._after_write(0)
        return index

    def _after_write(self, n_appends: int) -> None:
        spilled_new = self._spill_sealed()
        if self.flush_policy == "every-append":
            if n_appends or spilled_new:
                self._write_tail()
        elif self.flush_policy == "every-seal":
            if spilled_new:
                self._write_tail()
        else:  # every-n
            self._dirty += n_appends
            if spilled_new or self._dirty >= self.flush_every:
                self._write_tail()

    def _spill_sealed(self) -> bool:
        """Spill any sealed-but-unspilled segments; True if any were.

        Compaction only re-packs the in-memory form; blobs are encoded
        from entry *content*, so a spilled segment stays valid as-is.
        """
        spilled_any = False
        # All segments but the active tail are sealed, in index order.
        while self._spilled < len(self.segments) - 1:
            segment = self.segments[self._spilled]
            cost = self.blobs.put(
                _segment_blob_name(segment.index), encode_segment(segment)
            )
            self.pending_cost += cost + self.costs.audit_fsync
            self._spilled += 1
            spilled_any = True
        return spilled_any

    def _write_tail(self) -> None:
        cost = self.blobs.put(
            _TAIL, encode_segment(self.segments[-1]), overwrite=True
        )
        self.pending_cost += cost + self.costs.audit_fsync
        self._flushed = len(self)
        self._dirty = 0
        self.flushes += 1

    def checkpoint(self) -> int:
        """Persist a view snapshot bound to the current log position.

        Also flushes the tail first so the checkpoint never references
        entries the blobs do not hold.  Returns the watermark (entry
        count covered).
        """
        self._check_alive()
        self._spill_sealed()
        self._write_tail()
        upto = len(self)
        state = self.views.checkpoint_state()
        blob = encode_checkpoint(
            upto=upto,
            bound_hash=self._last_hash,
            timeline=state["timeline"],
            file_access=state["file_access"],
            window=state["window"],
            ingested=state["ingested"],
            out_of_order=state["out_of_order"],
        )
        cost = self.blobs.put(_CHECKPOINT, blob, overwrite=True)
        self.pending_cost += cost + self.costs.audit_fsync
        self.checkpoints += 1
        return upto

    def take_pending_cost(self) -> float:
        """Drain the banked simulated cost (the service's yield point)."""
        cost, self.pending_cost = self.pending_cost, 0.0
        return cost

    # -- crash / recovery --------------------------------------------

    def crash(self) -> int:
        """Simulate process death: drop nothing from the blobs, but
        mark this instance dead and remember how many entries existed
        so the restart can report the exact loss.  Returns the count.
        """
        self.entries_at_crash = len(self)
        self.crashed = True
        # A dead store never flushes again; its successor re-encodes
        # the recovered tail from the blobs.
        self.segments[-1].drop_records()
        return self.entries_at_crash

    @classmethod
    def recover(
        cls,
        blobs: Any,
        name: str = "audit",
        segment_entries: int = 1024,
        auto_compact: bool = True,
        costs: CostModel = DEFAULT_COSTS,
        flush_policy: str = "every-seal",
        flush_every: int = 64,
        entries_before: Optional[int] = None,
    ) -> "DurableAuditStore":
        """Rebuild a durable store from its blobs alone.

        Decodes every spilled segment plus the tail, re-verifies the
        full seal + entry chain (raising
        :class:`AuditRecoveryError` on any gap, damage, or mismatch),
        restores views from the checkpoint when its binding hash
        matches, and records a ``recovery`` stats dict.  Pass
        ``entries_before`` (the pre-crash count, when known) to have
        the lost-tail size computed here; services track it through
        :meth:`crash`.  ``auto_compact=False`` leaves the recovered
        sealed segments live (the read-only drill of
        :meth:`verify_blobs`, which throws the store away).
        """
        names = set(blobs.names())
        seg_names = sorted(n for n in names if n.startswith(_SEG_PREFIX))
        sealed = []
        for i, blob_name in enumerate(seg_names):
            segment = decode_segment(
                blobs.get(blob_name), what=f"blob {blob_name!r}"
            )
            if segment.index != i:
                raise AuditRecoveryError(
                    f"blob {blob_name!r} decodes to segment "
                    f"{segment.index}, expected {i} — a sealed segment "
                    "is missing or misnamed"
                )
            if not segment.sealed:
                raise AuditRecoveryError(
                    f"blob {blob_name!r} holds an unsealed segment; "
                    "spilled segments must be sealed"
                )
            sealed.append(segment)

        tail = None
        tail_state = "absent"
        if _TAIL in names:
            candidate = decode_segment(blobs.get(_TAIL), what="tail blob")
            if candidate.index > len(sealed):
                raise AuditRecoveryError(
                    f"tail blob is segment {candidate.index} but only "
                    f"{len(sealed)} sealed segments were recovered — "
                    "at least one spilled segment is missing"
                )
            if candidate.index == len(sealed):
                if candidate.sealed:
                    # Flushed at seal time but the spill never landed.
                    sealed.append(candidate)
                    tail_state = "promoted"
                else:
                    tail = candidate
                    tail_state = "active"
            else:
                # Predates the latest spill; the sealed blob supersedes
                # it.  Anything it held is covered by that segment.
                tail_state = "stale"

        segments = sealed + ([tail] if tail is not None else [])
        knobs = dict(name=name, segment_entries=segment_entries,
                     auto_compact=auto_compact)
        if not segments:
            # Nothing was ever flushed: an empty (or brand-new) store.
            store = cls(blobs, costs=costs, flush_policy=flush_policy,
                        flush_every=flush_every, **knobs)
        else:
            store = cls.restore(segments, **knobs)
            store._attach(blobs, costs, flush_policy, flush_every)
            if not store.verify_chain():
                raise AuditRecoveryError(
                    f"audit store {name!r}: seal chain verification "
                    "failed after recovery — the spilled segments were "
                    "tampered with or truncated"
                )
            # Compact only now: verification reads every sealed entry,
            # and packing first would just make it unpack them again.
            if auto_compact:
                store.compact()

        recovered = len(store)
        views = store.views
        checkpoint_used = False
        checkpoint_discarded: Optional[str] = None
        checkpoint_upto: Optional[int] = None
        tail_replayed = 0
        if _CHECKPOINT in names:
            ckpt = decode_checkpoint(blobs.get(_CHECKPOINT))
            checkpoint_upto = ckpt["upto"]
            if ckpt["upto"] > recovered:
                # Views ahead of the recovered log: the tail it
                # summarised was lost with the crash.  Views are
                # derived data — discard and rebuild; the *log* loss
                # itself is what the service reports.
                checkpoint_discarded = "ahead-of-log"
            else:
                bound = (
                    GENESIS_HASH if ckpt["upto"] == 0
                    else store.entry_at(ckpt["upto"] - 1).chain_hash
                )
                if bound != ckpt["bound_hash"]:
                    checkpoint_discarded = "binding-mismatch"
                else:
                    views.restore_state(
                        {
                            "timeline": ckpt["timeline"],
                            "file_access": ckpt["file_access"],
                            "window": ckpt["window"],
                            "ingested": ckpt["ingested"],
                            "out_of_order": ckpt["out_of_order"],
                        }
                    )
                    for entry in store.tail(ckpt["upto"]):
                        views.ingest(entry)
                        tail_replayed += 1
                    checkpoint_used = True
        if not checkpoint_used and recovered:
            views.rebuild()

        store._spilled = sum(1 for s in store.segments if s.sealed)
        store._flushed = recovered
        lost = None
        if entries_before is not None:
            lost = max(0, entries_before - recovered)
        store.recovery = {
            "recovered_entries": recovered,
            "sealed_segments": store._spilled,
            "tail_state": tail_state,
            "tail_entries": len(store.segments[-1]),
            "checkpoint_used": checkpoint_used,
            "checkpoint_upto": checkpoint_upto,
            "checkpoint_discarded": checkpoint_discarded,
            "view_tail_replayed": tail_replayed,
            "entries_before": entries_before,
            "lost_entries": lost,
        }
        return store

    def verify_blobs(self) -> dict[str, Any]:
        """Dry-run recovery drill against the live blobs.

        Decodes and chain-verifies what is currently spilled without
        touching this instance; returns the drill's recovery stats.
        Raises :class:`AuditRecoveryError` if the blobs would not
        recover.
        """
        drill = DurableAuditStore.recover(
            BlobImage(
                {n: self.blobs.get(n) for n in self.blobs.names()}
            ),
            name=self.name,
            segment_entries=self.segment_entries,
            auto_compact=False,
            costs=self.costs,
            flush_policy=self.flush_policy,
            flush_every=self.flush_every,
            entries_before=len(self),
        )
        return drill.recovery

    def stats(self) -> dict[str, Any]:
        out = super().stats()
        out["store"] = "durable"
        out["durable"] = {
            "flush_policy": self.flush_policy,
            "flush_every": self.flush_every,
            "flushed_entries": self._flushed,
            "unflushed_entries": len(self) - self._flushed,
            "spilled_segments": self._spilled,
            "flushes": self.flushes,
            "checkpoints": self.checkpoints,
            "pending_cost": self.pending_cost,
            "crashed": self.crashed,
        }
        if self.recovery is not None:
            out["durable"]["recovery"] = dict(self.recovery)
        return out
