"""Event-sourced audit store with materialized forensic views.

The write side (:mod:`repro.auditstore.store`) organises the paper's
durable audit log into group-committed, hash-chained, compactable
segments; the read side (:mod:`repro.auditstore.views`) keeps CQRS
projections — per-device timeline, per-file access set, post-theft
window index — incrementally current so forensic queries answer in
O(view) instead of O(log).  :mod:`repro.auditstore.log` holds the flat
log primitives the rest of the tree shares.

Which of the three stores a service keeps is one frozen
:class:`AuditSpec` (``KeypadConfig.audit``, built with
``KeypadConfig.builder().audit_store("segmented")``), passed unchanged
from the config to the store; the default is the paper-faithful flat
log.
"""

from dataclasses import dataclass
from typing import Any, Optional

from repro.costmodel import DEFAULT_COSTS, CostModel
from repro.errors import ConfigError

from .codec import (
    decode_checkpoint,
    decode_segment,
    encode_checkpoint,
    encode_segment,
)
from .durable import FLUSH_POLICIES, BlobImage, DurableAuditStore
from .log import (
    DISCLOSING_KINDS,
    GENESIS_HASH,
    AppendOnlyLog,
    LogEntry,
    entry_digest,
)
from .store import AuditSegment, SegmentedAuditStore
from .views import AuditViews

__all__ = [
    "AppendOnlyLog",
    "AuditSegment",
    "AuditSpec",
    "AuditViews",
    "BlobImage",
    "DISCLOSING_KINDS",
    "DurableAuditStore",
    "FLUSH_POLICIES",
    "GENESIS_HASH",
    "LogEntry",
    "SegmentedAuditStore",
    "decode_checkpoint",
    "decode_segment",
    "encode_checkpoint",
    "encode_segment",
    "entry_digest",
]


#: the audit stores a service can keep.
AUDIT_STORES = ("flat", "segmented", "durable")


@dataclass(frozen=True)
class AuditSpec:
    """Which audit store a service keeps, and how.

    ``store`` is ``"flat"`` (the paper's :class:`AppendOnlyLog`, the
    default), ``"segmented"`` (:class:`SegmentedAuditStore`:
    seal-chained segments with materialized views) or ``"durable"``
    (:class:`DurableAuditStore`: the segmented store spilled to
    write-once blobs, with crash recovery).  ``segment_entries`` sizes
    a segment; ``flush_policy`` and ``flush_every`` set a durable
    store's group commit (see docs/AUDITSTORE.md).  The spec is checked
    once, here, and raises :class:`~repro.errors.ConfigError`.
    """

    store: str = "flat"
    segment_entries: int = 1024
    flush_policy: str = "every-seal"
    flush_every: int = 64

    def __post_init__(self):
        if self.store not in AUDIT_STORES:
            raise ConfigError(
                f"audit store must be one of {AUDIT_STORES}, "
                f"got {self.store!r}"
            )
        if self.segment_entries < 2:
            raise ConfigError(
                f"audit segment_entries must be >= 2, "
                f"got {self.segment_entries!r}"
            )
        if self.flush_policy not in FLUSH_POLICIES:
            raise ConfigError(
                f"audit flush_policy must be one of {FLUSH_POLICIES}, "
                f"got {self.flush_policy!r}"
            )
        if self.flush_every < 1:
            raise ConfigError(
                f"audit flush_every must be >= 1, got {self.flush_every!r}"
            )

    def open(self, name: str, blobs: Any = None,
             costs: CostModel = DEFAULT_COSTS):
        """A fresh log of this kind; a durable one spills into
        ``blobs`` (a ``BlobNamespace``)."""
        if self.store == "flat":
            return AppendOnlyLog(name=name)
        if self.store == "segmented":
            return SegmentedAuditStore(
                name=name, segment_entries=self.segment_entries
            )
        if blobs is None:
            raise ConfigError("a durable audit store needs a blob namespace")
        return DurableAuditStore(
            blobs, name=name, segment_entries=self.segment_entries,
            costs=costs, flush_policy=self.flush_policy,
            flush_every=self.flush_every,
        )

    def recover(self, name: str, blobs: Any,
                costs: CostModel = DEFAULT_COSTS,
                entries_before: Optional[int] = None) -> DurableAuditStore:
        """A durable store rebuilt from ``blobs`` alone (see
        :meth:`DurableAuditStore.recover`)."""
        return DurableAuditStore.recover(
            blobs, name=name, segment_entries=self.segment_entries,
            costs=costs, flush_policy=self.flush_policy,
            flush_every=self.flush_every, entries_before=entries_before,
        )
