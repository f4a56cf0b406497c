"""Event-sourced audit store with materialized forensic views.

The write side (:mod:`repro.auditstore.store`) organises the paper's
durable audit log into group-committed, hash-chained, compactable
segments; the read side (:mod:`repro.auditstore.views`) keeps CQRS
projections — per-device timeline, per-file access set, post-theft
window index — incrementally current so forensic queries answer in
O(view) instead of O(log).  :mod:`repro.auditstore.log` holds the flat
log primitives the rest of the tree shares.

Select the segmented store with
``KeypadConfig.builder().audit_store("segmented")``; the default is
the paper-faithful flat log.
"""

from repro.costmodel import DEFAULT_COSTS

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
    ShardedLog,
    entry_digest,
)
from .store import AuditSegment, SegmentedAuditStore
from .views import AuditViews

__all__ = [
    "AppendOnlyLog",
    "AuditSegment",
    "AuditViews",
    "BlobImage",
    "DISCLOSING_KINDS",
    "DurableAuditStore",
    "FLUSH_POLICIES",
    "GENESIS_HASH",
    "LogEntry",
    "SegmentedAuditStore",
    "ShardedLog",
    "decode_checkpoint",
    "decode_segment",
    "encode_checkpoint",
    "encode_segment",
    "entry_digest",
]


def make_audit_log(
    name: str,
    store: str = "flat",
    shards: int = 1,
    router=None,
    segment_entries: int = 1024,
    auto_compact: bool = True,
    durable: bool = False,
    blobs=None,
    flush_policy: str = "every-seal",
    flush_every: int = 64,
    costs=DEFAULT_COSTS,
):
    """Build the audit log a service should write to.

    ``store="flat"`` reproduces the paper's log exactly: one
    ``AppendOnlyLog`` (or a ``ShardedLog`` when ``shards > 1``).
    ``store="segmented"`` returns a ``SegmentedAuditStore`` — one
    global store regardless of ``shards``, since group-committed
    segments subsume the per-shard chain trick without changing any
    simulated-time behavior.  ``durable=True`` (segmented only) wraps
    the store in a :class:`DurableAuditStore` spilling into ``blobs``
    (a ``BlobStore``/``BlobNamespace``) on ``flush_policy``.
    """
    if durable and store != "segmented":
        raise ValueError(
            f"durable audit stores require store='segmented', "
            f"not {store!r}"
        )
    if store == "segmented":
        inner = SegmentedAuditStore(
            name=name,
            segment_entries=segment_entries,
            auto_compact=auto_compact,
        )
        if not durable:
            return inner
        if blobs is None:
            raise ValueError("a durable audit store needs a blob namespace")
        return DurableAuditStore(
            inner,
            blobs,
            costs=costs,
            flush_policy=flush_policy,
            flush_every=flush_every,
        )
    if store != "flat":
        raise ValueError(f"unknown audit store {store!r}")
    if shards > 1:
        if router is None:
            raise ValueError("a sharded flat log needs a router")
        return ShardedLog(name=name, shards=shards, router=router)
    return AppendOnlyLog(name=name)
