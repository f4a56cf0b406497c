"""Forensic merge of per-replica audit logs into one timeline.

With a k-of-m replicated key service every fetch leaves k (or more)
independent, hash-chained audit records — one per contacted replica.
:class:`ClusterAuditLog` folds them back into a single timeline for the
forensic tool: entries for the same ``(device, audit ID, kind)`` within
a small clock window are one logical access that happened to be
witnessed by several replicas, and the merged view keeps one
representative record per such group (so a 2-of-3 fetch is one line in
the report, not two).

It also *cross-checks* the replicas, reporting :class:`Divergence`
records when their stories disagree:

* ``chain-broken`` — a replica's hash chain fails verification
  (tampering or truncation on that replica);
* ``under-replicated`` — some audit ID was disclosed yet fewer than the
  k threshold replicas ever logged it, which a correct client cannot
  produce (a fetch completes only after k replicas durably logged);
* ``revocation-divergence`` — some replicas consider the device
  revoked and others do not;
* ``region-split`` — on a multi-region group (its replicas carry
  region labels), the under-replicated IDs that were witnessed *only
  inside one region* are folded into a single per-region record: the
  signature of a region partition, where devices kept reaching their
  local replicas but the shares could not cross the cut.  :meth:`convergence_report` proves
  the post-heal property — every entry appended on either side of the
  partition appears exactly once in the merged timeline;
* ``stale-recovery`` — a replica came back from a crash+restart with
  fewer entries than it held at death (its unflushed tail was lost),
  so its log is an honest but *stale* witness.  The k-1 other replicas
  still hold the missing records — this is the real scenario the
  shrink-triggered incremental-merge rebuild exists for: a restarted
  replica's log is shorter than the merge's high-water mark, the cache
  is replayed from scratch, and the loss is *named* here rather than
  silently papered over.

A healthy run — even one with a crashed replica, since k live replicas
still log every completed read — merges with **zero** divergences;
``bench_availability`` asserts exactly that.

:class:`ClusterAuditLog` duck-types the slice of
:class:`~repro.core.services.keyservice.KeyService` that
:class:`~repro.forensics.audit.AuditTool` reads (``accesses_after`` and
``access_log.verify_chain``), so the existing forensic tool runs over a
cluster unchanged.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from repro.core.services.keyservice import DISCLOSING_KINDS, KeyService
from repro.auditstore.log import LogEntry
from repro.cluster.replica import ReplicaGroup

__all__ = ["MergedAccess", "Divergence", "ClusterAuditLog"]


@dataclass(frozen=True)
class MergedAccess:
    """One logical access, as witnessed by one or more replicas."""

    timestamp: float            # earliest replica record of the access
    device_id: str
    kind: str
    audit_id: bytes
    replica_indices: tuple[int, ...]
    entries: tuple[LogEntry, ...] = field(compare=False, default=())

    @property
    def witnesses(self) -> int:
        return len(self.replica_indices)

    def describe(self) -> str:
        reps = ",".join(str(i) for i in self.replica_indices)
        return (
            f"[{self.timestamp:.3f}] {self.device_id} {self.kind} "
            f"id={self.audit_id.hex()[:12]}… (replicas {reps})"
        )


@dataclass(frozen=True)
class Divergence:
    """A disagreement between replica audit logs."""

    kind: str                   # chain-broken | under-replicated |
                                # revocation-divergence | stale-recovery |
                                # region-split
    detail: str
    replica_indices: tuple[int, ...] = ()
    audit_id: Optional[bytes] = None

    def describe(self) -> str:
        return f"{self.kind}: {self.detail}"


class ClusterAuditLog:
    """Merged, cross-checked view over a replica group's audit logs."""

    def __init__(
        self,
        replicas: Union[ReplicaGroup, Iterable[KeyService]],
        threshold: int,
        window: float = 5.0,
    ):
        #: per-replica region labels; None for a one-region cluster
        self.regions: Optional[list[str]] = None
        if isinstance(replicas, ReplicaGroup):
            self.regions = replicas.region_labels
            self.replicas = list(replicas.replicas)
        else:
            self.replicas = list(replicas)
        if not self.replicas:
            raise ValueError("a cluster audit log needs at least one replica")
        if not 1 <= threshold <= len(self.replicas):
            raise ValueError("threshold must be within the replica count")
        self.threshold = threshold
        self.window = window
        # Incremental-merge state: per-replica high-water marks over the
        # log's global append positions, plus a cache of every
        # disclosing entry seen so far, kept sorted by
        # ``(timestamp, replica_idx, sequence)``.  Repeated merges
        # (fleet runs, tail_trace) are O(new entries), not O(log).
        self._consumed: list[int] = [0] * len(self.replicas)
        self._cache: list[tuple[float, int, int, LogEntry]] = []
        self.resorts = 0      # out-of-order batches forcing a re-sort
        self.rebuilds = 0     # log shrank (tamper/truncation) → full replay
        #: (cache version, result) memo for the unfiltered timeline.
        self._merged_memo: Optional[tuple[tuple, list[MergedAccess]]] = None

    # -- merging -------------------------------------------------------------
    def _refresh(self) -> None:
        """Pull each replica's log tail past our high-water mark."""
        fresh: list[tuple[float, int, int, LogEntry]] = []
        for index, replica in enumerate(self.replicas):
            log = replica.access_log
            if len(log) < self._consumed[index]:
                # A log can only grow; shrinking means tampering or a
                # swapped store.  Drop everything and replay.
                self._consumed = [0] * len(self.replicas)
                self._cache.clear()
                self.rebuilds += 1
                self._refresh()
                return
            for entry in log.tail(self._consumed[index]):
                if entry.kind in DISCLOSING_KINDS:
                    fresh.append(
                        (entry.timestamp, index, entry.sequence, entry)
                    )
            self._consumed[index] = len(log)
        if not fresh:
            return
        fresh.sort(key=lambda item: item[:3])
        if self._cache and fresh[0][:3] < self._cache[-1][:3]:
            # Stragglers (phone-side report batches, replica repair)
            # landed behind the cache tail; merge by full re-sort.
            self._cache.extend(fresh)
            self._cache.sort(key=lambda item: item[:3])
            self.resorts += 1
        else:
            self._cache.extend(fresh)

    def _tagged_entries(
        self, since: Optional[float] = None, device_id: Optional[str] = None
    ) -> list[tuple[int, LogEntry]]:
        """Disclosing entries from every replica, globally time-sorted."""
        self._refresh()
        items = self._cache
        if since is not None:
            start = bisect_left(items, since, key=lambda item: item[0])
            items = items[start:]
        return [
            (index, entry)
            for _, index, _, entry in items
            if device_id is None or entry.device_id == device_id
        ]

    def merge_stats(self) -> dict:
        """Incremental-merge bookkeeping (``ctl.audit_stats``, tests)."""
        return {
            "consumed": list(self._consumed),
            "cached": len(self._cache),
            "resorts": self.resorts,
            "rebuilds": self.rebuilds,
        }

    def merged(
        self, since: Optional[float] = None, device_id: Optional[str] = None
    ) -> list[MergedAccess]:
        """The deduplicated timeline: one record per logical access.

        Same-``(device, ID, kind)`` entries whose timestamps fall within
        ``window`` seconds of the group's first record are witnesses of
        one access; records further apart are separate accesses (e.g.
        re-fetches in a later expiration window).
        """
        unfiltered = since is None and device_id is None
        if unfiltered:
            self._refresh()
            version = (len(self._cache), self.resorts, self.rebuilds)
            if self._merged_memo is not None and (
                self._merged_memo[0] == version
            ):
                return self._merged_memo[1]
        open_groups: dict[tuple, list[tuple[int, LogEntry]]] = {}
        accesses: list[MergedAccess] = []

        def close(key: tuple, members: list[tuple[int, LogEntry]]) -> None:
            indices = tuple(sorted({i for i, _ in members}))
            accesses.append(
                MergedAccess(
                    timestamp=members[0][1].timestamp,
                    device_id=key[0],
                    kind=key[2],
                    audit_id=key[1],
                    replica_indices=indices,
                    entries=tuple(e for _, e in members),
                )
            )

        for index, entry in self._tagged_entries(since, device_id):
            key = (entry.device_id, entry.fields.get("audit_id", b""), entry.kind)
            members = open_groups.get(key)
            if members is not None and (
                entry.timestamp - members[0][1].timestamp <= self.window
            ):
                members.append((index, entry))
                continue
            if members is not None:
                close(key, members)
            open_groups[key] = [(index, entry)]
        for key, members in open_groups.items():
            close(key, members)
        accesses.sort(key=lambda a: (a.timestamp, a.audit_id, a.kind))
        if unfiltered:
            self._merged_memo = (version, accesses)
        return accesses

    # -- cross-checking ------------------------------------------------------
    def divergences(self, device_id: Optional[str] = None) -> list[Divergence]:
        """Disagreements between the replica logs (empty = consistent)."""
        out: list[Divergence] = []
        for index, replica in enumerate(self.replicas):
            if not replica.access_log.verify_chain():
                out.append(
                    Divergence(
                        "chain-broken",
                        f"replica {index} audit-log hash chain fails "
                        "verification",
                        replica_indices=(index,),
                    )
                )
        for index, replica in enumerate(self.replicas):
            stats = replica.recovery_stats
            if stats and stats.get("lost_entries"):
                out.append(
                    Divergence(
                        "stale-recovery",
                        f"replica {index} restarted missing "
                        f"{stats['lost_entries']} audit entries "
                        f"(recovered {stats.get('recovered_entries')} of "
                        f"{stats.get('entries_before')} held at death)",
                        replica_indices=(index,),
                    )
                )
        # Replica coverage per disclosed audit ID, over all time: a
        # completed k-of-m operation leaves records on >= k replicas
        # (repairs may land late, hence no windowing here).
        coverage: dict[bytes, set[int]] = {}
        spans: dict[bytes, tuple[float, float]] = {}
        for index, entry in self._tagged_entries(device_id=device_id):
            audit_id = entry.fields.get("audit_id")
            if audit_id:
                audit_id = bytes(audit_id)
                coverage.setdefault(audit_id, set()).add(index)
                lo, hi = spans.get(
                    audit_id, (entry.timestamp, entry.timestamp)
                )
                spans[audit_id] = (
                    min(lo, entry.timestamp), max(hi, entry.timestamp)
                )
        # With region labels, under-replicated IDs confined to a single
        # region are the fingerprint of a partition — fold them into one
        # region-split record per region instead of per-ID noise.
        confined: dict[str, list[bytes]] = {}
        for audit_id, indices in sorted(coverage.items()):
            if len(indices) >= self.threshold:
                continue
            if self.regions is not None:
                witness_regions = {self.regions[i] for i in indices}
                if len(witness_regions) == 1:
                    confined.setdefault(
                        next(iter(witness_regions)), []
                    ).append(audit_id)
                    continue
            out.append(
                Divergence(
                    "under-replicated",
                    f"id {audit_id.hex()[:12]}… was disclosed but only "
                    f"{len(indices)}/{self.threshold} replicas logged it",
                    replica_indices=tuple(sorted(indices)),
                    audit_id=audit_id,
                )
            )
        for region in sorted(confined):
            ids = confined[region]
            lo = min(spans[a][0] for a in ids)
            hi = max(spans[a][1] for a in ids)
            members = tuple(
                i for i, name in enumerate(self.regions or [])
                if name == region
            )
            out.append(
                Divergence(
                    "region-split",
                    f"region {region}: {len(ids)} disclosed id(s) between "
                    f"t={lo:.3f} and t={hi:.3f} were witnessed only inside "
                    f"{region} (below the {self.threshold}-replica "
                    "threshold) — consistent with a region partition",
                    replica_indices=members,
                )
            )
        revoked = {
            index
            for index, replica in enumerate(self.replicas)
            if device_id is not None and replica.is_revoked(device_id)
        }
        if revoked and len(revoked) < len(self.replicas):
            out.append(
                Divergence(
                    "revocation-divergence",
                    f"device {device_id} is revoked on replicas "
                    f"{sorted(revoked)} but not the rest",
                    replica_indices=tuple(sorted(revoked)),
                )
            )
        return out

    # -- post-heal convergence ----------------------------------------------
    def convergence_report(self) -> dict:
        """Prove (or disprove) post-heal convergence of the merge.

        Converged means every disclosing entry appended on any replica —
        on either side of a partition — appears in exactly one merged
        group: no entry is dropped (``missing_entries == 0``), no
        logical access is counted twice (``duplicate_groups == 0``, two
        same-key groups closer than the merge window apart), and no
        replica lost entries to a stale crash recovery.
        """
        accesses = self.merged()
        entries = len(self._cache)
        grouped = sum(len(a.entries) for a in accesses)
        last_start: dict[tuple, float] = {}
        duplicates = 0
        for access in accesses:
            key = (access.device_id, access.audit_id, access.kind)
            prev = last_start.get(key)
            if prev is not None and access.timestamp - prev <= self.window:
                duplicates += 1
            last_start[key] = access.timestamp
        lost = 0
        for replica in self.replicas:
            stats = replica.recovery_stats
            if stats:
                lost += int(stats.get("lost_entries") or 0)
        report = {
            "entries": entries,
            "merged_accesses": len(accesses),
            "grouped_entries": grouped,
            "missing_entries": entries - grouped,
            "duplicate_groups": duplicates,
            "lost_entries": lost,
            "converged": (
                entries == grouped and duplicates == 0 and lost == 0
            ),
        }
        if self.regions is not None:
            per_region = {name: 0 for name in dict.fromkeys(self.regions)}
            for _, index, _, _ in self._cache:
                per_region[self.regions[index]] += 1
            report["entries_by_region"] = per_region
        return report

    def region_report(self, device_id: Optional[str] = None) -> dict:
        """The ``ctl.region_partition_report`` payload: every
        divergence, the region splits, and the convergence proof."""
        divergences = self.divergences(device_id)
        splits = [d for d in divergences if d.kind == "region-split"]
        return {
            "divergences": [
                {
                    "kind": d.kind,
                    "detail": d.detail,
                    "replicas": list(d.replica_indices),
                }
                for d in divergences
            ],
            "splits": [d.detail for d in splits],
            "split_count": len(splits),
            "convergence": self.convergence_report(),
        }

    # -- the KeyService surface AuditTool reads ------------------------------
    def accesses_after(
        self, t: float, device_id: Optional[str] = None
    ) -> list[LogEntry]:
        """One representative entry per merged access at or after ``t``."""
        return [
            access.entries[0]
            for access in self.merged(since=t, device_id=device_id)
        ]

    @property
    def access_log(self) -> "ClusterAuditLog":
        # AuditTool calls ``key_service.access_log.verify_chain()``.
        return self

    def verify_chain(self) -> bool:
        return all(r.access_log.verify_chain() for r in self.replicas)
