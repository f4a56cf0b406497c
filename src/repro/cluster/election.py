"""Per-shard leader election with lease renewal, piggybacked on gossip.

Leadership in the federation is advisory — shares of a fetch still land
on k distinct audit logs regardless of who leads — but per-shard leaders
give the control plane a stable coordinator for shard-scoped work
(compaction, checkpoint scheduling, future cross-region repair).  The
mechanism is a lease table replicated by the gossip exchanges:

* a :class:`Lease` is ``(shard, holder, term, expires_at)``;
* tables merge by the total order ``(term, expires_at, holder)`` —
  higher term always wins, so every member converges to the same
  winner no matter the merge order;
* the holder renews when less than half the lease duration remains;
* when a lease expires, or its holder is dead in the local membership
  view, exactly one member is the *deterministic candidate* for the
  shard — ``sorted(alive)[shard % len(alive)]`` — and only the
  candidate claims, at ``term + 1``.

Re-election after a leader crash is therefore deterministic: every
member computes the same candidate from the same (converged) alive set,
and same-seed runs elect the same successors at the same sim times.
During a partition each side may elect its own leader for a shard; the
post-heal merge resolves to the higher term, mirroring how the audit
merge resolves divergent region logs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["Lease", "LeaseManager"]


@dataclass
class Lease:
    """One shard's leadership claim."""

    shard: int
    holder: str
    term: int
    expires_at: float

    def to_wire(self) -> dict:
        return {
            "shard": self.shard,
            "holder": self.holder,
            "term": self.term,
            "expires_at": self.expires_at,
        }

    def _order(self) -> Tuple[int, float, str]:
        return (self.term, self.expires_at, self.holder)


class LeaseManager:
    """One member's view of every shard's lease.

    Driven by its :class:`~repro.cluster.gossip.GossipAgent`:
    :meth:`merge` on every exchange, :meth:`tick` once per round with
    the current alive set.
    """

    def __init__(self, member_id: str, shards: int, duration: float):
        if shards < 1:
            raise ValueError("need at least one election shard")
        if duration <= 0:
            raise ValueError("lease duration must be positive")
        self.member_id = member_id
        self.shards = shards
        self.duration = duration
        self.table: Dict[int, Lease] = {}
        #: (time, event) claim/renew trace; deterministic per seed.
        self.events: List[Tuple[float, str]] = []

    # -- replication -------------------------------------------------------
    def export(self) -> List[dict]:
        return [self.table[s].to_wire() for s in sorted(self.table)]

    def merge(self, records: List[dict], now: float) -> None:
        for rec in records:
            try:
                lease = Lease(
                    int(rec["shard"]),
                    str(rec["holder"]),
                    int(rec["term"]),
                    float(rec["expires_at"]),
                )
            except (KeyError, TypeError, ValueError):
                continue  # malformed claim: ignore
            if not 0 <= lease.shard < self.shards:
                continue
            current = self.table.get(lease.shard)
            if current is None or lease._order() > current._order():
                self.table[lease.shard] = lease

    # -- election ----------------------------------------------------------
    def tick(self, alive: List[str], now: float) -> None:
        """Renew held leases; claim expired/orphaned shards if (and
        only if) this member is the deterministic candidate."""
        alive = sorted(alive)
        if not alive:
            return
        for shard in range(self.shards):
            current = self.table.get(shard)
            if (
                current is not None
                and current.expires_at > now
                and current.holder in alive
            ):
                if (
                    current.holder == self.member_id
                    and current.expires_at - now < self.duration / 2
                ):
                    self.table[shard] = Lease(
                        shard, self.member_id, current.term,
                        now + self.duration,
                    )
                    self.events.append(
                        (now, f"renew shard={shard} term={current.term}")
                    )
                continue
            candidate = alive[shard % len(alive)]
            if candidate != self.member_id:
                continue
            term = (current.term if current is not None else 0) + 1
            self.table[shard] = Lease(
                shard, self.member_id, term, now + self.duration
            )
            self.events.append((now, f"claim shard={shard} term={term}"))

    # -- introspection -----------------------------------------------------
    def leader_of(self, shard: int, now: float) -> Optional[str]:
        lease = self.table.get(shard)
        if lease is None or lease.expires_at <= now:
            return None
        return lease.holder
