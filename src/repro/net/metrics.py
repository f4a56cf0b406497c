"""Transport metrics: per-channel and per-session counters.

Every :class:`~repro.net.rpc.RpcChannel` owns a :class:`ChannelMetrics`
and every :class:`~repro.core.client.ServiceSession` owns a
:class:`SessionMetrics`; benchmarks read them to report round-trip
savings (calls issued, in-flight high-water mark, coalesced hits,
batched messages, bytes).  Counters never influence simulated time, so
enabling them is free and they are always on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["ChannelMetrics", "SessionMetrics", "ClusterMetrics",
           "merge_channel_metrics"]


@dataclass
class ChannelMetrics:
    """Counters for one RPC channel (one device↔service connection)."""

    calls: int = 0              # RPCs actually put on the wire
    serial_calls: int = 0       # of which used the v1 serial path
    pipelined_calls: int = 0    # of which used the v2 pipelined path
    inflight_hwm: int = 0       # max concurrently outstanding requests
    bytes_sent: int = 0
    bytes_received: int = 0
    negotiated_version: Optional[int] = None
    handshakes: int = 0
    # RpcChannel never retries, so this reads 0; the frozen ledger still
    # reads it (ChannelMetrics.retries, as_dict()["retries"]).
    retries: int = 0
    deadline_expiries: int = 0  # op-context deadlines that fired mid-call

    def note_inflight(self, outstanding: int) -> None:
        if outstanding > self.inflight_hwm:
            self.inflight_hwm = outstanding

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "serial_calls": self.serial_calls,
            "pipelined_calls": self.pipelined_calls,
            "inflight_hwm": self.inflight_hwm,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "negotiated_version": self.negotiated_version,
            "handshakes": self.handshakes,
            "retries": self.retries,
            "deadline_expiries": self.deadline_expiries,
        }


@dataclass
class SessionMetrics:
    """Counters for one client service session (above the channels)."""

    coalesced_hits: int = 0     # fetches satisfied by joining another's RPC
    coalesced_batch_hits: int = 0  # batch slots filled from in-flight fetches
    batched_messages: int = 0   # write-behind items folded into batch RPCs
    write_behind_flushes: int = 0  # batch RPCs issued by the flusher
    enqueued: int = 0           # items accepted into the write-behind queue

    def as_dict(self) -> dict:
        return {
            "coalesced_hits": self.coalesced_hits,
            "coalesced_batch_hits": self.coalesced_batch_hits,
            "batched_messages": self.batched_messages,
            "write_behind_flushes": self.write_behind_flushes,
            "enqueued": self.enqueued,
        }


@dataclass
class ClusterMetrics:
    """Counters for one replicated key-service client."""

    share_fetches: int = 0      # logical fetches answered by combining shares
    retries: int = 0            # whole-gather retries (with backoff)
    hedged: int = 0             # duplicate requests sent to lagging replicas
    failovers: int = 0          # immediate re-sends after a replica failure
    deadline_expiries: int = 0  # per-request deadlines that fired
    marked_down: int = 0        # replicas placed in cooldown by health tracking
    probes: int = 0             # explicit health pings issued
    repairs: int = 0            # share re-uploads completed by the repairer
    repairs_abandoned: int = 0  # share re-uploads dropped after max attempts
    broadcasts: int = 0         # best-effort fan-outs (eviction notices)

    def as_dict(self) -> dict:
        return {
            "share_fetches": self.share_fetches,
            "retries": self.retries,
            "hedged": self.hedged,
            "failovers": self.failovers,
            "deadline_expiries": self.deadline_expiries,
            "marked_down": self.marked_down,
            "probes": self.probes,
            "repairs": self.repairs,
            "repairs_abandoned": self.repairs_abandoned,
            "broadcasts": self.broadcasts,
        }


def merge_channel_metrics(metrics: list[ChannelMetrics]) -> ChannelMetrics:
    """Aggregate several channels' counters (for summary tables)."""
    total = ChannelMetrics()
    for m in metrics:
        total.calls += m.calls
        total.serial_calls += m.serial_calls
        total.pipelined_calls += m.pipelined_calls
        total.inflight_hwm = max(total.inflight_hwm, m.inflight_hwm)
        total.bytes_sent += m.bytes_sent
        total.bytes_received += m.bytes_received
        total.handshakes += m.handshakes
        total.retries += m.retries
        total.deadline_expiries += m.deadline_expiries
        if m.negotiated_version is not None:
            total.negotiated_version = max(
                total.negotiated_version or 0, m.negotiated_version
            )
    return total
