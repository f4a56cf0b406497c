"""The admin-side control client.

A thin, typed stub over an authenticated :class:`~repro.net.rpc.RpcChannel`
to a :class:`~repro.control.server.ControlServer`.  Every method is a
sim-process generator (``result = yield from ctl.set_texp(30.0)``), so
admin commands pay the same network and marshalling costs as data-plane
RPCs and interleave honestly with running workloads.  Server-side
refusals arrive as :class:`~repro.errors.ControlError` (CLI exit
code 6).
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.net.rpc import RpcChannel

__all__ = ["ControlClient"]


class ControlClient:
    """Typed verbs over one admin channel (see docs/CONTROL.md)."""

    def __init__(self, channel: RpcChannel, server: Any = None):
        self.channel = channel
        #: the in-process ControlServer, for tests and introspection
        #: (wire-facing code should not reach through this).
        self.server = server

    # -- observe -------------------------------------------------------------
    def status(self) -> Generator:
        result = yield from self.channel.call("ctl.status")
        return result

    def metrics(self) -> Generator:
        result = yield from self.channel.call("ctl.metrics")
        return result

    def tail_trace(self, cursor: int = 0, limit: int = 50) -> Generator:
        """One page of finished op traces from ``cursor``; the returned
        ``cursor`` feeds the next call (a poll loop is a live tail)."""
        result = yield from self.channel.call(
            "ctl.tail_trace", cursor=int(cursor), limit=int(limit)
        )
        return result

    # -- reconfigure ---------------------------------------------------------
    def set_texp(self, texp: float,
                 texp_inflight: Optional[float] = None) -> Generator:
        params: dict[str, Any] = {"texp": float(texp)}
        if texp_inflight is not None:
            params["texp_inflight"] = float(texp_inflight)
        result = yield from self.channel.call("ctl.set_texp", **params)
        return result

    def update(self, **changes: Any) -> Generator:
        """Update any runtime-mutable knobs in one policy epoch."""
        result = yield from self.channel.call("ctl.update", changes=changes)
        return result

    def add_dir(self, path: str) -> Generator:
        result = yield from self.channel.call("ctl.add_dir", path=path)
        return result

    def remove_dir(self, path: str) -> Generator:
        result = yield from self.channel.call("ctl.remove_dir", path=path)
        return result

    # -- device lifecycle ----------------------------------------------------
    def revoke(self, device_id: str) -> Generator:
        result = yield from self.channel.call("ctl.revoke",
                                              device_id=device_id)
        return result

    def rotate_secret(self, device_id: str) -> Generator:
        result = yield from self.channel.call("ctl.rotate_secret",
                                              device_id=device_id)
        return result

    # -- service lifecycle ---------------------------------------------------
    def drain(self, index: Optional[int] = None) -> Generator:
        params = {} if index is None else {"index": int(index)}
        result = yield from self.channel.call("ctl.drain", **params)
        return result

    def admit(self, index: Optional[int] = None) -> Generator:
        params = {} if index is None else {"index": int(index)}
        result = yield from self.channel.call("ctl.admit", **params)
        return result

    # -- audit store ---------------------------------------------------------
    def audit_stats(self, index: Optional[int] = None) -> Generator:
        """Segment/view statistics per key service (PROTOCOL.md §12)."""
        params = {} if index is None else {"index": int(index)}
        result = yield from self.channel.call("ctl.audit_stats", **params)
        return result

    def audit_seal(self, index: Optional[int] = None) -> Generator:
        """Force-seal the active segment (segmented stores only)."""
        params = {} if index is None else {"index": int(index)}
        result = yield from self.channel.call("ctl.audit_seal", **params)
        return result

    def audit_rebuild(self, index: Optional[int] = None) -> Generator:
        """Rebuild materialized views by replaying the log."""
        params = {} if index is None else {"index": int(index)}
        result = yield from self.channel.call("ctl.audit_rebuild", **params)
        return result

    def audit_checkpoint(self, index: Optional[int] = None) -> Generator:
        """Persist a view checkpoint (durable stores only)."""
        params = {} if index is None else {"index": int(index)}
        result = yield from self.channel.call("ctl.audit_checkpoint",
                                              **params)
        return result

    def audit_recover(self, index: Optional[int] = None) -> Generator:
        """Restart crashed services through audit recovery; on healthy
        durable services, a read-only recovery drill."""
        params = {} if index is None else {"index": int(index)}
        result = yield from self.channel.call("ctl.audit_recover", **params)
        return result

    # -- federation ----------------------------------------------------------
    def region_status(self) -> Generator:
        """Per-region replica availability and the topology
        (federated mounts only; PROTOCOL.md §14)."""
        result = yield from self.channel.call("ctl.region_status")
        return result

    def region_partition_report(self,
                                window: Optional[float] = None) -> Generator:
        """Merged cross-region audit timeline: region-split divergences
        plus the post-heal convergence proof."""
        params = {} if window is None else {"window": float(window)}
        result = yield from self.channel.call("ctl.region_partition_report",
                                              **params)
        return result
