"""Post-loss forensic audit reporting.

The paper's companion tool: "given a Tloss timestamp and an expiration
time, Texp, the tool reconstructs a full-fidelity audit report of all
accesses after Tloss − Texp, including full path names and access
timestamps."

The compromised set deliberately starts at ``Tloss − Texp`` (§3.3): any
key fetched inside one expiration period before the loss could still
have been cached — and therefore extractable — at the moment of loss,
so the user "must make the worst-case assumption that all keys cached
at Tloss are compromised".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core.services.keyservice import KeyService
from repro.core.services.metadataservice import MetadataService

__all__ = ["AuditRecord", "AuditReport", "AuditTool"]


@dataclass(frozen=True)
class AuditRecord:
    """One interpreted audit-log line."""

    timestamp: float
    device_id: str
    kind: str
    audit_id: bytes
    path: Optional[str]

    def render(self) -> str:
        path = self.path if self.path is not None else "<no metadata registered>"
        return (
            f"t={self.timestamp:12.3f}  {self.kind:<16} {path}  "
            f"(id={self.audit_id.hex()[:12]}…, via {self.device_id})"
        )


@dataclass
class AuditReport:
    """The reconstructed post-loss exposure report."""

    t_loss: float
    texp: float
    window_start: float
    records: list[AuditRecord] = field(default_factory=list)
    phone_compromised_ids: set[bytes] = field(default_factory=set)
    logs_intact: bool = True

    @property
    def compromised_ids(self) -> set[bytes]:
        ids = {r.audit_id for r in self.records}
        return ids | self.phone_compromised_ids

    def compromised_paths(self) -> dict[bytes, Optional[str]]:
        paths: dict[bytes, Optional[str]] = {}
        for record in self.records:
            paths.setdefault(record.audit_id, record.path)
        return paths

    def render(self) -> str:
        lines = [
            "KEYPAD FORENSIC AUDIT REPORT",
            f"  device loss time (Tloss):   {self.t_loss:.3f}",
            f"  key expiration (Texp):      {self.texp:.3f}",
            f"  exposure window starts at:  {self.window_start:.3f}",
            f"  log integrity:              "
            f"{'VERIFIED' if self.logs_intact else '*** BROKEN CHAIN ***'}",
            f"  compromised files:          {len(self.compromised_ids)}",
            "",
        ]
        if not self.records and not self.phone_compromised_ids:
            lines.append(
                "  No key accesses after the exposure window: no protected"
            )
            lines.append("  file was accessed after the device was lost.")
        for record in sorted(self.records, key=lambda r: r.timestamp):
            lines.append("  " + record.render())
        for audit_id in sorted(self.phone_compromised_ids):
            lines.append(
                f"  hoarded on stolen phone: id={audit_id.hex()[:12]}… "
                "(assume compromised)"
            )
        return "\n".join(lines)


class AuditTool:
    """Joins the key-service access log with metadata-service paths."""

    def __init__(self, key_service: KeyService, metadata_service: MetadataService):
        self.key_service = key_service
        self.metadata_service = metadata_service

    def report(
        self,
        t_loss: float,
        texp: float,
        device_id: Optional[str] = None,
        phone_hoarded_ids: Optional[Iterable[bytes]] = None,
    ) -> AuditReport:
        """Reconstruct the exposure report for a loss at ``t_loss``.

        ``phone_hoarded_ids``: if the paired phone was stolen along
        with the laptop, every key in its hoard must also be treated as
        compromised (§3.5: "the audit service will list more files as
        exposed than if the laptop were stolen alone").
        """
        window_start = t_loss - texp
        entries = self.key_service.accesses_after(window_start, device_id=device_id)
        records = [
            AuditRecord(
                timestamp=entry.timestamp,
                device_id=entry.device_id,
                kind=entry.kind,
                audit_id=entry.fields["audit_id"],
                path=self.metadata_service.path_of(entry.fields["audit_id"]),
            )
            for entry in entries
        ]
        intact = (
            self.key_service.access_log.verify_chain()
            and self.metadata_service.metadata_log.verify_chain()
        )
        return AuditReport(
            t_loss=t_loss,
            texp=texp,
            window_start=window_start,
            records=records,
            phone_compromised_ids=set(phone_hoarded_ids or ()),
            logs_intact=intact,
        )
