"""Audit-log export/import for offline forensics.

The paper's forensic tool is a standalone Python program run by the
victim (or their drive manufacturer's web service) over the services'
logs.  This module serializes both services' append-only logs to a
JSON bundle and reloads them into read-only replicas that
:class:`~repro.forensics.audit.AuditTool` can query — so reports can be
produced long after (and far away from) the simulation that generated
the logs.

The replicas answer through the live services' own code (the
metadata log replays into a ``MetadataProjection``; disclosing accesses
come from ``repro.auditstore.views.accesses_after``).  Records keep
their ``sequence`` and ``chain_hash`` (format 2) and load with them, so
``verify_chain`` checks the chain the services wrote: an edited,
reordered or removed interior record breaks it.  Dropping a log's final
records stays undetectable without an anchor (its last chain hash) held
outside the bundle.
"""

from __future__ import annotations

import json
from typing import Any

from repro.auditstore.log import AppendOnlyLog, new_entry
from repro.auditstore.views import AuditViews, accesses_after
from repro.core.services.keyservice import KeyService
from repro.core.services.metadataservice import (
    MetadataProjection,
    MetadataService,
)

__all__ = ["export_logs", "load_bundle", "OfflineKeyLog"]

_FORMAT_VERSION = 2


def _encode_fields(fields: dict[str, Any]) -> dict[str, Any]:
    out = {}
    for key, value in fields.items():
        if isinstance(value, bytes):
            out[key] = {"__bytes__": value.hex()}
        else:
            out[key] = value
    return out


def _decode_fields(fields: dict[str, Any]) -> dict[str, Any]:
    out = {}
    for key, value in fields.items():
        if isinstance(value, dict) and "__bytes__" in value:
            out[key] = bytes.fromhex(value["__bytes__"])
        else:
            out[key] = value
    return out


def _export_log(log: AppendOnlyLog) -> list[dict]:
    return [
        {
            "sequence": entry.sequence,
            "timestamp": entry.timestamp,
            "device_id": entry.device_id,
            "kind": entry.kind,
            "fields": _encode_fields(entry.fields),
            "chain_hash": entry.chain_hash.hex(),
        }
        for entry in log
    ]


def _import_log(records: list[dict], name: str) -> AppendOnlyLog:
    return AppendOnlyLog(name=name, _entries=[
        new_entry(record["sequence"], record["timestamp"],
                  record["device_id"], record["kind"],
                  _decode_fields(record["fields"]),
                  bytes.fromhex(record["chain_hash"]))
        for record in records
    ])


def export_logs(
    key_service: KeyService, metadata_service: MetadataService
) -> str:
    """Serialize both services' logs to a JSON bundle string."""
    bundle = {
        "format": _FORMAT_VERSION,
        "key_access_log": _export_log(key_service.access_log),
        "metadata_log": _export_log(metadata_service.metadata_log),
    }
    return json.dumps(bundle, indent=1)


class OfflineKeyLog:
    """Read-only replica of the key service's audit state."""

    def __init__(self, log: AppendOnlyLog):
        self.access_log = log
        self._views: AuditViews | None = None

    @property
    def views(self) -> AuditViews:
        """Materialized forensic views over the bundle, built lazily
        on first use (offline bundles are read-only, so one rebuild is
        enough for the replica's lifetime)."""
        if self._views is None:
            self._views = AuditViews(self.access_log)
            self._views.rebuild()
        return self._views

    def accesses_after(self, t: float, device_id: str | None = None):
        return accesses_after(self.access_log, t, device_id=device_id)


def load_bundle(text: str) -> tuple[OfflineKeyLog, MetadataProjection]:
    """Parse a bundle back into AuditTool-compatible replicas."""
    bundle = json.loads(text)
    if bundle.get("format") != _FORMAT_VERSION:
        raise ValueError(f"unsupported bundle format {bundle.get('format')!r}")
    key_log = _import_log(bundle["key_access_log"], "key-access")
    metadata_log = _import_log(bundle["metadata_log"], "metadata")
    return OfflineKeyLog(key_log), MetadataProjection(metadata_log)
