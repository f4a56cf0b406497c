"""The Keypad metadata service (also the IBE private-key generator).

Stores user-interpretable file metadata — ``directoryID/filename``
tuples keyed by audit ID, plus the directory registry — in append-only
logs, and acts as the Boneh-Franklin PKG (§3.4): the IBE private key
for an identity is released only *after* the identity (which embeds the
file's current path and audit ID) has been durably logged.  A thief who
lies about the path gets a private key that cannot unlock the file.

The metadata service "learns the file system's structure, but not the
access patterns" — it never sees key fetches.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.costmodel import DEFAULT_COSTS, CostModel
from repro.crypto.ibe import TOY, PrivateKeyGenerator
from repro.errors import RpcError
from repro.net.rpc import RpcServer
from repro.sim import Simulation
from repro.auditstore.log import AppendOnlyLog, LogEntry

__all__ = ["MetadataService", "MetadataProjection", "identity_string",
           "parse_identity"]

ROOT_DIR_ID = "d-root"


def identity_string(dir_id: str, name: str, audit_id: bytes) -> bytes:
    """The IBE public-key string: path tuple strongly bound to audit ID.

    "Its encrypted data key is further encrypted using IBE under a
    public key consisting of the file's path (directoryID/filename)
    and the audit ID."
    """
    return f"{dir_id}/{name}|{audit_id.hex()}".encode()


def parse_identity(identity: bytes) -> tuple[str, str, bytes]:
    try:
        text = identity.decode()
        path_part, audit_hex = text.rsplit("|", 1)
        dir_id, name = path_part.split("/", 1)
        return dir_id, name, bytes.fromhex(audit_hex)
    except (ValueError, UnicodeDecodeError) as exc:
        raise RpcError(f"malformed IBE identity {identity!r}") from exc


class MetadataProjection:
    """The latest-wins view of one metadata log (each audit ID's and
    directory's last placement, each file's latest xattrs): a fold over
    its entries, fed live by the service or by replaying an export."""

    def __init__(self, log: AppendOnlyLog):
        self.metadata_log = log
        self._files: dict[bytes, tuple[str, str]] = {}
        self._dirs: dict[str, tuple[str, str]] = {ROOT_DIR_ID: ("", "/")}
        self._xattrs: dict[bytes, dict[str, bytes]] = {}
        for entry in log:
            self.ingest(entry)

    def ingest(self, entry: LogEntry) -> None:
        fields = entry.fields
        if entry.kind == "file":
            self._files[fields["audit_id"]] = (fields["dir_id"],
                                               fields["name"])
        elif entry.kind == "dir":
            self._dirs[fields["dir_id"]] = (fields["parent_id"],
                                            fields["name"])
        elif entry.kind == "xattr":
            self._xattrs.setdefault(fields["audit_id"], {})[
                fields["name"]] = fields["value"]

    def has_dir(self, dir_id: str) -> bool:
        return dir_id in self._dirs

    def xattrs_of(self, audit_id: bytes) -> dict[str, bytes]:
        """Latest registered extended attributes for an audit ID."""
        return dict(self._xattrs.get(audit_id, {}))

    def path_of(self, audit_id: bytes) -> Optional[str]:
        """Reconstruct the latest full path for an audit ID."""
        record = self._files.get(audit_id)
        if record is None:
            return None
        dir_id, leaf = record
        parts = [leaf]
        seen = set()
        while dir_id and dir_id != ROOT_DIR_ID:
            if dir_id in seen:
                return "<cycle>/" + "/".join(parts)
            seen.add(dir_id)
            entry = self._dirs.get(dir_id)
            if entry is None:
                return "<unknown>/" + "/".join(parts)
            dir_id, name = entry
            parts.insert(0, name)
        return "/" + "/".join(parts)


class MetadataService:
    """Metadata registry + PKG.  Wraps an :class:`RpcServer`."""

    def __init__(
        self,
        sim: Simulation,
        costs: CostModel = DEFAULT_COSTS,
        ibe_params: str = TOY,
        master_seed: bytes = b"metadata-service-master",
        name: str = "metadata-service",
    ):
        self.sim = sim
        self.costs = costs
        self.server = RpcServer(sim, name, costs)
        self.pkg = PrivateKeyGenerator(ibe_params, master_seed=master_seed)
        self.metadata_log = AppendOnlyLog(name="metadata")
        self.projection = MetadataProjection(self.metadata_log)

        self.server.register("meta.register", self._handle_register)
        self.server.register("meta.register_ibe", self._handle_register_ibe)
        self.server.register("meta.register_dir", self._handle_register_dir)
        self.server.register("meta.register_xattr", self._handle_register_xattr)
        self.server.register("meta.register_xattr_batch",
                             self._handle_register_xattr_batch)

    def enroll_device(self, device_id: str, secret: bytes) -> None:
        self.server.enroll_device(device_id, secret)

    # -- registration handlers ------------------------------------------------
    def _charge(self) -> Generator:
        """One durable log append and one metadata update."""
        yield self.sim.timeout(self.costs.service_log_append)
        yield self.sim.timeout(self.costs.service_metadata_update)

    def _append(self, timestamp: float, device_id: str, kind: str,
                **fields) -> None:
        self.projection.ingest(
            self.metadata_log.append(timestamp, device_id, kind, **fields))

    def _handle_register(self, device_id: str, payload: dict) -> Generator:
        """Plain (blocking-mode) metadata registration."""
        audit_id = payload["audit_id"]
        dir_id = payload["dir_id"]
        name = payload["name"]
        yield from self._charge()
        self._append(self.sim.now, device_id, "file",
                     audit_id=audit_id, dir_id=dir_id, name=name, via="plain")
        return {"ok": True}

    def _handle_register_ibe(self, device_id: str, payload: dict) -> Generator:
        """IBE-mode registration: log the identity, then extract.

        Returns the IBE private key for exactly the logged identity —
        this is what unlocks the file, and why avoiding or falsifying
        the registration leaves the file unreadable.
        """
        identity = payload["identity"]
        dir_id, name, audit_id = parse_identity(identity)
        yield from self._charge()
        self._append(self.sim.now, device_id, "file",
                     audit_id=audit_id, dir_id=dir_id, name=name, via="ibe")
        yield self.sim.timeout(self.costs.keypad_ibe_extract)
        private = self.pkg.extract(identity)
        return {
            "identity": identity,
            "point_x": private.point.x.a,
            "point_y": private.point.y.a,
        }

    def _handle_register_dir(self, device_id: str, payload: dict) -> Generator:
        """Register (or re-register after rename) a directory."""
        dir_id = payload["dir_id"]
        parent_id = payload["parent_id"]
        name = payload["name"]
        if parent_id != "" and not self.projection.has_dir(parent_id):
            raise RpcError(f"unknown parent directory {parent_id!r}")
        yield from self._charge()
        self._append(self.sim.now, device_id, "dir",
                     dir_id=dir_id, parent_id=parent_id, name=name)
        return {"ok": True}

    def _handle_register_xattr(self, device_id: str, payload: dict) -> Generator:
        """Extension: record an extended-attribute update (§4).

        Like pathnames, xattr values are user-interpretable metadata a
        forensic analyst needs up to date (e.g. classification labels).
        """
        audit_id = payload["audit_id"]
        name = payload["name"]
        value = payload["value"]
        yield from self._charge()
        self._append(self.sim.now, device_id, "xattr",
                     audit_id=audit_id, name=name, value=value)
        return {"ok": True}

    def _handle_register_xattr_batch(self, device_id: str, payload: dict) -> Generator:
        """Write-behind xattr registrations: one durable append + one
        metadata update charge per batch, original timestamps kept (the
        audit trail reflects when the attribute changed on the device).
        """
        items = payload.get("items", [])
        yield from self._charge()
        for item in items:
            self._append(float(item["timestamp"]), device_id, "xattr",
                         audit_id=item["audit_id"], name=item["name"],
                         value=item["value"])
        return {"accepted": len(items)}

    # -- forensic-side accessors (not RPC) ------------------------------------
    def path_of(self, audit_id: bytes) -> Optional[str]:
        return self.projection.path_of(audit_id)

    def xattrs_of(self, audit_id: bytes) -> dict[str, bytes]:
        return self.projection.xattrs_of(audit_id)

    def history_of(self, audit_id: bytes) -> list[dict]:
        """Every registration ever made for an audit ID (append-only)."""
        return [
            dict(e.fields, timestamp=e.timestamp)
            for e in self.metadata_log.entries(kind="file")
            if e.fields["audit_id"] == audit_id
        ]
