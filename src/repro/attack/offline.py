"""The offline attacker: reads the stolen disk with his own tools.

Threat model (§6): the attacker has full hardware access, can extract
the drive, and — per Keypad's premise — has breached the first defence
layer (the volume password was on a sticky note, brute-forced, or
recovered by a cold-boot attack).  He does *not* run KeypadFS; he
parses the on-disk structures directly:

* walk the lower file system and decrypt names with the volume key,
* decrypt and parse Keypad headers (audit IDs, wrapped keys, locks),
* decrypt content **only** if he can obtain K_D — from an extracted
  memory snapshot (keys cached at Tloss), from the key service using
  the device's stolen credentials (which logs the access), or by
  presenting an IBE-locked file's identity to the metadata service
  (which logs correct, up-to-date metadata).

Every method records what the attacker actually managed to read, which
is the ground truth the fidelity analysis compares the audit report
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.crypto.ibe import decrypt as ibe_decrypt
from repro.crypto.stream import stream_xor_at
from repro.encfs.volume import Volume
from repro.errors import CryptoError, KeypadError, ReproError
from repro.storage.backend import FsInterface
from repro.util.paths import normalize
from repro.core.client import IbeRegistration, KeyFetch, ServiceSession
from repro.core.header import (
    KEYPAD_HEADER_LEN,
    KeypadHeader,
    parse_header,
    unwrap_data_key,
)

__all__ = ["OfflineAttacker", "AttackResult"]


@dataclass
class AttackResult:
    """What one decryption attempt yielded."""

    path: str
    success: bool
    method: str
    data: bytes = b""
    reason: str = ""


@dataclass
class _Loot:
    """Everything the attacker has accumulated."""

    read_files: list[AttackResult] = field(default_factory=list)
    accessed_ids: set = field(default_factory=set)


class OfflineAttacker:
    """Drives raw-disk attacks against a stolen device image."""

    def __init__(
        self,
        lower: FsInterface,
        volume_password: str,
        memory_snapshot: Optional[dict[bytes, tuple[bytes, bytes]]] = None,
        services: Optional[ServiceSession] = None,
        volume_salt: bytes = b"keypad-volume-salt",
    ):
        # The attacker derives the volume keys from the breached
        # password, exactly as the legitimate mount would.
        self.volume = Volume(volume_password, salt=volume_salt)
        self.lower = lower
        self.memory = dict(memory_snapshot or {})
        self.services = services  # stolen device credentials, if any
        self.ibe_params = (
            services.metadata_service.pkg.params if services else None
        )
        self.loot = _Loot()

    # -- reconnaissance -----------------------------------------------------
    def list_tree(self, root: str = "/") -> Generator:
        """Walk the disk, decrypting names: the attacker's file listing."""
        found: list[str] = []
        stack = [normalize(root)]
        while stack:
            directory = stack.pop()
            enc_dir = self.volume.encrypt_path(directory)
            tokens = yield from self.lower.readdir(enc_dir)
            for token in tokens:
                try:
                    name = self.volume.decrypt_name(token)
                except CryptoError:
                    continue
                child = normalize(f"{directory}/{name}")
                attr = yield from self.lower.getattr(
                    self.volume.encrypt_path(child)
                )
                if attr.is_dir:
                    stack.append(child)
                else:
                    found.append(child)
        return sorted(found)

    def read_header(self, path: str) -> Generator:
        raw = yield from self.lower.read(
            self.volume.encrypt_path(path), 0, KEYPAD_HEADER_LEN
        )
        return parse_header(raw, self.volume, self.ibe_params)

    # -- content attacks ---------------------------------------------------------
    def _decrypt_content(
        self, path: str, header: KeypadHeader, data_key: bytes
    ) -> Generator:
        nonce = (
            header.audit_id[:16].ljust(16, b"\x00")
            if header.protected
            else header.file_iv
        )
        enc_path = self.volume.encrypt_path(path)
        attr = yield from self.lower.getattr(enc_path)
        size = max(0, attr.size - KEYPAD_HEADER_LEN)
        stored = yield from self.lower.read(enc_path, KEYPAD_HEADER_LEN, size)
        return stream_xor_at(data_key, nonce, stored, 0)

    def try_read(self, path: str) -> Generator:
        """Attempt to read a file using every capability available.

        Order of preference (most to least stealthy):
        1. unprotected file → volume key suffices, **no log entry**;
        2. key extracted from the stolen memory snapshot → **no log
           entry** (this is the Texp exposure window);
        3. key service fetch with stolen credentials → logged;
        4. IBE-locked file → metadata registration + key fetch → both
           logged, with the correct path.
        """
        path = normalize(path)
        header = yield from self.read_header(path)

        if not header.protected:
            data = yield from self._decrypt_content(
                path, header, self.volume.content_stream_key(header.file_iv)
            )
            return self._won(path, "volume-key", data)

        audit_id = header.audit_id
        if audit_id in self.memory:
            _remote, data_key = self.memory[audit_id]
            data = yield from self._decrypt_content(path, header, data_key)
            return self._won(path, "memory-extraction", data, audit_id)

        if self.services is None:
            return self._lost(path, "no-service-access",
                              "content key is escrowed remotely")

        if header.locked:
            try:
                private_key = yield from self.services.register(
                    IbeRegistration(identity=header.identity)
                )
            except (KeypadError, ReproError) as exc:
                return self._lost(path, "ibe-unlock", str(exc))
            if private_key is None:
                return self._lost(path, "ibe-unlock", "registration deferred")
            try:
                wrapped = ibe_decrypt(
                    self.ibe_params, private_key, header.ibe_blob
                )
            except (CryptoError, ReproError) as exc:
                return self._lost(path, "ibe-unlock", str(exc))
            header = header.unlocked_copy(wrapped)

        try:
            remote_key = yield from self.services.fetch(KeyFetch(audit_id))
        except (KeypadError, ReproError) as exc:
            return self._lost(path, "key-fetch", str(exc))
        try:
            data_key = unwrap_data_key(header.wrapped_kd, remote_key)
        except (CryptoError, ReproError) as exc:
            return self._lost(path, "key-unwrap", str(exc))
        data = yield from self._decrypt_content(path, header, data_key)
        return self._won(path, "service-fetch", data, audit_id)

    # -- bookkeeping -----------------------------------------------------------------
    def _won(
        self, path: str, method: str, data: bytes,
        audit_id: Optional[bytes] = None,
    ) -> AttackResult:
        result = AttackResult(path=path, success=True, method=method, data=data)
        self.loot.read_files.append(result)
        if audit_id is not None:
            self.loot.accessed_ids.add(audit_id)
        return result

    def _lost(self, path: str, method: str, reason: str) -> AttackResult:
        result = AttackResult(
            path=path, success=False, method=method, reason=reason
        )
        self.loot.read_files.append(result)
        return result

    @property
    def truly_accessed_ids(self) -> set:
        """Ground truth for the fidelity analysis."""
        return set(self.loot.accessed_ids)
