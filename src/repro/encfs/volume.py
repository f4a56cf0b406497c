"""EncFS-style volume keys and filename encryption.

The paper's prototype extends EncFS, where a single *volume key* —
derived from the user's password and stored on disk encrypted under it
— protects everything.  Keypad keeps the volume key for file headers
and the namespace ("The single volume key is still used, however, to
protect file headers and the file system's namespace, e.g., file and
directory names") while moving content keys to the audit service.

A :class:`Volume` owns the password-derived key hierarchy:

* ``header_key``  — AEAD key sealing per-file headers,
* ``name_key``    — deterministic filename encryption,
* ``content_key`` — bulk content keystream (EncFS mode only; Keypad
  replaces this with per-file data keys).

Filename encryption is deterministic (same name → same ciphertext, as
in EncFS without per-directory IV chaining): a synthetic-IV scheme
where the IV is an HMAC of the plaintext name, so equal names collide
but nothing about the name leaks.  Output is filename-safe base32.
"""

from __future__ import annotations

import base64

from repro.crypto.aead import StreamHmacAead
from repro.crypto.hmac import hmac_sha256
from repro.crypto.kdf import hkdf_sha256, pbkdf2_sha256
from repro.crypto.stream import stream_xor
from repro.errors import CryptoError
from repro.util.paths import split

__all__ = ["Volume"]

_PBKDF2_ITERATIONS = 2048  # EncFS-era default magnitude
_IV_LEN = 8


class Volume:
    """The password-derived key hierarchy of one encrypted volume."""

    def __init__(self, password: str, salt: bytes = b"keypad-volume-salt"):
        self.salt = salt
        master = pbkdf2_sha256(password.encode(), salt, _PBKDF2_ITERATIONS, 32)
        self.header_key = hkdf_sha256(master, b"", b"volume|header", 32)
        self.name_key = hkdf_sha256(master, b"", b"volume|names", 32)
        self.content_key = hkdf_sha256(master, b"", b"volume|content", 32)
        self.header_suite = StreamHmacAead(self.header_key)
        # Deterministic name encryption caches (names repeat heavily).
        self._enc_cache: dict[str, str] = {}
        self._dec_cache: dict[str, str] = {}
        self._path_cache: dict[str, str] = {}

    # -- filename encryption ----------------------------------------------------
    def encrypt_name(self, name: str) -> str:
        cached = self._enc_cache.get(name)
        if cached is not None:
            return cached
        raw = name.encode()
        iv = hmac_sha256(self.name_key, b"name-siv|" + raw)[:_IV_LEN]
        body = stream_xor(self.name_key, iv, raw)
        token = base64.b32encode(iv + body).decode().rstrip("=").lower()
        self._enc_cache[name] = token
        self._dec_cache[token] = name
        return token

    def decrypt_name(self, token: str) -> str:
        cached = self._dec_cache.get(token)
        if cached is not None:
            return cached
        padded = token.upper() + "=" * (-len(token) % 8)
        try:
            blob = base64.b32decode(padded)
        except Exception as exc:
            raise CryptoError(f"malformed encrypted name {token!r}") from exc
        if len(blob) < _IV_LEN:
            raise CryptoError(f"encrypted name {token!r} too short")
        iv, body = blob[:_IV_LEN], blob[_IV_LEN:]
        raw = stream_xor(self.name_key, iv, body)
        try:
            name = raw.decode()
        except UnicodeDecodeError as exc:
            raise CryptoError("encrypted name failed to decode") from exc
        # Verify the synthetic IV: detects tampering / wrong volume key.
        expected_iv = hmac_sha256(self.name_key, b"name-siv|" + raw)[:_IV_LEN]
        if expected_iv != iv:
            raise CryptoError("encrypted name IV check failed")
        self._enc_cache[name] = token
        self._dec_cache[token] = name
        return name

    def encrypt_path(self, path: str) -> str:
        """Encrypt each component of a normalized absolute path."""
        cached = self._path_cache.get(path)
        if cached is not None:
            return cached
        comps = split(path)
        token = "/" + "/".join(self.encrypt_name(c) for c in comps)
        self._path_cache[path] = token
        return token

    def decrypt_path(self, path: str) -> str:
        comps = split(path)
        if not comps:
            return "/"
        return "/" + "/".join(self.decrypt_name(c) for c in comps)

    # -- content keystream (EncFS mode) ------------------------------------------
    def content_stream_key(self, file_iv: bytes) -> bytes:
        """Per-file content key derived from the volume + file IV."""
        return hkdf_sha256(self.content_key, b"", b"file|" + file_iv, 32)
