"""Stacked encrypted file systems: the shared base and EncFS proper.

:class:`StackedCryptFs` is the FUSE-style stacking machinery both
EncFS and Keypad build on: encrypted path components, a fixed-size
AEAD-sealed header at the front of every stored file, and positional
keystream encryption of content (size- and offset-preserving, like
EncFS' default block mode without MAC headers).

:class:`EncfsFS` concretizes it exactly as EncFS does — one volume key,
per-file random IV in the header, content keys derived from
volume + IV.  This is the paper's primary baseline ("Because Keypad
enhances EncFS, the fair baseline comparison for Keypad is EncFS").

Every public op that may carry a per-operation context (``read``,
``write`` and ``truncate`` here; Keypad adds its metadata ops) runs its
body through :meth:`StackedCryptFs._op`, the one place a context is
finished.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.costmodel import DEFAULT_COSTS, CostModel
from repro.crypto.aead import NONCE_LEN
from repro.crypto.drbg import HmacDrbg
from repro.crypto.stream import stream_xor_at
from repro.errors import CryptoError, IntegrityError
from repro.sim import Simulation
from repro.storage.backend import FsInterface
from repro.storage.localfs import Attr
from repro.util.paths import normalize
from repro.encfs.volume import Volume

__all__ = ["StackedCryptFs", "EncfsFS"]


class StackedCryptFs(FsInterface):
    """Base class for encrypted FS layers stacked over a lower FS."""

    HEADER_LEN = 128

    FS_BLOCK = 4096

    def __init__(
        self,
        sim: Simulation,
        lower: FsInterface,
        volume: Volume,
        costs: CostModel = DEFAULT_COSTS,
        drbg_seed: bytes = b"stacked-fs",
        verify_content: bool = False,
    ):
        self.sim = sim
        self.lower = lower
        self.volume = volume
        self.costs = costs
        self.drbg = HmacDrbg(drbg_seed, b"per-file-material")
        self._header_cache: dict[str, Any] = {}
        # Valid-ciphertext length per (normalized) path.  The lower FS
        # zero-fills write gaps, and stored plaintext zeros decrypt to
        # keystream garbage — writes past this point must encrypt the
        # hole first.  Kept in memory (not a charged getattr) so the
        # common path's simulated timing is unchanged; files not
        # created through this instance are seeded lazily.
        self._logical_sizes: dict[str, int] = {}
        # Optional per-block content MACs (EncFS's --require-macs).
        # The default, like EncFS's, is off: content is confidential
        # but an attacker flipping ciphertext bits produces silent
        # garbage.  With verify_content=True every read verifies a
        # per-block HMAC keyed from the file's content key.
        self.verify_content = verify_content

    # ------------------------------------------------------------------
    # Hooks for subclasses: the header format, the content key and the
    # op context.  KeypadFS replaces create, mkdir and rename whole.
    # ------------------------------------------------------------------
    def _new_header(self, path: str) -> Generator:
        """Create header state for a new file → (raw_bytes, parsed)."""
        raise NotImplementedError
        yield  # pragma: no cover

    def _parse_header(self, path: str, raw: bytes) -> Generator:
        """Parse raw on-disk header bytes → parsed state."""
        raise NotImplementedError
        yield  # pragma: no cover

    def _content_key(self, path: str, parsed: Any, write: bool,
                     ctx: Any = None) -> Generator:
        """Resolve the (key, nonce) pair for content crypto.

        ``ctx`` is the operation's :class:`~repro.core.context.OpContext`
        (or None when observability is off); layers that talk to remote
        services thread it down to the wire.
        """
        raise NotImplementedError
        yield  # pragma: no cover

    def _op_context(self, op: str, path: str) -> Any:
        """Mint a per-operation context, or None when disabled.

        The base stacking has no remote services and no observability
        config, so it never mints one; KeypadFS overrides this.
        """
        return None

    def _op(self, ctx: Any, body: Callable[..., Generator],
            *args: Any) -> Generator:
        """Run ``body(*args, ctx)``: the one lifecycle of an op context.

        The context is finished when the body returns, or with the
        error that ends it.  Without a context the body's own generator
        is returned, so an untraced op runs in no wrapper frame.
        """
        if ctx is None:
            return body(*args, None)
        return _finishing(ctx, body(*args, ctx))

    def _charge(self, op: str) -> Generator:
        """Charge this layer's per-op CPU cost (Keypad is a modified
        EncFS: both pay EncFS's costs)."""
        extra = {
            "read": self.costs.encfs_read_extra,
            "write": self.costs.encfs_write_extra,
            "create": self.costs.encfs_create_extra,
            "rename": self.costs.encfs_rename_extra,
            "mkdir": self.costs.encfs_mkdir_extra,
        }[op]
        yield self.sim.timeout(extra)
        return None

    # ------------------------------------------------------------------
    # Shared machinery.
    # ------------------------------------------------------------------
    def _enc(self, path: str) -> str:
        return self.volume.encrypt_path(path)

    def _header(self, path: str) -> Generator:
        path = normalize(path)
        parsed = self._header_cache.get(path)
        if parsed is None:
            raw = yield from self.lower.read(self._enc(path), 0, self.HEADER_LEN)
            if len(raw) < self.HEADER_LEN:
                raise CryptoError(f"missing or truncated header on {path}")
            parsed = yield from self._parse_header(path, raw)
            self._header_cache[path] = parsed
        return parsed

    def _evict_header(self, path: str) -> None:
        self._header_cache.pop(path, None)
        self._logical_sizes.pop(path, None)

    def _move_header(self, old: str, new: str) -> None:
        if old in self._header_cache:
            self._header_cache[new] = self._header_cache.pop(old)
        self._logical_sizes.pop(new, None)
        if old in self._logical_sizes:
            self._logical_sizes[new] = self._logical_sizes.pop(old)

    def _logical_size(self, path: str) -> Generator:
        """Valid-ciphertext length of *path* (already normalized)."""
        size = self._logical_sizes.get(path)
        if size is None:
            attr = yield from self.lower.getattr(self._enc(path))
            size = max(0, attr.size - self.HEADER_LEN)
            self._logical_sizes[path] = size
        return size

    def _note_truncate(self, path: str, size: int) -> None:
        # Truncate-to-larger extends with *stored* zeros; keeping the
        # old mark means the next write past it re-encrypts the
        # extension, so the hole reads back as plaintext zeros.
        if path in self._logical_sizes:
            self._logical_sizes[path] = min(self._logical_sizes[path], size)

    def _write_header_raw(self, path: str, raw: bytes) -> Generator:
        if len(raw) != self.HEADER_LEN:
            raise CryptoError("header must be exactly HEADER_LEN bytes")
        yield from self.lower.write(self._enc(path), 0, raw)
        return None

    # ------------------------------------------------------------------
    # FsInterface implementation.
    # ------------------------------------------------------------------
    def exists(self, path: str) -> Generator:
        result = yield from self.lower.exists(self._enc(path))
        return result

    def getattr(self, path: str) -> Generator:
        attr = yield from self.lower.getattr(self._enc(path))
        if attr.is_dir:
            return attr
        return Attr(
            ino=attr.ino,
            is_dir=False,
            size=max(0, attr.size - self.HEADER_LEN),
            mtime=attr.mtime,
            ctime=attr.ctime,
            nlink=attr.nlink,
        )

    def create(self, path: str) -> Generator:
        yield from self._charge("create")
        yield from self.lower.create(self._enc(path))
        raw, parsed = yield from self._new_header(path)
        yield from self._write_header_raw(path, raw)
        self._header_cache[normalize(path)] = parsed
        self._logical_sizes[normalize(path)] = 0
        return None

    def mkdir(self, path: str) -> Generator:
        yield from self._charge("mkdir")
        yield from self.lower.mkdir(self._enc(path))
        return None

    def read(self, path: str, offset: int, size: int) -> Generator:
        return self._op(self._op_context("read", path), self._read,
                        path, offset, size)

    def _read(self, path: str, offset: int, size: int, ctx: Any) -> Generator:
        yield from self._charge("read")
        parsed = yield from self._header(path)
        key, nonce = yield from self._content_key(
            path, parsed, write=False, ctx=ctx
        )
        if self.verify_content:
            data = yield from self._read_verified(path, key, nonce, offset, size)
        else:
            stored = yield from self.lower.read(
                self._enc(path), self.HEADER_LEN + offset, size
            )
            data = stream_xor_at(key, nonce, stored, offset)
        return data

    def write(self, path: str, offset: int, data: bytes) -> Generator:
        return self._op(self._op_context("write", path), self._write,
                        path, offset, data)

    def _write(self, path: str, offset: int, data: bytes, ctx: Any) -> Generator:
        yield from self._charge("write")
        parsed = yield from self._header(path)
        key, nonce = yield from self._content_key(
            path, parsed, write=True, ctx=ctx
        )
        if self.verify_content:
            written = yield from self._write_verified(
                path, key, nonce, offset, data
            )
            return written
        npath = normalize(path)
        logical = yield from self._logical_size(npath)
        if offset > logical:
            # Writing past EOF: encrypt the hole too, or the lower FS's
            # zero-fill decrypts to garbage.
            cipher = stream_xor_at(
                key, nonce, bytes(offset - logical) + data, logical
            )
            yield from self.lower.write(
                self._enc(path), self.HEADER_LEN + logical, cipher
            )
        else:
            cipher = stream_xor_at(key, nonce, data, offset)
            yield from self.lower.write(
                self._enc(path), self.HEADER_LEN + offset, cipher
            )
        self._logical_sizes[npath] = max(logical, offset + len(data))
        return len(data)

    # ------------------------------------------------------------------
    # Per-block content MACs (optional, EncFS --require-macs analog).
    # ------------------------------------------------------------------
    _MAC_XATTR = "user.kp-block-macs"

    @staticmethod
    def _mac_key(content_key: bytes) -> bytes:
        from repro.crypto.kdf import hkdf_sha256

        return hkdf_sha256(content_key, b"", b"content-block-mac", 32)

    @staticmethod
    def _block_tag(mac_key: bytes, nonce: bytes, index: int, cipher: bytes) -> bytes:
        from repro.crypto.hmac import hmac_sha256

        return hmac_sha256(
            mac_key, nonce + index.to_bytes(8, "big") + cipher
        )[:16]

    def _load_tags(self, path: str) -> Generator:
        import struct as _struct

        from repro.errors import FileNotFound

        try:
            raw = yield from self.lower.get_xattr(self._enc(path), self._MAC_XATTR)
        except FileNotFound:
            return {}
        tags = {}
        for pos in range(0, len(raw) - 23, 24):
            (index,) = _struct.unpack_from(">Q", raw, pos)
            tags[index] = raw[pos + 8:pos + 24]
        return tags

    def _store_tags(self, path: str, tags: dict[int, bytes]) -> Generator:
        import struct as _struct

        raw = b"".join(
            _struct.pack(">Q", index) + tag for index, tag in sorted(tags.items())
        )
        yield from self.lower.set_xattr(self._enc(path), self._MAC_XATTR, raw)
        return None

    def _read_verified(
        self, path: str, key: bytes, nonce: bytes, offset: int, size: int
    ) -> Generator:
        from repro.crypto.hmac import constant_time_equal
        from repro.errors import IntegrityError as _IntegrityError

        block = self.FS_BLOCK
        first = offset // block
        aligned = first * block
        span = offset + size - aligned
        stored = yield from self.lower.read(
            self._enc(path), self.HEADER_LEN + aligned, -(-span // block) * block
        )
        tags = yield from self._load_tags(path)
        mac_key = self._mac_key(key)
        for i in range(0, len(stored), block):
            index = first + i // block
            chunk = stored[i:i + block]
            expected = tags.get(index)
            if expected is None or not constant_time_equal(
                expected, self._block_tag(mac_key, nonce, index, chunk)
            ):
                raise _IntegrityError(
                    f"{path}: content MAC mismatch in block {index}"
                )
        plain = stream_xor_at(key, nonce, stored, aligned)
        start = offset - aligned
        return plain[start:start + size]

    def _write_verified(
        self, path: str, key: bytes, nonce: bytes, offset: int, data: bytes
    ) -> Generator:
        block = self.FS_BLOCK
        enc_path = self._enc(path)
        attr = yield from self.lower.getattr(enc_path)
        logical_size = max(0, attr.size - self.HEADER_LEN)
        # Start the read-modify-write at the old EOF block when writing
        # past it, so hole blocks get encrypted (and tagged) too.
        first = min(offset // block, logical_size // block)
        last = (offset + len(data) - 1) // block
        aligned = first * block
        # Read-modify-write at block granularity so every tag covers a
        # complete ciphertext block.
        existing_len = max(0, min(logical_size, (last + 1) * block) - aligned)
        existing_cipher = b""
        if existing_len:
            existing_cipher = yield from self.lower.read(
                enc_path, self.HEADER_LEN + aligned, existing_len
            )
        plain = bytearray(stream_xor_at(key, nonce, existing_cipher, aligned))
        if len(plain) < offset - aligned + len(data):
            plain.extend(bytes(offset - aligned + len(data) - len(plain)))
        plain[offset - aligned:offset - aligned + len(data)] = data
        cipher = stream_xor_at(key, nonce, bytes(plain), aligned)
        yield from self.lower.write(enc_path, self.HEADER_LEN + aligned, cipher)
        tags = yield from self._load_tags(path)
        mac_key = self._mac_key(key)
        for i in range(0, len(cipher), block):
            tags[first + i // block] = self._block_tag(
                mac_key, nonce, first + i // block, cipher[i:i + block]
            )
        yield from self._store_tags(path, tags)
        self._logical_sizes[normalize(path)] = max(
            logical_size, offset + len(data)
        )
        return len(data)

    def truncate(self, path: str, size: int) -> Generator:
        return self._op(self._op_context("truncate", path), self._truncate,
                        path, size)

    def _truncate(self, path: str, size: int, ctx: Any) -> Generator:
        yield from self._charge("write")
        # Truncation is a content operation: resolve the header and the
        # content key first, so truncating a missing file errors
        # consistently and Keypad audits the access.
        parsed = yield from self._header(path)
        key, nonce = yield from self._content_key(
            path, parsed, write=True, ctx=ctx
        )
        yield from self.lower.truncate(self._enc(path), self.HEADER_LEN + size)
        self._note_truncate(normalize(path), size)
        if self.verify_content:
            yield from self._retag_after_truncate(path, key, nonce, size)
        return None

    def _retag_after_truncate(self, path: str, key: bytes, nonce: bytes,
                              size: int) -> Generator:
        """Drop stale block MACs and re-tag the (shortened) tail block."""
        block = self.FS_BLOCK
        tags = yield from self._load_tags(path)
        last_kept = (size - 1) // block if size else -1
        tags = {i: t for i, t in tags.items() if i <= last_kept}
        if size and size % block and last_kept in tags:
            tail = yield from self.lower.read(
                self._enc(path), self.HEADER_LEN + last_kept * block,
                size - last_kept * block,
            )
            tags[last_kept] = self._block_tag(
                self._mac_key(key), nonce, last_kept, tail
            )
        yield from self._store_tags(path, tags)
        return None

    def readdir(self, path: str) -> Generator:
        tokens = yield from self.lower.readdir(self._enc(path))
        names = []
        for token in tokens:
            try:
                names.append(self.volume.decrypt_name(token))
            except CryptoError:
                names.append(token)  # foreign entry; expose as-is
        return sorted(names)

    def unlink(self, path: str) -> Generator:
        yield from self._charge("create")
        yield from self.lower.unlink(self._enc(path))
        self._evict_header(normalize(path))
        return None

    def rmdir(self, path: str) -> Generator:
        yield from self.lower.rmdir(self._enc(path))
        return None

    def rename(self, old: str, new: str) -> Generator:
        yield from self._charge("rename")
        yield from self.lower.rename(self._enc(old), self._enc(new))
        self._move_header(normalize(old), normalize(new))
        return None

    def set_xattr(self, path: str, name: str, value: bytes) -> Generator:
        yield from self.lower.set_xattr(self._enc(path), name, value)
        return None

    def get_xattr(self, path: str, name: str) -> Generator:
        value = yield from self.lower.get_xattr(self._enc(path), name)
        return value


class EncfsFS(StackedCryptFs):
    """EncFS: one volume key, per-file IVs, no remote involvement."""

    HEADER_LEN = 128
    _MAGIC = b"ENCF"

    def _new_header(self, path: str) -> Generator:
        file_iv = self.drbg.generate(16)
        nonce = self.drbg.generate(NONCE_LEN)
        sealed = self.volume.header_suite.seal(nonce, file_iv, aad=self._MAGIC)
        raw = (self._MAGIC + nonce + sealed).ljust(self.HEADER_LEN, b"\x00")
        return raw, file_iv
        yield  # pragma: no cover

    def _parse_header(self, path: str, raw: bytes) -> Generator:
        if raw[:4] != self._MAGIC:
            raise CryptoError(f"bad EncFS header magic on {path}")
        nonce = raw[4:4 + NONCE_LEN]
        sealed = raw[4 + NONCE_LEN:4 + NONCE_LEN + 16 + 32]
        try:
            file_iv = self.volume.header_suite.open(nonce, sealed, aad=self._MAGIC)
        except IntegrityError as exc:
            raise CryptoError(f"EncFS header verification failed on {path}") from exc
        return file_iv
        yield  # pragma: no cover

    def _content_key(self, path: str, parsed: Any, write: bool,
                     ctx: Any = None) -> Generator:
        file_iv: bytes = parsed
        return self.volume.content_stream_key(file_iv), file_iv
        yield  # pragma: no cover


def _finishing(ctx: Any, op: Generator) -> Generator:
    """Drive *op*, then finish *ctx* with its outcome (see ``_op``)."""
    try:
        result = yield from op
    except BaseException as exc:
        ctx.finish(exc)
        raise
    ctx.finish()
    return result
