"""A content-addressed lower file system: the 'cas' storage backend.

Namespace semantics come from :class:`~repro.storage.memfs
.MemoryFileSystem`; only content storage differs.  File bytes are
chunked, hashed (SHA-256) and kept in one refcounted chunk store, so
identical chunks across files (or across versions of the same file)
are stored once — the ArchiveSafe-style layered-storage arm.  Note the
dedup works *under* Keypad only for plaintext-equal lower content;
Keypad's per-file keys make ciphertext chunks unique by design, which
is exactly the interaction the 'cas' arm exists to measure.

Operations charge the cost model's ext3 constants (it is a disk-class
store, unlike the free 'memory' backend); chunk hashing is treated as
CPU-free like the rest of the sim's crypto.
"""

from __future__ import annotations

import hashlib

from repro.costmodel import DEFAULT_COSTS, CostModel
from repro.sim import Simulation
from repro.storage.memfs import MemoryFileSystem, _Node

__all__ = ["ContentAddressedFileSystem"]

_CHUNK = 4096


class ContentAddressedFileSystem(MemoryFileSystem):
    """Deduplicating chunk-store bottom layer."""

    backend_name = "cas"

    def __init__(self, sim: Simulation, costs: CostModel = DEFAULT_COSTS,
                 chunk_size: int = _CHUNK):
        super().__init__(sim, costs=costs)
        self.chunk_size = chunk_size
        self._chunks: dict[bytes, bytes] = {}
        self._refs: dict[bytes, int] = {}
        # node.ino -> ordered chunk digests (content lives in _chunks).
        self._manifests: dict[int, list[bytes]] = {}

    def _charge(self, op: str) -> float:
        return getattr(self.costs, f"ext3_{op}", self.costs.ext3_getattr)

    # -- content hooks ------------------------------------------------------
    def _get_data(self, node: _Node) -> bytes:
        digests = self._manifests.get(node.ino)
        if not digests:
            return b""
        blob = b"".join(self._chunks[d] for d in digests)
        return blob[:node.size]

    def _set_data(self, node: _Node, data: bytes) -> None:
        self._release(node)
        digests: list[bytes] = []
        for off in range(0, len(data), self.chunk_size):
            chunk = data[off:off + self.chunk_size]
            digest = hashlib.sha256(chunk).digest()
            if digest not in self._chunks:
                self._chunks[digest] = chunk
                self._refs[digest] = 0
            self._refs[digest] += 1
            digests.append(digest)
        self._manifests[node.ino] = digests
        node.size = len(data)

    def _drop_data(self, node: _Node) -> None:
        self._release(node)
        node.size = 0

    def _release(self, node: _Node) -> None:
        for digest in self._manifests.pop(node.ino, ()):
            self._refs[digest] -= 1
            if self._refs[digest] == 0:
                del self._refs[digest]
                del self._chunks[digest]

    # -- dedup statistics ---------------------------------------------------
    def stored_bytes(self) -> int:
        """Physical bytes in the chunk store (after dedup)."""
        return sum(len(c) for c in self._chunks.values())

    def dedup_stats(self) -> dict:
        logical = self.total_bytes_stored()
        stored = self.stored_bytes()
        return {
            "logical_bytes": logical,
            "stored_bytes": stored,
            "chunks": len(self._chunks),
            "dedup_ratio": (logical / stored) if stored else 1.0,
        }
