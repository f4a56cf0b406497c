"""Pluggable lower-storage backends (and the FS interface they share).

Two things live here:

* :class:`FsInterface` — the FS contract every layer speaks (local FS,
  EncFS, Keypad, NFS client).  Stacked file systems wrap a lower
  instance and transform paths/content on the way through — the
  FUSE-style architecture of the paper's prototype.  All methods are
  sim-process generators, invoked as ``yield from fs.op(...)``.

* :class:`StorageBackend` — the factory contract for the *bottom* of a
  rig's stack, selected by ``KeypadConfig.storage_backend`` (builder
  step ``.storage(...)``) and hot-swappable for empty volumes through
  the control channel (docs/CONTROL.md).  Three implementations ship:

  ==========  ============================================================
  ``ext3``    the paper's BlockDevice → BufferCache → LocalFileSystem
              stack, byte for byte (the default; flags-off runs are
              unchanged)
  ``memory``  a zero-I/O-cost ideal store — isolates Keypad's crypto +
              network overhead from disk time
  ``cas``     a content-addressed, deduplicating chunk store (the
              ArchiveSafe-style layered-storage arm)
  ==========  ============================================================
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.costmodel import DEFAULT_COSTS, CostModel
from repro.crypto.sha256 import sha256_fast
from repro.errors import ConfigError, FileExists, FileNotFound
from repro.sim import Simulation

__all__ = [
    "FsInterface",
    "StorageBackend",
    "StorageStack",
    "BlobStore",
    "BlobNamespace",
    "Ext3Backend",
    "MemoryBackend",
    "CasBackend",
    "BACKENDS",
    "make_backend",
    "volume_contents",
]


class FsInterface:
    """Abstract FS operations; all methods are sim-process generators."""

    def exists(self, path: str) -> Generator:
        raise NotImplementedError

    def getattr(self, path: str) -> Generator:
        raise NotImplementedError

    def create(self, path: str) -> Generator:
        raise NotImplementedError

    def mkdir(self, path: str) -> Generator:
        raise NotImplementedError

    def read(self, path: str, offset: int, size: int) -> Generator:
        raise NotImplementedError

    def write(self, path: str, offset: int, data: bytes) -> Generator:
        raise NotImplementedError

    def truncate(self, path: str, size: int) -> Generator:
        raise NotImplementedError

    def readdir(self, path: str) -> Generator:
        raise NotImplementedError

    def unlink(self, path: str) -> Generator:
        raise NotImplementedError

    def rmdir(self, path: str) -> Generator:
        raise NotImplementedError

    def rename(self, old: str, new: str) -> Generator:
        raise NotImplementedError

    def set_xattr(self, path: str, name: str, value: bytes) -> Generator:
        raise NotImplementedError

    def get_xattr(self, path: str, name: str) -> Generator:
        raise NotImplementedError

    # Convenience wrappers shared by all layers -----------------------------
    def read_all(self, path: str) -> Generator:
        attr = yield from self.getattr(path)
        data = yield from self.read(path, 0, attr.size)
        return data

    def write_file(self, path: str, data: bytes) -> Generator:
        """Create-or-replace a file's full content."""
        exists = yield from self.exists(path)
        if not exists:
            yield from self.create(path)
        else:
            yield from self.truncate(path, 0)
        yield from self.write(path, 0, data)
        return None


_BLOB_BLOCK = 4096  # charge granularity for blob byte costs


class BlobStore:
    """Write-once blob namespace shared by every storage backend.

    The audit store's durability seam: sealed segments, tail group
    commits, and view checkpoints land here rather than going through
    the POSIX surface, because audit appends are *synchronous* (the
    log-before-disclose invariant) while the FS contract is a
    sim-process generator.  Each ``put`` therefore returns the
    simulated time the write would have cost on this backend; callers
    accumulate it and charge it at their next yield point, so the
    flags-off timeline is untouched when nothing is spilled.

    Per-backend cost semantics mirror the real stacks:

    ``memory``  free — the ideal store charges no I/O anywhere.
    ``ext3``    create-or-rewrite plus one block write per 4 KiB.
    ``cas``     content-addressed chunk dedup: only *new* 4 KiB chunks
                pay a block write; the manifest rewrite pays one
                ``ext3_write``.
    """

    def __init__(self, backend: str, costs: CostModel = DEFAULT_COSTS):
        self.backend = backend
        self.costs = costs
        self._blobs: dict[str, bytes] = {}
        self._chunks: set[bytes] = set()  # cas dedup universe
        self.puts = 0
        self.overwrites = 0
        self.bytes_written = 0
        self.cost_charged = 0.0

    # -- writes -------------------------------------------------------------
    def put(self, name: str, data: bytes, overwrite: bool = False) -> float:
        """Store ``data`` under ``name``; returns the simulated cost.

        Blobs are write-once by default: re-putting an existing name
        raises :class:`FileExists` unless ``overwrite`` is set (the
        active-tail and checkpoint slots are the only legitimate
        rewriters).
        """
        existed = name in self._blobs
        if existed and not overwrite:
            raise FileExists(f"blob {name!r} already exists (write-once)")
        cost = self._put_cost(data, rewrite=existed)
        self._blobs[name] = bytes(data)
        self.puts += 1
        if existed:
            self.overwrites += 1
        self.bytes_written += len(data)
        self.cost_charged += cost
        return cost

    def _put_cost(self, data: bytes, rewrite: bool) -> float:
        c = self.costs
        if self.backend == "memory":
            return 0.0
        n_blocks = max(1, -(-len(data) // _BLOB_BLOCK))
        if self.backend == "cas":
            new_chunks = 0
            for off in range(0, max(len(data), 1), _BLOB_BLOCK):
                digest = sha256_fast(data[off:off + _BLOB_BLOCK])
                if digest not in self._chunks:
                    self._chunks.add(digest)
                    new_chunks += 1
            return c.ext3_write + c.disk_block_write * new_chunks
        # ext3-like: name entry plus every block rewritten
        meta = c.ext3_write if rewrite else c.ext3_create
        return meta + c.disk_block_write * n_blocks

    # -- reads (free: recovery is measured in wall-clock by the bench) ------
    def get(self, name: str) -> bytes:
        try:
            return self._blobs[name]
        except KeyError:
            raise FileNotFound(f"no blob {name!r}") from None

    def exists(self, name: str) -> bool:
        return name in self._blobs

    def names(self, prefix: str = "") -> list[str]:
        return sorted(n for n in self._blobs if n.startswith(prefix))

    def snapshot(self) -> dict[str, bytes]:
        """A point-in-time copy — the crash image the recovery tests use."""
        return dict(self._blobs)

    def namespace(self, prefix: str) -> "BlobNamespace":
        return BlobNamespace(self, prefix)

    def __len__(self) -> int:
        return len(self._blobs)

    def stats(self) -> dict:
        return {
            "backend": self.backend,
            "blobs": len(self._blobs),
            "puts": self.puts,
            "overwrites": self.overwrites,
            "bytes_written": self.bytes_written,
            "cost_charged": self.cost_charged,
        }


class BlobNamespace:
    """A prefixed view of a :class:`BlobStore` (one per audit log)."""

    def __init__(self, store: BlobStore, prefix: str):
        self.store = store
        self.prefix = prefix.rstrip("/") + "/"

    def put(self, name: str, data: bytes, overwrite: bool = False) -> float:
        return self.store.put(self.prefix + name, data, overwrite=overwrite)

    def get(self, name: str) -> bytes:
        return self.store.get(self.prefix + name)

    def exists(self, name: str) -> bool:
        return self.store.exists(self.prefix + name)

    def names(self) -> list[str]:
        n = len(self.prefix)
        return [x[n:] for x in self.store.names(self.prefix)]

    def snapshot(self) -> dict[str, bytes]:
        n = len(self.prefix)
        return {
            name[n:]: data
            for name, data in self.store.snapshot().items()
            if name.startswith(self.prefix)
        }

    def __len__(self) -> int:
        return len(self.names())


class StorageStack:
    """What a backend builds: the bottom FS plus whatever sits under it.

    ``device``/``cache`` are ``None`` for backends that have no block
    layer (memory, cas); rig fields mirror that, and offline-attack
    tooling that inspects raw blocks requires the ext3 backend.
    Every stack also carries a :class:`BlobStore` — the write-once
    namespace durable audit stores spill into.
    """

    def __init__(self, backend: str, fs: FsInterface,
                 device: Optional[object] = None,
                 cache: Optional[object] = None,
                 blobs: Optional[BlobStore] = None,
                 costs: CostModel = DEFAULT_COSTS):
        self.backend = backend
        self.fs = fs
        self.device = device
        self.cache = cache
        self.blobs = blobs if blobs is not None else BlobStore(backend, costs)


class StorageBackend:
    """Factory for the bottom of the stack.  Stateless; one shared
    instance per name lives in :data:`BACKENDS`."""

    #: registry key and the value ``KeypadConfig.storage_backend`` takes.
    name: str = ""

    def create(self, sim: Simulation, costs: CostModel = DEFAULT_COSTS,
               n_blocks: int = 1 << 18) -> StorageStack:
        raise NotImplementedError


class Ext3Backend(StorageBackend):
    """The paper's stack: BlockDevice → BufferCache → LocalFileSystem."""

    name = "ext3"

    def create(self, sim: Simulation, costs: CostModel = DEFAULT_COSTS,
               n_blocks: int = 1 << 18) -> StorageStack:
        # Imported lazily: localfs itself imports FsInterface from this
        # module, so a top-level import would be circular.
        from repro.storage.blockdev import BlockDevice
        from repro.storage.buffercache import BufferCache
        from repro.storage.localfs import LocalFileSystem

        device = BlockDevice(sim, n_blocks=n_blocks, costs=costs)
        cache = BufferCache(sim, device, capacity_blocks=n_blocks)
        lower = LocalFileSystem(sim, cache, costs=costs)
        return StorageStack(self.name, lower, device=device, cache=cache,
                            costs=costs)


class MemoryBackend(StorageBackend):
    """An ideal store: correct POSIX-ish semantics, zero I/O cost."""

    name = "memory"

    def create(self, sim: Simulation, costs: CostModel = DEFAULT_COSTS,
               n_blocks: int = 1 << 18) -> StorageStack:
        from repro.storage.memfs import MemoryFileSystem

        return StorageStack(self.name, MemoryFileSystem(sim, costs=costs),
                            costs=costs)


class CasBackend(StorageBackend):
    """Content-addressed chunk store with cross-file deduplication."""

    name = "cas"

    def create(self, sim: Simulation, costs: CostModel = DEFAULT_COSTS,
               n_blocks: int = 1 << 18) -> StorageStack:
        from repro.storage.casfs import ContentAddressedFileSystem

        return StorageStack(
            self.name, ContentAddressedFileSystem(sim, costs=costs),
            costs=costs,
        )


BACKENDS: dict[str, StorageBackend] = {
    b.name: b for b in (Ext3Backend(), MemoryBackend(), CasBackend())
}


def make_backend(name: str) -> StorageBackend:
    try:
        return BACKENDS[name]
    except KeyError:
        raise ConfigError(
            f"unknown storage backend {name!r}; "
            f"choose one of {sorted(BACKENDS)}"
        ) from None


def volume_contents(fs: FsInterface,
                    blobs: Optional[BlobStore] = None) -> Generator:
    """Everything still present on the volume (sim-process generator).

    Returns a sorted list naming each root directory entry plus each
    blob (as ``"blob:<name>"``).  The fixed ``swap_backend``
    precondition: a swap is refused unless this list is empty, and the
    refusal message names exactly what is in the way — including
    spilled audit segments, which never appear in ``readdir``.
    """
    entries = yield from fs.readdir("/")
    present = [str(e) for e in entries]
    if blobs is not None:
        present.extend("blob:" + name for name in blobs.names())
    return sorted(present)
