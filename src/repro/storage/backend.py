"""The FS interface every layer speaks, and the audit blob store.

* :class:`FsInterface` — the FS contract every layer speaks (local FS,
  EncFS, Keypad, NFS client).  Stacked file systems wrap a lower
  instance and transform paths/content on the way through — the
  FUSE-style architecture of the paper's prototype.  All methods are
  sim-process generators, invoked as ``yield from fs.op(...)``.

* :class:`BlobStore` — the write-once namespace durable audit stores
  spill into, priced like the rig's ext3 volume (or free, for
  standalone services and the fleet).
"""

from __future__ import annotations

from typing import Generator

from repro.costmodel import DEFAULT_COSTS, CostModel
from repro.errors import ConfigError, FileExists, FileNotFound

__all__ = ["FsInterface", "BlobStore", "BlobNamespace"]


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
#: the cost models a blob store can take.
_BLOB_BACKENDS = ("memory", "ext3")


class BlobStore:
    """Write-once blob namespace beside the rig's volume.

    The audit store's durability seam: sealed segments, tail group
    commits, and view checkpoints land here rather than going through
    the POSIX surface, because audit appends are *synchronous* (the
    log-before-disclose invariant) while the FS contract is a
    sim-process generator.  Each ``put`` therefore returns the
    simulated time the write would have cost under this store's cost
    model; callers accumulate it and charge it at their next yield
    point, so the flags-off timeline is untouched when nothing is
    spilled.

    The two cost models:

    ``memory``  free — standalone services and the fleet charge no I/O.
    ``ext3``    create-or-rewrite plus one block write per 4 KiB (the
                rig's volume).

    Any other name raises :class:`ConfigError`.
    """

    def __init__(self, backend: str, costs: CostModel = DEFAULT_COSTS):
        if backend not in _BLOB_BACKENDS:
            raise ConfigError(
                f"unknown blob store backend {backend!r}; "
                f"choose one of {list(_BLOB_BACKENDS)}"
            )
        self.backend = backend
        self.costs = costs
        self._blobs: dict[str, bytes] = {}
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
