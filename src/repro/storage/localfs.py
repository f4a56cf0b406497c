"""An ext3-like local file system over the buffer cache.

This is the bottom FS layer — the role ext3 plays under EncFS in the
paper's prototype.  It is a real file system: inodes, directories
serialized into data blocks, a block allocator, POSIX-style rename
semantics, and extended attributes.  All file and directory *content*
lives in device blocks, so an offline attacker reading the raw disk
sees exactly what the upper layers stored there (ciphertext, headers,
encrypted names).

Operations are sim-process generators charging the cost model's ext3
constants plus any buffer-cache misses.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Generator

from repro.costmodel import DEFAULT_COSTS, CostModel
from repro.errors import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
)
from repro.sim import Lock, Simulation
from repro.storage.buffercache import BufferCache
from repro.storage.backend import FsInterface
from repro.util.paths import basename, is_ancestor, normalize, parent_of, split

__all__ = ["LocalFileSystem", "Attr", "ROOT_INO"]

ROOT_INO = 1
_FIRST_DATA_BLOCK = 64  # blocks 0..63 reserved (superblock + inode table image)


@dataclass(frozen=True)
class Attr:
    """Stat-like attributes returned by getattr."""

    ino: int
    is_dir: bool
    size: int
    mtime: float
    ctime: float
    nlink: int


@dataclass
class _Inode:
    ino: int
    kind: str  # "file" | "dir"
    size: int = 0
    blocks: list[int] = field(default_factory=list)
    mtime: float = 0.0
    ctime: float = 0.0
    nlink: int = 1
    xattrs: dict[str, bytes] = field(default_factory=dict)

    @property
    def is_dir(self) -> bool:
        return self.kind == "dir"


def _pack_dir(entries: dict[str, int]) -> bytes:
    out = bytearray()
    for name, ino in sorted(entries.items()):
        encoded = name.encode()
        out += struct.pack(">H", len(encoded)) + encoded + struct.pack(">Q", ino)
    return bytes(out)


def _unpack_dir(data: bytes) -> dict[str, int]:
    entries: dict[str, int] = {}
    pos = 0
    while pos + 2 <= len(data):
        (name_len,) = struct.unpack_from(">H", data, pos)
        if name_len == 0:
            break
        pos += 2
        name = data[pos:pos + name_len].decode()
        pos += name_len
        (ino,) = struct.unpack_from(">Q", data, pos)
        pos += 8
        entries[name] = ino
    return entries


class LocalFileSystem(FsInterface):
    """The bottom-layer file system."""

    def __init__(
        self,
        sim: Simulation,
        cache: BufferCache,
        costs: CostModel = DEFAULT_COSTS,
    ):
        self.sim = sim
        self.cache = cache
        self.costs = costs
        self.block_size = cache.device.block_size
        self._inodes: dict[int, _Inode] = {}
        self._next_ino = ROOT_INO
        self._next_block = _FIRST_DATA_BLOCK
        self._free_blocks: list[int] = []
        # Reused blocks not rewritten since: their old bytes are still
        # on the device, but their new file must read zeros there.  A
        # read still pays its block I/O; only the bytes are replaced.
        self._stale_blocks: set[int] = set()
        root = self._new_inode("dir")
        assert root.ino == ROOT_INO
        root.nlink = 2
        self.op_counts: dict[str, int] = {}
        # Decoded-directory cache: ino -> (raw bytes, parsed entries).
        # Every load still performs the block reads (the simulated cost
        # is unchanged); the cache only skips the CPU-side re-parse when
        # the on-disk bytes match what was last packed/parsed.  Matching
        # on the raw bytes *is* the dirty tracking: any write that
        # changes the directory changes the bytes and misses the cache.
        self._dir_cache: dict[int, tuple[bytes, dict[str, int]]] = {}
        # Namespace mutations are read-modify-write over directory
        # blocks; concurrent sim processes must serialize them exactly
        # as the kernel's VFS serializes directory updates with i_mutex.
        self._ns_lock = Lock(sim)

    # -- allocation ----------------------------------------------------------
    def _new_inode(self, kind: str) -> _Inode:
        inode = _Inode(
            ino=self._next_ino,
            kind=kind,
            mtime=self.sim.now,
            ctime=self.sim.now,
        )
        self._inodes[inode.ino] = inode
        self._next_ino += 1
        return inode

    def _alloc_block(self) -> int:
        if self._free_blocks:
            block = self._free_blocks.pop()
            self._stale_blocks.add(block)
            return block
        block = self._next_block
        self._next_block += 1
        if block >= self.cache.device.n_blocks:
            raise InvalidArgument("device full")
        return block

    def _free_block(self, block_no: int) -> None:
        self._free_blocks.append(block_no)

    def _count(self, op: str) -> None:
        self.op_counts[op] = self.op_counts.get(op, 0) + 1

    # -- inode-level I/O ---------------------------------------------------------
    def _read_inode_data(self, inode: _Inode, offset: int, size: int) -> Generator:
        if offset < 0 or size < 0:
            raise InvalidArgument("negative offset/size")
        end = min(offset + size, inode.size)
        if offset >= end:
            return b""
        first = offset // self.block_size
        last = (end - 1) // self.block_size
        chunks = []
        for logical in range(first, last + 1):
            if logical < len(inode.blocks):
                block_no = inode.blocks[logical]
                data = yield from self.cache.read(block_no)
                if block_no in self._stale_blocks:
                    data = bytes(self.block_size)
            else:
                data = bytes(self.block_size)  # sparse hole
            chunks.append(data)
        blob = b"".join(chunks)
        start_in_blob = offset - first * self.block_size
        return blob[start_in_blob:start_in_blob + (end - offset)]

    def _write_inode_data(self, inode: _Inode, offset: int, data: bytes) -> Generator:
        if offset < 0:
            raise InvalidArgument("negative offset")
        if not data:
            return 0
        end = offset + len(data)
        first = offset // self.block_size
        last = (end - 1) // self.block_size
        # Ensure the block map covers the write.
        while len(inode.blocks) <= last:
            inode.blocks.append(self._alloc_block())
        for logical in range(first, last + 1):
            block_start = logical * self.block_size
            block_no = inode.blocks[logical]
            lo = max(offset, block_start)
            hi = min(end, block_start + self.block_size)
            if lo == block_start and hi == block_start + self.block_size:
                block_data = data[lo - offset:hi - offset]
            else:
                existing = yield from self.cache.read(block_no)
                if block_no in self._stale_blocks:
                    existing = bytes(self.block_size)
                block = bytearray(existing)
                block[lo - block_start:hi - block_start] = data[lo - offset:hi - offset]
                block_data = bytes(block)
            self._stale_blocks.discard(block_no)
            yield from self.cache.write(block_no, block_data)
        inode.size = max(inode.size, end)
        inode.mtime = self.sim.now
        return len(data)

    def _set_inode_data(self, inode: _Inode, data: bytes) -> Generator:
        """Replace an inode's full content (used for directories)."""
        yield from self._truncate_inode(inode, 0)
        yield from self._write_inode_data(inode, 0, data)
        return None

    def _truncate_inode(self, inode: _Inode, size: int) -> Generator:
        if size < 0:
            raise InvalidArgument("negative truncate size")
        needed = -(-size // self.block_size) if size else 0
        while len(inode.blocks) > needed:
            self._free_block(inode.blocks.pop())
        if size < inode.size and needed and needed <= len(inode.blocks):
            # Zero the tail of the final kept block (if it is not a
            # hole — sparse files may have fewer blocks than their
            # size implies).
            final_block = inode.blocks[needed - 1]
            keep = size - (needed - 1) * self.block_size
            existing = yield from self.cache.read(final_block)
            if final_block in self._stale_blocks:
                existing = bytes(self.block_size)
            self._stale_blocks.discard(final_block)
            yield from self.cache.write(
                final_block, existing[:keep] + bytes(self.block_size - keep)
            )
        inode.size = size
        inode.mtime = self.sim.now
        return None

    # -- directory helpers ----------------------------------------------------------
    def _load_dir(self, inode: _Inode) -> Generator:
        if not inode.is_dir:
            raise NotADirectory(f"inode {inode.ino} is not a directory")
        raw = yield from self._read_inode_data(inode, 0, inode.size)
        cached = self._dir_cache.get(inode.ino)
        if cached is not None and cached[0] == raw:
            return dict(cached[1])  # copy: callers mutate their view
        entries = _unpack_dir(raw)
        self._dir_cache[inode.ino] = (raw, dict(entries))
        return entries

    def _store_dir(self, inode: _Inode, entries: dict[str, int]) -> Generator:
        packed = _pack_dir(entries)
        self._dir_cache[inode.ino] = (packed, dict(entries))
        yield from self._set_inode_data(inode, packed)
        return None

    def _resolve(self, path: str) -> Generator:
        """Walk the path; return the inode.  Raises FileNotFound."""
        inode = self._inodes[ROOT_INO]
        for comp in split(path):
            entries = yield from self._load_dir(inode)
            child_ino = entries.get(comp)
            if child_ino is None:
                raise FileNotFound(normalize(path))
            inode = self._inodes[child_ino]
        return inode

    def _resolve_parent(self, path: str) -> Generator:
        parent = yield from self._resolve(parent_of(path))
        if not parent.is_dir:
            raise NotADirectory(parent_of(path))
        return parent

    # -- public operations -------------------------------------------------------------
    def exists(self, path: str) -> Generator:
        try:
            yield from self._resolve(path)
            return True
        except FileNotFound:
            return False

    def getattr(self, path: str) -> Generator:
        self._count("getattr")
        yield self.sim.timeout(self.costs.ext3_getattr)
        inode = yield from self._resolve(path)
        return Attr(
            ino=inode.ino,
            is_dir=inode.is_dir,
            size=inode.size,
            mtime=inode.mtime,
            ctime=inode.ctime,
            nlink=inode.nlink,
        )

    def create(self, path: str) -> Generator:
        yield from self._ns_lock.acquire()
        try:
            result = yield from self._create_locked(path)
        finally:
            self._ns_lock.release()
        return result

    def _create_locked(self, path: str) -> Generator:
        """Create an empty regular file (exclusive)."""
        self._count("create")
        yield self.sim.timeout(self.costs.ext3_create)
        name = basename(path)
        parent = yield from self._resolve_parent(path)
        entries = yield from self._load_dir(parent)
        if name in entries:
            raise FileExists(normalize(path))
        inode = self._new_inode("file")
        entries[name] = inode.ino
        yield from self._store_dir(parent, entries)
        return None

    def mkdir(self, path: str) -> Generator:
        yield from self._ns_lock.acquire()
        try:
            result = yield from self._mkdir_locked(path)
        finally:
            self._ns_lock.release()
        return result

    def _mkdir_locked(self, path: str) -> Generator:
        self._count("mkdir")
        yield self.sim.timeout(self.costs.ext3_mkdir)
        name = basename(path)
        parent = yield from self._resolve_parent(path)
        entries = yield from self._load_dir(parent)
        if name in entries:
            raise FileExists(normalize(path))
        inode = self._new_inode("dir")
        inode.nlink = 2
        parent.nlink += 1
        entries[name] = inode.ino
        yield from self._store_dir(parent, entries)
        return None

    def read(self, path: str, offset: int, size: int) -> Generator:
        self._count("read")
        yield self.sim.timeout(self.costs.ext3_read)
        inode = yield from self._resolve(path)
        if inode.is_dir:
            raise IsADirectory(normalize(path))
        data = yield from self._read_inode_data(inode, offset, size)
        return data

    def write(self, path: str, offset: int, data: bytes) -> Generator:
        self._count("write")
        yield self.sim.timeout(self.costs.ext3_write)
        inode = yield from self._resolve(path)
        if inode.is_dir:
            raise IsADirectory(normalize(path))
        written = yield from self._write_inode_data(inode, offset, data)
        return written

    def truncate(self, path: str, size: int) -> Generator:
        self._count("truncate")
        yield self.sim.timeout(self.costs.ext3_write)
        inode = yield from self._resolve(path)
        if inode.is_dir:
            raise IsADirectory(normalize(path))
        yield from self._truncate_inode(inode, size)
        return None

    def readdir(self, path: str) -> Generator:
        self._count("readdir")
        yield self.sim.timeout(self.costs.ext3_getattr)
        inode = yield from self._resolve(path)
        entries = yield from self._load_dir(inode)
        return sorted(entries)

    def unlink(self, path: str) -> Generator:
        yield from self._ns_lock.acquire()
        try:
            result = yield from self._unlink_locked(path)
        finally:
            self._ns_lock.release()
        return result

    def _unlink_locked(self, path: str) -> Generator:
        self._count("unlink")
        yield self.sim.timeout(self.costs.ext3_unlink)
        name = basename(path)
        parent = yield from self._resolve_parent(path)
        entries = yield from self._load_dir(parent)
        if name not in entries:
            raise FileNotFound(normalize(path))
        inode = self._inodes[entries[name]]
        if inode.is_dir:
            raise IsADirectory(normalize(path))
        del entries[name]
        yield from self._store_dir(parent, entries)
        inode.nlink -= 1
        if inode.nlink == 0:
            yield from self._truncate_inode(inode, 0)
            del self._inodes[inode.ino]
        return None

    def rmdir(self, path: str) -> Generator:
        yield from self._ns_lock.acquire()
        try:
            result = yield from self._rmdir_locked(path)
        finally:
            self._ns_lock.release()
        return result

    def _rmdir_locked(self, path: str) -> Generator:
        self._count("rmdir")
        yield self.sim.timeout(self.costs.ext3_unlink)
        name = basename(path)
        parent = yield from self._resolve_parent(path)
        entries = yield from self._load_dir(parent)
        if name not in entries:
            raise FileNotFound(normalize(path))
        inode = self._inodes[entries[name]]
        if not inode.is_dir:
            raise NotADirectory(normalize(path))
        victims = yield from self._load_dir(inode)
        if victims:
            raise DirectoryNotEmpty(normalize(path))
        del entries[name]
        yield from self._store_dir(parent, entries)
        parent.nlink -= 1
        del self._inodes[inode.ino]
        self._dir_cache.pop(inode.ino, None)
        return None

    def rename(self, old: str, new: str) -> Generator:
        yield from self._ns_lock.acquire()
        try:
            result = yield from self._rename_locked(old, new)
        finally:
            self._ns_lock.release()
        return result

    def _rename_locked(self, old: str, new: str) -> Generator:
        self._count("rename")
        yield self.sim.timeout(self.costs.ext3_rename)
        old = normalize(old)
        new = normalize(new)
        if old == "/" or new == "/":
            raise InvalidArgument("cannot rename the root directory")
        if is_ancestor(old, new):
            raise InvalidArgument("cannot rename a directory into itself")
        old_parent = yield from self._resolve_parent(old)
        old_entries = yield from self._load_dir(old_parent)
        old_name = basename(old)
        if old_name not in old_entries:
            raise FileNotFound(old)
        if old == new:
            return None  # rename to self: POSIX no-op (source exists)
        moving = self._inodes[old_entries[old_name]]

        new_parent = yield from self._resolve_parent(new)
        new_entries = (
            old_entries
            if new_parent.ino == old_parent.ino
            else (yield from self._load_dir(new_parent))
        )
        new_name = basename(new)
        existing_ino = new_entries.get(new_name)
        if existing_ino is not None:
            existing = self._inodes[existing_ino]
            if existing.is_dir:
                if not moving.is_dir:
                    raise IsADirectory(new)
                children = yield from self._load_dir(existing)
                if children:
                    raise DirectoryNotEmpty(new)
                del self._inodes[existing_ino]
                self._dir_cache.pop(existing_ino, None)
                new_parent.nlink -= 1
            else:
                if moving.is_dir:
                    raise NotADirectory(new)
                existing.nlink -= 1
                if existing.nlink == 0:
                    yield from self._truncate_inode(existing, 0)
                    del self._inodes[existing_ino]

        del old_entries[old_name]
        new_entries[new_name] = moving.ino
        if new_parent.ino == old_parent.ino:
            yield from self._store_dir(old_parent, old_entries)
        else:
            yield from self._store_dir(old_parent, old_entries)
            yield from self._store_dir(new_parent, new_entries)
            if moving.is_dir:
                old_parent.nlink -= 1
                new_parent.nlink += 1
        moving.ctime = self.sim.now
        return None

    # -- extended attributes ------------------------------------------------------
    def set_xattr(self, path: str, name: str, value: bytes) -> Generator:
        self._count("setxattr")
        yield self.sim.timeout(self.costs.ext3_getattr)
        inode = yield from self._resolve(path)
        inode.xattrs[name] = bytes(value)
        return None

    def get_xattr(self, path: str, name: str) -> Generator:
        self._count("getxattr")
        yield self.sim.timeout(self.costs.ext3_getattr)
        inode = yield from self._resolve(path)
        try:
            return inode.xattrs[name]
        except KeyError:
            raise FileNotFound(f"xattr {name!r} on {normalize(path)}") from None

    # -- maintenance -----------------------------------------------------------------
    def sync(self) -> Generator:
        """Flush the buffer cache and persist an inode-table image.

        The image lands in the reserved metadata blocks so an offline
        attacker can traverse the on-disk structure like a real fsck.
        """
        yield from self.cache.sync()
        image = self._serialize_metadata()
        block = 1
        for offset in range(0, len(image), self.block_size):
            chunk = image[offset:offset + self.block_size]
            yield from self.cache.device.write_block(
                block, chunk.ljust(self.block_size, b"\x00")
            )
            block += 1
            if block >= _FIRST_DATA_BLOCK:
                break  # metadata image larger than the reserved area
        return None

    def _serialize_metadata(self) -> bytes:
        out = bytearray(b"KPFS")
        for inode in self._inodes.values():
            rec = struct.pack(
                ">QBQH", inode.ino, 1 if inode.is_dir else 0, inode.size,
                len(inode.blocks),
            )
            rec += b"".join(struct.pack(">Q", b) for b in inode.blocks)
            out += struct.pack(">I", len(rec)) + rec
        return bytes(out)
