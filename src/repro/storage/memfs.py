"""An in-memory lower file system: the 'memory' storage backend.

Same POSIX-style semantics and error taxonomy as
:class:`~repro.storage.localfs.LocalFileSystem`, but content lives in
plain Python objects and every operation costs zero simulated time —
an *ideal store* that isolates Keypad's crypto and network overheads
from disk time.  There is no block device underneath, so offline-attack
tooling that walks raw blocks needs the ext3 backend instead.

The namespace engine here is also the base for the content-addressed
backend (:mod:`repro.storage.casfs`), which overrides only how file
bytes are stored.
"""

from __future__ import annotations

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
from repro.sim import Simulation
from repro.storage.backend import FsInterface
from repro.storage.localfs import ROOT_INO, Attr
from repro.util.paths import basename, is_ancestor, normalize, parent_of, split

__all__ = ["MemoryFileSystem"]


@dataclass
class _Node:
    ino: int
    kind: str  # "file" | "dir"
    mtime: float = 0.0
    ctime: float = 0.0
    nlink: int = 1
    children: dict[str, "_Node"] = field(default_factory=dict)
    data: bytes = b""
    size: int = 0
    xattrs: dict[str, bytes] = field(default_factory=dict)

    @property
    def is_dir(self) -> bool:
        return self.kind == "dir"


class MemoryFileSystem(FsInterface):
    """The zero-I/O-cost bottom layer."""

    backend_name = "memory"

    def __init__(self, sim: Simulation, costs: CostModel = DEFAULT_COSTS):
        self.sim = sim
        self.costs = costs
        self._next_ino = ROOT_INO
        self.root = self._new_node("dir")
        self.root.nlink = 2
        self.op_counts: dict[str, int] = {}

    # -- cost hook (casfs charges ext3-class constants instead) -------------
    def _charge(self, op: str) -> float:
        return 0.0

    # -- content hooks (casfs overrides these three) ------------------------
    def _get_data(self, node: _Node) -> bytes:
        return node.data

    def _set_data(self, node: _Node, data: bytes) -> None:
        node.data = data
        node.size = len(data)

    def _drop_data(self, node: _Node) -> None:
        node.data = b""
        node.size = 0

    # -- plumbing -----------------------------------------------------------
    def _new_node(self, kind: str) -> _Node:
        node = _Node(ino=self._next_ino, kind=kind,
                     mtime=self.sim.now, ctime=self.sim.now)
        self._next_ino += 1
        return node

    def _count(self, op: str) -> None:
        self.op_counts[op] = self.op_counts.get(op, 0) + 1

    def _resolve(self, path: str) -> _Node:
        node = self.root
        for comp in split(path):
            if not node.is_dir:
                raise NotADirectory(normalize(path))
            child = node.children.get(comp)
            if child is None:
                raise FileNotFound(normalize(path))
            node = child
        return node

    def _resolve_parent(self, path: str) -> _Node:
        parent = self._resolve(parent_of(path))
        if not parent.is_dir:
            raise NotADirectory(parent_of(path))
        return parent

    # -- public operations --------------------------------------------------
    def exists(self, path: str) -> Generator:
        yield self.sim.timeout(self._charge("getattr"))
        try:
            self._resolve(path)
            return True
        except FileNotFound:
            return False

    def getattr(self, path: str) -> Generator:
        self._count("getattr")
        yield self.sim.timeout(self._charge("getattr"))
        node = self._resolve(path)
        return Attr(ino=node.ino, is_dir=node.is_dir, size=node.size,
                    mtime=node.mtime, ctime=node.ctime, nlink=node.nlink)

    def create(self, path: str) -> Generator:
        self._count("create")
        yield self.sim.timeout(self._charge("create"))
        name = basename(path)
        parent = self._resolve_parent(path)
        if name in parent.children:
            raise FileExists(normalize(path))
        parent.children[name] = self._new_node("file")
        parent.mtime = self.sim.now
        return None

    def mkdir(self, path: str) -> Generator:
        self._count("mkdir")
        yield self.sim.timeout(self._charge("mkdir"))
        name = basename(path)
        parent = self._resolve_parent(path)
        if name in parent.children:
            raise FileExists(normalize(path))
        node = self._new_node("dir")
        node.nlink = 2
        parent.nlink += 1
        parent.children[name] = node
        parent.mtime = self.sim.now
        return None

    def read(self, path: str, offset: int, size: int) -> Generator:
        self._count("read")
        yield self.sim.timeout(self._charge("read"))
        if offset < 0 or size < 0:
            raise InvalidArgument("negative offset/size")
        node = self._resolve(path)
        if node.is_dir:
            raise IsADirectory(normalize(path))
        return self._get_data(node)[offset:offset + size]

    def write(self, path: str, offset: int, data: bytes) -> Generator:
        self._count("write")
        yield self.sim.timeout(self._charge("write"))
        if offset < 0:
            raise InvalidArgument("negative offset")
        node = self._resolve(path)
        if node.is_dir:
            raise IsADirectory(normalize(path))
        if not data:
            return 0
        old = self._get_data(node)
        if len(old) < offset:
            old = old + bytes(offset - len(old))  # sparse hole
        self._set_data(node, old[:offset] + bytes(data)
                       + old[offset + len(data):])
        node.mtime = self.sim.now
        return len(data)

    def truncate(self, path: str, size: int) -> Generator:
        self._count("truncate")
        yield self.sim.timeout(self._charge("write"))
        if size < 0:
            raise InvalidArgument("negative truncate size")
        node = self._resolve(path)
        if node.is_dir:
            raise IsADirectory(normalize(path))
        old = self._get_data(node)
        if size <= len(old):
            self._set_data(node, old[:size])
        else:
            self._set_data(node, old + bytes(size - len(old)))
        node.mtime = self.sim.now
        return None

    def readdir(self, path: str) -> Generator:
        self._count("readdir")
        yield self.sim.timeout(self._charge("getattr"))
        node = self._resolve(path)
        if not node.is_dir:
            raise NotADirectory(normalize(path))
        return sorted(node.children)

    def unlink(self, path: str) -> Generator:
        self._count("unlink")
        yield self.sim.timeout(self._charge("unlink"))
        name = basename(path)
        parent = self._resolve_parent(path)
        node = parent.children.get(name)
        if node is None:
            raise FileNotFound(normalize(path))
        if node.is_dir:
            raise IsADirectory(normalize(path))
        del parent.children[name]
        parent.mtime = self.sim.now
        node.nlink -= 1
        if node.nlink == 0:
            self._drop_data(node)
        return None

    def rmdir(self, path: str) -> Generator:
        self._count("rmdir")
        yield self.sim.timeout(self._charge("unlink"))
        name = basename(path)
        parent = self._resolve_parent(path)
        node = parent.children.get(name)
        if node is None:
            raise FileNotFound(normalize(path))
        if not node.is_dir:
            raise NotADirectory(normalize(path))
        if node.children:
            raise DirectoryNotEmpty(normalize(path))
        del parent.children[name]
        parent.nlink -= 1
        parent.mtime = self.sim.now
        return None

    def rename(self, old: str, new: str) -> Generator:
        self._count("rename")
        yield self.sim.timeout(self._charge("rename"))
        old = normalize(old)
        new = normalize(new)
        if old == "/" or new == "/":
            raise InvalidArgument("cannot rename the root directory")
        if is_ancestor(old, new):
            raise InvalidArgument("cannot rename a directory into itself")
        old_parent = self._resolve_parent(old)
        old_name = basename(old)
        moving = old_parent.children.get(old_name)
        if moving is None:
            raise FileNotFound(old)
        if old == new:
            return None  # rename to self: POSIX no-op (source exists)

        new_parent = self._resolve_parent(new)
        new_name = basename(new)
        existing = new_parent.children.get(new_name)
        if existing is not None:
            if existing.is_dir:
                if not moving.is_dir:
                    raise IsADirectory(new)
                if existing.children:
                    raise DirectoryNotEmpty(new)
                new_parent.nlink -= 1
            else:
                if moving.is_dir:
                    raise NotADirectory(new)
                existing.nlink -= 1
                if existing.nlink == 0:
                    self._drop_data(existing)

        del old_parent.children[old_name]
        new_parent.children[new_name] = moving
        if new_parent is not old_parent and moving.is_dir:
            old_parent.nlink -= 1
            new_parent.nlink += 1
        moving.ctime = self.sim.now
        return None

    # -- extended attributes ------------------------------------------------
    def set_xattr(self, path: str, name: str, value: bytes) -> Generator:
        self._count("setxattr")
        yield self.sim.timeout(self._charge("getattr"))
        node = self._resolve(path)
        node.xattrs[name] = bytes(value)
        return None

    def get_xattr(self, path: str, name: str) -> Generator:
        self._count("getxattr")
        yield self.sim.timeout(self._charge("getattr"))
        node = self._resolve(path)
        try:
            return node.xattrs[name]
        except KeyError:
            raise FileNotFound(f"xattr {name!r} on {normalize(path)}") from None

    # -- maintenance --------------------------------------------------------
    def sync(self) -> Generator:
        """Nothing to flush; kept for interface parity with ext3."""
        yield self.sim.timeout(0.0)
        return None

    def total_bytes_stored(self) -> int:
        total = 0
        stack: list[_Node] = [self.root]
        while stack:
            node = stack.pop()
            if node.is_dir:
                stack.extend(node.children.values())
            else:
                total += node.size
        return total
