"""The directory walk's oracle: read and parse every directory, every time.

``repro.storage.localfs.LocalFileSystem`` answers a directory lookup
from its decoded-directory cache while the buffer cache still holds the
very bytes objects the entries were parsed from, and charges the hits a
read would have made.  Before it, every lookup read the directory's
blocks through the buffer cache and parsed them.  That walk is kept
here so ``tests/property/test_localfs_stateful.py`` can patch it into a
twin file system with ``mock.patch.object(LocalFileSystem, "_resolve",
resolve)`` (and ``_load_dir``) and demand identical results, errors,
buffer-cache counts, LRU order, device I/O and simulated time.
"""

from __future__ import annotations

from typing import Generator

from repro.errors import FileNotFound, NotADirectory
from repro.storage.localfs import ROOT_INO, _unpack_dir
from repro.util.paths import normalize, split


def load_dir(self, inode) -> Generator:
    """A directory's entries, read and parsed (a fresh dict)."""
    if not inode.is_dir:
        raise NotADirectory(f"inode {inode.ino} is not a directory")
    raw = yield from self._read_inode_data(inode, 0, inode.size)
    return _unpack_dir(raw)


def resolve(self, path: str) -> Generator:
    """Walk the path, loading each directory; return the inode."""
    inode = self._inodes[ROOT_INO]
    for comp in split(path):
        entries = yield from load_dir(self, inode)
        child_ino = entries.get(comp)
        if child_ino is None:
            raise FileNotFound(normalize(path))
        inode = self._inodes[child_ino]
    return inode
