"""Storage substrate: block device, buffer cache, local FS, VFS, and
the pluggable backend registry (ext3 / memory / cas)."""

from repro.storage.backend import (
    BACKENDS,
    FsInterface,
    StorageBackend,
    StorageStack,
    make_backend,
)
from repro.storage.blockdev import BlockDevice
from repro.storage.buffercache import BufferCache
from repro.storage.localfs import ROOT_INO, Attr, LocalFileSystem
from repro.storage.vfs import FileHandle, Vfs

__all__ = [
    "BlockDevice",
    "BufferCache",
    "LocalFileSystem",
    "Attr",
    "ROOT_INO",
    "FsInterface",
    "StorageBackend",
    "StorageStack",
    "BACKENDS",
    "make_backend",
    "FileHandle",
    "Vfs",
]
