"""Storage substrate: block device, buffer cache and the ext3-like
local FS, the paper's lower store."""

from repro.storage.backend import FsInterface
from repro.storage.blockdev import BlockDevice
from repro.storage.buffercache import BufferCache
from repro.storage.localfs import ROOT_INO, Attr, LocalFileSystem

__all__ = [
    "BlockDevice",
    "BufferCache",
    "LocalFileSystem",
    "Attr",
    "ROOT_INO",
    "FsInterface",
]
