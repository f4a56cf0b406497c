"""Write-back LRU buffer cache over a block device.

The paper's microbenchmarks run "with a warm disk buffer cache", and
Keypad's non-goals note that auditability holds "at the file system
interface level and below (e.g., the buffer cache)".  The cache sits
between the local FS and the device: hits cost nothing, misses charge
device latency, dirty blocks write back on eviction or sync.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generator

from repro.sim import Simulation
from repro.storage.blockdev import BlockDevice

__all__ = ["BufferCache"]


class BufferCache:
    """LRU write-back cache of device blocks."""

    def __init__(
        self,
        sim: Simulation,
        device: BlockDevice,
        capacity_blocks: int = 65536,
    ):
        if capacity_blocks <= 0:
            raise ValueError("cache capacity must be positive")
        self.sim = sim
        self.device = device
        self.capacity = capacity_blocks
        self._cache: OrderedDict[int, bytes] = OrderedDict()
        self._dirty: set[int] = set()
        self.hits = 0
        self.misses = 0

    def read(self, block_no: int) -> Generator:
        """Sim-process: read a block through the cache."""
        if block_no in self._cache:
            self.hits += 1
            self._cache.move_to_end(block_no)
            return self._cache[block_no]
        self.misses += 1
        data = yield from self.device.read_block(block_no)
        yield from self._insert(block_no, data, dirty=False)
        return data

    def held(self, block_no: int) -> bytes | None:
        """The bytes object cached for ``block_no``, or None; counts
        nothing and moves nothing."""
        return self._cache.get(block_no)

    def hit_held(self, blocks: tuple) -> bool:
        """Charge ``blocks``, ``(block number, bytes)`` pairs, as read
        hits if the cache still holds each number as that very object.

        Then this is ``read()`` of each block in order, without the
        generators: a hit costs no simulated time, and a caller that
        kept the objects of an earlier read already has the bytes.
        Otherwise returns False and changes nothing.
        """
        cache = self._cache
        for block_no, data in blocks:
            if cache.get(block_no) is not data:
                return False
        for block_no, _ in blocks:
            cache.move_to_end(block_no)
        self.hits += len(blocks)
        return True

    def write(self, block_no: int, data: bytes) -> Generator:
        """Sim-process: write a block (buffered; no device I/O yet)."""
        if len(data) != self.device.block_size:
            # Pad partial trailing blocks up to device geometry.
            data = data.ljust(self.device.block_size, b"\x00")
        yield from self._insert(block_no, bytes(data), dirty=True)
        return None

    def _insert(self, block_no: int, data: bytes, dirty: bool) -> Generator:
        if block_no in self._cache:
            self._cache.move_to_end(block_no)
        self._cache[block_no] = data
        if dirty:
            self._dirty.add(block_no)
        while len(self._cache) > self.capacity:
            victim, victim_data = self._cache.popitem(last=False)
            if victim in self._dirty:
                self._dirty.discard(victim)
                yield from self.device.write_block(victim, victim_data)
        return None

    def sync(self) -> Generator:
        """Sim-process: flush all dirty blocks (fsync / unmount)."""
        for block_no in sorted(self._dirty):
            yield from self.device.write_block(block_no, self._cache[block_no])
        self._dirty.clear()
        return None

    def drop(self) -> None:
        """Drop clean cached blocks (memory pressure / cold-cache setup).

        Dirty blocks are retained — dropping them would lose writes.
        """
        clean = [b for b in self._cache if b not in self._dirty]
        for block_no in clean:
            del self._cache[block_no]

    @property
    def dirty_count(self) -> int:
        return len(self._dirty)
