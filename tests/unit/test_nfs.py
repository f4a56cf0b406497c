"""Tests for the NFS baseline (client caches, async writes, RTT costs)."""

import pytest

from repro.errors import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InvalidArgument,
)
from repro.harness import build_nfs_rig
from repro.api import LAN, THREE_G


class TestNfsBasics:
    def test_create_write_read(self):
        rig = build_nfs_rig(LAN)

        def proc():
            yield from rig.fs.mkdir("/d")
            yield from rig.fs.create("/d/f")
            yield from rig.fs.write("/d/f", 0, b"remote data")
            data = yield from rig.fs.read("/d/f", 0, 100)
            return data

        assert rig.run(proc()) == b"remote data"

    def test_data_survives_cache_expiry(self):
        rig = build_nfs_rig(LAN)

        def proc():
            yield from rig.fs.create("/f")
            yield from rig.fs.write("/f", 0, b"payload")
            yield from rig.fs.flush()
            yield rig.sim.timeout(100.0)  # caches stale
            data = yield from rig.fs.read("/f", 0, 7)
            return data

        assert rig.run(proc()) == b"payload"

    def test_getattr_after_write(self):
        rig = build_nfs_rig(LAN)

        def proc():
            yield from rig.fs.create("/f")
            yield from rig.fs.write("/f", 0, b"12345")
            attr = yield from rig.fs.getattr("/f")
            return attr.size

        assert rig.run(proc()) == 5

    def test_rename_and_readdir(self):
        rig = build_nfs_rig(LAN)

        def proc():
            yield from rig.fs.mkdir("/a")
            yield from rig.fs.mkdir("/b")
            yield from rig.fs.create("/a/x")
            yield from rig.fs.write("/a/x", 0, b"content")
            yield from rig.fs.flush()
            yield from rig.fs.rename("/a/x", "/b/y")
            names_a = yield from rig.fs.readdir("/a")
            names_b = yield from rig.fs.readdir("/b")
            data = yield from rig.fs.read("/b/y", 0, 7)
            return names_a, names_b, data

        names_a, names_b, data = rig.run(proc())
        assert names_a == []
        assert names_b == ["y"]
        assert data == b"content"

    def test_unlink_and_rmdir(self):
        rig = build_nfs_rig(LAN)

        def proc():
            yield from rig.fs.mkdir("/d")
            yield from rig.fs.create("/d/f")
            with pytest.raises(DirectoryNotEmpty):
                yield from rig.fs.rmdir("/d")
            yield from rig.fs.unlink("/d/f")
            yield from rig.fs.rmdir("/d")
            exists = yield from rig.fs.exists("/d")
            return exists

        assert rig.run(proc()) is False

    def test_duplicate_create_rejected(self):
        rig = build_nfs_rig(LAN)

        def proc():
            yield from rig.fs.create("/f")
            yield from rig.fs.create("/f")

        with pytest.raises(FileExists):
            rig.run(proc())

    def test_missing_file(self):
        rig = build_nfs_rig(LAN)

        def proc():
            yield from rig.fs.read("/ghost", 0, 1)

        with pytest.raises(FileNotFound):
            rig.run(proc())

    def test_truncate(self):
        rig = build_nfs_rig(LAN)

        def proc():
            yield from rig.fs.create("/f")
            yield from rig.fs.write("/f", 0, b"0123456789")
            yield from rig.fs.flush()
            yield from rig.fs.truncate("/f", 4)
            yield rig.sim.timeout(100.0)
            data = yield from rig.fs.read_all("/f")
            return data

        assert rig.run(proc()) == b"0123"

    def test_no_xattr_support(self):
        rig = build_nfs_rig(LAN)

        def proc():
            yield from rig.fs.create("/f")
            yield from rig.fs.set_xattr("/f", "user.x", b"v")

        with pytest.raises(InvalidArgument):
            rig.run(proc())

    def test_no_xattr_reads(self):
        rig = build_nfs_rig(LAN)

        def proc():
            yield from rig.fs.create("/f")
            yield from rig.fs.get_xattr("/f", "user.x")

        with pytest.raises(InvalidArgument):
            rig.run(proc())


class TestNfsPerformance:
    def test_async_writes_hide_rtt(self):
        rig = build_nfs_rig(THREE_G)

        def proc():
            yield from rig.fs.create("/f")
            t0 = rig.sim.now
            for i in range(10):
                yield from rig.fs.write("/f", i * 100, b"x" * 100)
            return rig.sim.now - t0

        elapsed = rig.run(proc())
        # Ten writes over 3G would cost 3s if synchronous; the async
        # buffer makes them near-free on the critical path.
        assert elapsed < 0.1

    def test_cold_reads_pay_rtt(self):
        rig = build_nfs_rig(THREE_G)

        def proc():
            yield from rig.fs.create("/f")
            yield from rig.fs.write("/f", 0, b"y" * 100)
            yield from rig.fs.flush()
            yield rig.sim.timeout(100.0)  # caches stale
            t0 = rig.sim.now
            yield from rig.fs.read("/f", 0, 100)
            return rig.sim.now - t0

        elapsed = rig.run(proc())
        assert elapsed >= 0.3  # at least one full RTT

    def test_warm_cache_read_is_local(self):
        rig = build_nfs_rig(THREE_G)

        def proc():
            yield from rig.fs.create("/f")
            yield from rig.fs.write("/f", 0, b"y" * 100)
            t0 = rig.sim.now
            yield from rig.fs.read("/f", 0, 100)  # page cache hit
            return rig.sim.now - t0

        assert rig.run(proc()) < 0.01

    def test_lookup_cache_amortizes_path_walks(self):
        rig = build_nfs_rig(THREE_G)

        def proc():
            yield from rig.fs.mkdir("/a")
            yield from rig.fs.mkdir("/a/b")
            yield from rig.fs.create("/a/b/f")
            count_before = rig.fs.rpc_count
            yield from rig.fs.exists("/a/b/f")
            return rig.fs.rpc_count - count_before

        assert rig.run(proc()) == 0  # fully cached walk
