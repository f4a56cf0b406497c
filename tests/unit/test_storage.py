"""Tests for block device, buffer cache, local FS, and VFS."""

import pytest

from repro.errors import (
    DirectoryNotEmpty,
    DiskError,
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
)
from repro.sim import Simulation
from repro.storage import BlockDevice, BufferCache, LocalFileSystem, Vfs
from repro.util.paths import is_ancestor, normalize, parent_of, split


@pytest.fixture()
def rig():
    sim = Simulation()
    device = BlockDevice(sim, n_blocks=4096)
    cache = BufferCache(sim, device, capacity_blocks=256)
    fs = LocalFileSystem(sim, cache)
    return sim, device, cache, fs


def run(sim, gen):
    return sim.run_process(gen)


class TestPaths:
    def test_normalize(self):
        assert normalize("/a/b/c") == "/a/b/c"
        assert normalize("a//b/./c/") == "/a/b/c"
        assert normalize("/") == "/"
        assert normalize("") == "/"

    def test_rejects_dotdot_and_nul(self):
        with pytest.raises(InvalidArgument):
            normalize("/a/../b")
        with pytest.raises(InvalidArgument):
            normalize("/a/b\x00c")

    def test_split_and_parent(self):
        assert split("/a/b") == ["a", "b"]
        assert split("/") == []
        assert parent_of("/a/b") == "/a"
        assert parent_of("/a") == "/"
        with pytest.raises(InvalidArgument):
            parent_of("/")

    def test_is_ancestor(self):
        assert is_ancestor("/a", "/a/b")
        assert is_ancestor("/", "/a")
        assert not is_ancestor("/a/b", "/a")
        assert not is_ancestor("/a", "/a")
        assert not is_ancestor("/a", "/ab")


class TestBlockDevice:
    def test_read_unwritten_block_is_zeroes(self, rig):
        sim, device, _, _ = rig
        data = run(sim, device.read_block(5))
        assert data == bytes(4096)

    def test_write_then_read(self, rig):
        sim, device, _, _ = rig
        payload = b"x" * 4096

        def proc():
            yield from device.write_block(7, payload)
            data = yield from device.read_block(7)
            return data

        assert run(sim, proc()) == payload

    def test_out_of_range_rejected(self, rig):
        sim, device, _, _ = rig
        with pytest.raises(DiskError):
            run(sim, device.read_block(4096))

    def test_short_write_rejected(self, rig):
        sim, device, _, _ = rig
        with pytest.raises(DiskError):
            run(sim, device.write_block(0, b"short"))

    def test_fault_injection(self, rig):
        sim, device, _, _ = rig
        device.fault_hook = lambda op, block: op == "read" and block == 3
        with pytest.raises(DiskError, match="injected"):
            run(sim, device.read_block(3))
        run(sim, device.read_block(4))  # unaffected

    def test_peek_raw_bypasses_simulation(self, rig):
        sim, device, _, _ = rig
        run(sim, device.write_block(2, b"\xaa" * 4096))
        assert device.peek_raw(2) == b"\xaa" * 4096
        assert device.blocks_in_use() == [2]


class TestBufferCache:
    def test_hit_avoids_device_read(self, rig):
        sim, device, cache, _ = rig

        def proc():
            yield from cache.read(9)
            yield from cache.read(9)

        run(sim, proc())
        assert device.reads == 1
        assert cache.hits == 1
        assert cache.misses == 1

    def test_writeback_on_sync(self, rig):
        sim, device, cache, _ = rig

        def proc():
            yield from cache.write(3, b"y" * 4096)
            assert device.writes == 0  # still buffered
            yield from cache.sync()

        run(sim, proc())
        assert device.writes == 1
        assert device.peek_raw(3) == b"y" * 4096

    def test_eviction_writes_dirty_victim(self):
        sim = Simulation()
        device = BlockDevice(sim, n_blocks=64)
        cache = BufferCache(sim, device, capacity_blocks=2)

        def proc():
            yield from cache.write(0, b"a" * 4096)
            yield from cache.write(1, b"b" * 4096)
            yield from cache.write(2, b"c" * 4096)  # evicts block 0

        sim.run_process(proc())
        assert device.peek_raw(0) == b"a" * 4096
        assert cache.dirty_count == 2

    def test_drop_keeps_dirty(self, rig):
        sim, device, cache, _ = rig

        def proc():
            yield from cache.read(1)       # clean
            yield from cache.write(2, b"z" * 4096)  # dirty

        run(sim, proc())
        cache.drop()
        assert cache.dirty_count == 1

        def reread():
            yield from cache.read(2)

        run(sim, reread())
        assert cache.hits >= 1  # dirty block survived the drop


class TestLocalFs:
    def test_create_write_read(self, rig):
        sim, _, _, fs = rig

        def proc():
            yield from fs.create("/hello.txt")
            yield from fs.write("/hello.txt", 0, b"hello world")
            data = yield from fs.read("/hello.txt", 0, 100)
            return data

        assert run(sim, proc()) == b"hello world"

    def test_read_at_offset(self, rig):
        sim, _, _, fs = rig

        def proc():
            yield from fs.create("/f")
            yield from fs.write("/f", 0, b"0123456789")
            data = yield from fs.read("/f", 3, 4)
            return data

        assert run(sim, proc()) == b"3456"

    def test_write_spanning_blocks(self, rig):
        sim, _, _, fs = rig
        payload = bytes(range(256)) * 40  # 10240 bytes > 2 blocks

        def proc():
            yield from fs.create("/big")
            yield from fs.write("/big", 0, payload)
            data = yield from fs.read("/big", 0, len(payload))
            return data

        assert run(sim, proc()) == payload

    def test_overwrite_middle(self, rig):
        sim, _, _, fs = rig

        def proc():
            yield from fs.create("/f")
            yield from fs.write("/f", 0, b"aaaaaaaaaa")
            yield from fs.write("/f", 4, b"BB")
            data = yield from fs.read_all("/f")
            return data

        assert run(sim, proc()) == b"aaaaBBaaaa"

    def test_sparse_write(self, rig):
        sim, _, _, fs = rig

        def proc():
            yield from fs.create("/sparse")
            yield from fs.write("/sparse", 5000, b"tail")
            attr = yield from fs.getattr("/sparse")
            head = yield from fs.read("/sparse", 0, 10)
            return attr.size, head

        size, head = run(sim, proc())
        assert size == 5004
        assert head == bytes(10)

    def test_reused_block_leaks_nothing_into_a_partial_write(self, rig):
        sim, _, _, fs = rig

        def proc():
            yield from fs.mkdir("/d1")
            yield from fs.mkdir("/d1/sub")
            yield from fs.create("/b")
            yield from fs.create("/d1/sub/a")
            # The emptied directory frees its block; /b's write reuses it.
            yield from fs.unlink("/d1/sub/a")
            yield from fs.write("/b", 2, b"\x00")
            data = yield from fs.read("/b", 0, 3)
            return data

        assert run(sim, proc()) == bytes(3)

    def test_reused_blocks_leak_nothing_into_holes(self, rig):
        sim, _, _, fs = rig
        block = fs.block_size

        def proc():
            yield from fs.create("/old")
            yield from fs.write("/old", 0, b"x" * (2 * block))
            yield from fs.unlink("/old")
            yield from fs.create("/new")
            # Past EOF: logical blocks 0 and 1 are holes on reused blocks.
            yield from fs.write("/new", 2 * block + 10, b"t")
            data = yield from fs.read_all("/new")
            return data

        assert run(sim, proc()) == bytes(2 * block + 10) + b"t"

    def test_create_requires_parent(self, rig):
        sim, _, _, fs = rig
        with pytest.raises(FileNotFound):
            run(sim, fs.create("/no/such/dir/f"))

    def test_create_exclusive(self, rig):
        sim, _, _, fs = rig

        def proc():
            yield from fs.create("/f")
            yield from fs.create("/f")

        with pytest.raises(FileExists):
            run(sim, proc())

    def test_mkdir_and_nesting(self, rig):
        sim, _, _, fs = rig

        def proc():
            yield from fs.mkdir("/a")
            yield from fs.mkdir("/a/b")
            yield from fs.create("/a/b/f")
            names = yield from fs.readdir("/a/b")
            attr = yield from fs.getattr("/a/b")
            return names, attr.is_dir

        names, is_dir = run(sim, proc())
        assert names == ["f"]
        assert is_dir

    def test_readdir_on_file_fails(self, rig):
        sim, _, _, fs = rig

        def proc():
            yield from fs.create("/f")
            yield from fs.readdir("/f")

        with pytest.raises(NotADirectory):
            run(sim, proc())

    def test_read_on_dir_fails(self, rig):
        sim, _, _, fs = rig

        def proc():
            yield from fs.mkdir("/d")
            yield from fs.read("/d", 0, 1)

        with pytest.raises(IsADirectory):
            run(sim, proc())

    def test_unlink(self, rig):
        sim, _, _, fs = rig

        def proc():
            yield from fs.create("/f")
            yield from fs.unlink("/f")
            exists = yield from fs.exists("/f")
            return exists

        assert run(sim, proc()) is False

    def test_unlink_missing(self, rig):
        sim, _, _, fs = rig
        with pytest.raises(FileNotFound):
            run(sim, fs.unlink("/ghost"))

    def test_rmdir_empty_only(self, rig):
        sim, _, _, fs = rig

        def proc():
            yield from fs.mkdir("/d")
            yield from fs.create("/d/f")
            yield from fs.rmdir("/d")

        with pytest.raises(DirectoryNotEmpty):
            run(sim, proc())

        def proc2():
            yield from fs.unlink("/d/f")
            yield from fs.rmdir("/d")
            exists = yield from fs.exists("/d")
            return exists

        assert run(sim, proc2()) is False

    def test_rename_file(self, rig):
        sim, _, _, fs = rig

        def proc():
            yield from fs.mkdir("/tmp")
            yield from fs.mkdir("/home")
            yield from fs.create("/tmp/irs_form.pdf")
            yield from fs.write("/tmp/irs_form.pdf", 0, b"tax data")
            yield from fs.rename("/tmp/irs_form.pdf", "/home/prepared_taxes_2011.pdf")
            gone = yield from fs.exists("/tmp/irs_form.pdf")
            data = yield from fs.read_all("/home/prepared_taxes_2011.pdf")
            return gone, data

        gone, data = run(sim, proc())
        assert gone is False
        assert data == b"tax data"

    def test_rename_overwrites_file(self, rig):
        sim, _, _, fs = rig

        def proc():
            yield from fs.create("/a")
            yield from fs.write("/a", 0, b"new")
            yield from fs.create("/b")
            yield from fs.write("/b", 0, b"old-old")
            yield from fs.rename("/a", "/b")
            data = yield from fs.read_all("/b")
            return data

        assert run(sim, proc()) == b"new"

    def test_rename_dir_into_descendant_rejected(self, rig):
        sim, _, _, fs = rig

        def proc():
            yield from fs.mkdir("/a")
            yield from fs.mkdir("/a/b")
            yield from fs.rename("/a", "/a/b/c")

        with pytest.raises(InvalidArgument):
            run(sim, proc())

    def test_rename_dir_over_nonempty_dir_rejected(self, rig):
        sim, _, _, fs = rig

        def proc():
            yield from fs.mkdir("/a")
            yield from fs.mkdir("/b")
            yield from fs.create("/b/f")
            yield from fs.rename("/a", "/b")

        with pytest.raises(DirectoryNotEmpty):
            run(sim, proc())

    def test_rename_noop_same_path(self, rig):
        sim, _, _, fs = rig

        def proc():
            yield from fs.create("/f")
            yield from fs.rename("/f", "/f")
            exists = yield from fs.exists("/f")
            return exists

        assert run(sim, proc()) is True

    def test_truncate_shrink_and_grow(self, rig):
        sim, _, _, fs = rig

        def proc():
            yield from fs.create("/f")
            yield from fs.write("/f", 0, b"0123456789")
            yield from fs.truncate("/f", 4)
            short = yield from fs.read_all("/f")
            yield from fs.write("/f", 6, b"zz")
            regrown = yield from fs.read_all("/f")
            return short, regrown

        short, regrown = run(sim, proc())
        assert short == b"0123"
        assert regrown == b"0123\x00\x00zz"

    def test_xattrs(self, rig):
        sim, _, _, fs = rig

        def proc():
            yield from fs.create("/f")
            yield from fs.set_xattr("/f", "user.tag", b"sensitive")
            value = yield from fs.get_xattr("/f", "user.tag")
            return value

        assert run(sim, proc()) == b"sensitive"

    def test_missing_xattr(self, rig):
        sim, _, _, fs = rig

        def proc():
            yield from fs.create("/f")
            yield from fs.get_xattr("/f", "none")

        with pytest.raises(FileNotFound):
            run(sim, proc())

    def test_unlink_frees_blocks_for_reuse(self, rig):
        sim, _, _, fs = rig

        def proc():
            yield from fs.create("/f")
            yield from fs.write("/f", 0, b"x" * 8192)
            before = len(fs._free_blocks)
            yield from fs.unlink("/f")
            return len(fs._free_blocks) - before

        # The file's two data blocks are freed (the root directory may
        # additionally recycle its own block during the rewrite).
        assert run(sim, proc()) >= 2

    def test_content_reaches_device_after_sync(self, rig):
        sim, device, _, fs = rig

        def proc():
            yield from fs.create("/f")
            yield from fs.write("/f", 0, b"PLAINTEXT-ON-DISK")
            yield from fs.sync()

        run(sim, proc())
        raw = b"".join(device.peek_raw(b) for b in device.blocks_in_use())
        assert b"PLAINTEXT-ON-DISK" in raw

    def test_mtime_advances(self, rig):
        sim, _, _, fs = rig

        def proc():
            yield from fs.create("/f")
            a1 = yield from fs.getattr("/f")
            yield sim.timeout(5.0)
            yield from fs.write("/f", 0, b"x")
            a2 = yield from fs.getattr("/f")
            return a1.mtime, a2.mtime

        t1, t2 = run(sim, proc())
        assert t2 > t1


class TestVfs:
    def test_open_read_write_seek_close(self, rig):
        sim, _, _, fs = rig
        vfs = Vfs(sim, fs)

        def proc():
            handle = yield from vfs.open("/f", create=True)
            yield from vfs.write(handle, b"hello world")
            vfs.seek(handle, 6)
            data = yield from vfs.read(handle, 5)
            vfs.close(handle)
            return data

        assert run(sim, proc()) == b"world"

    def test_open_missing_without_create(self, rig):
        sim, _, _, fs = rig
        vfs = Vfs(sim, fs)
        with pytest.raises(FileNotFound):
            run(sim, vfs.open("/ghost"))

    def test_double_close_rejected(self, rig):
        sim, _, _, fs = rig
        vfs = Vfs(sim, fs)

        def proc():
            handle = yield from vfs.open("/f", create=True)
            vfs.close(handle)
            vfs.close(handle)

        with pytest.raises(InvalidArgument):
            run(sim, proc())

    def test_sequential_reads_advance_position(self, rig):
        sim, _, _, fs = rig
        vfs = Vfs(sim, fs)

        def proc():
            handle = yield from vfs.open("/f", create=True)
            yield from vfs.write(handle, b"abcdef")
            vfs.seek(handle, 0)
            first = yield from vfs.read(handle, 3)
            second = yield from vfs.read(handle, 3)
            return first, second

        assert run(sim, proc()) == (b"abc", b"def")
