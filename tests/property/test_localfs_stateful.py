"""Stateful property test: LocalFileSystem vs a dict-based model.

Hypothesis drives interleavings of create/write/read/rename/unlink/
truncate/mkdir/rmdir and extended attributes, and checks full
observable equivalence after each step, including directory listings —
a deeper exercise of the rename and allocation paths than the
stateless sequences in test_fs_properties.

Every operation also runs on a twin file system whose directory walk is
the read-and-parse oracle of ``tests/localfs_oracle.py``.  After each
one the two must agree on the result or error, the buffer cache's hits,
misses and LRU order, the device's reads and writes, and the simulated
clock: the decoded-directory cache saves host work and nothing else.
Its 64-block buffer cache forces evictions; two extra rules drop the
clean blocks and rewrite a directory's blocks behind the file system's
back.
"""

from __future__ import annotations

from types import MethodType
from unittest import mock

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from hypothesis import strategies as st

from repro.errors import FileSystemError
from repro.sim import Simulation
from repro.storage import BlockDevice, BufferCache, LocalFileSystem
from repro.storage.localfs import _pack_dir, _unpack_dir
from tests import localfs_oracle

NAMES = ["a", "b", "c"]
DIRS = ["/", "/d1", "/d1/sub"]
XATTRS = ["user.tag", "user.owner"]


def _paths():
    return st.tuples(st.sampled_from(DIRS), st.sampled_from(NAMES)).map(
        lambda t: (t[0].rstrip("/") + "/" + t[1])
    )


class LocalFsMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulation()
        self.fs = self._make_fs(self.sim)
        self.twin_sim = Simulation()
        self.twin = self._make_fs(self.twin_sim)
        self._oracle = [
            mock.patch.object(self.twin, name,
                              MethodType(getattr(localfs_oracle, fn), self.twin))
            for name, fn in (("_resolve", "resolve"), ("_load_dir", "load_dir"))
        ]
        for patch in self._oracle:
            patch.start()
        self.model_files: dict[str, bytes] = {}
        self.model_xattrs: dict[str, dict[str, bytes]] = {}
        self.model_dirs = {"/"}
        for d in DIRS:
            if d != "/":
                self._run("mkdir", d)
                self.model_dirs.add(d)

    def teardown(self):
        for patch in self._oracle:
            patch.stop()

    # -- helpers ------------------------------------------------------------
    @staticmethod
    def _make_fs(sim):
        device = BlockDevice(sim, n_blocks=1 << 13)
        cache = BufferCache(sim, device, capacity_blocks=64)
        return LocalFileSystem(sim, cache)

    def _twins(self):
        return ((self.sim, self.fs), (self.twin_sim, self.twin))

    def _run(self, op, *args):
        """Run ``op`` on both file systems; they must agree on its
        outcome and on every counter the directory cache could move."""
        outcomes, errors = [], []
        for sim, fs in self._twins():
            try:
                outcomes.append(("ok", sim.run_process(getattr(fs, op)(*args))))
            except FileSystemError as exc:
                outcomes.append((type(exc).__name__, str(exc)))
                errors.append(exc)
        self._assert_twins_agree()
        assert outcomes[0] == outcomes[1], (op, args, outcomes)
        if errors:
            raise errors[0]
        return outcomes[0][1]

    def _assert_twins_agree(self):
        (sim, fs), (twin_sim, twin) = self._twins()
        cache, twin_cache = fs.cache, twin.cache
        assert (cache.hits, cache.misses) == (twin_cache.hits, twin_cache.misses)
        assert list(cache._cache) == list(twin_cache._cache)
        assert (cache.device.reads, cache.device.writes) == (
            twin_cache.device.reads, twin_cache.device.writes)
        assert sim.now == twin_sim.now

    def _both(self, model_fn, op, *args):
        model_exc = real_exc = None
        model_result = real_result = None
        try:
            model_result = model_fn()
        except FileSystemError as exc:
            model_exc = exc
        try:
            real_result = self._run(op, *args)
        except FileSystemError as exc:
            real_exc = exc
        assert (model_exc is None) == (real_exc is None), (
            model_exc, real_exc
        )
        return model_result, real_result, model_exc

    # -- rules ----------------------------------------------------------------
    @rule(path=_paths())
    def create(self, path):
        def model():
            parent = path.rsplit("/", 1)[0] or "/"
            if parent not in self.model_dirs:
                raise FileSystemError(path)
            if path in self.model_files or path in self.model_dirs:
                raise FileSystemError(path)
            self.model_files[path] = b""
            self.model_xattrs[path] = {}

        self._both(model, "create", path)

    @rule(path=_paths(), offset=st.integers(min_value=0, max_value=9000),
          data=st.binary(min_size=1, max_size=500))
    def write(self, path, offset, data):
        def model():
            if path not in self.model_files:
                raise FileSystemError(path)
            buf = bytearray(self.model_files[path])
            if len(buf) < offset:
                buf.extend(bytes(offset - len(buf)))
            buf[offset:offset + len(data)] = data
            self.model_files[path] = bytes(buf)

        self._both(model, "write", path, offset, data)

    @rule(path=_paths(), offset=st.integers(min_value=0, max_value=9000),
          size=st.integers(min_value=1, max_value=1000))
    def read(self, path, offset, size):
        def model():
            if path not in self.model_files:
                raise FileSystemError(path)
            return self.model_files[path][offset:offset + size]

        model_result, real_result, exc = self._both(
            model, "read", path, offset, size
        )
        if exc is None:
            assert real_result == model_result

    @rule(path=_paths(), size=st.integers(min_value=0, max_value=9000))
    def truncate(self, path, size):
        def model():
            if path not in self.model_files:
                raise FileSystemError(path)
            data = self.model_files[path]
            if size <= len(data):
                self.model_files[path] = data[:size]
            else:
                self.model_files[path] = data + bytes(size - len(data))

        self._both(model, "truncate", path, size)

    @rule(path=_paths())
    def unlink(self, path):
        def model():
            if path not in self.model_files:
                raise FileSystemError(path)
            del self.model_files[path]
            del self.model_xattrs[path]

        self._both(model, "unlink", path)

    @rule(old=_paths(), new=_paths())
    def rename(self, old, new):
        def model():
            if old not in self.model_files:
                raise FileSystemError(old)
            parent = new.rsplit("/", 1)[0] or "/"
            if parent not in self.model_dirs or new in self.model_dirs:
                raise FileSystemError(new)
            data = self.model_files.pop(old)
            self.model_files[new] = data
            self.model_xattrs[new] = self.model_xattrs.pop(old)

        self._both(model, "rename", old, new)

    @rule(path=st.sampled_from(DIRS[1:]))
    def mkdir(self, path):
        def model():
            parent = path.rsplit("/", 1)[0] or "/"
            if parent not in self.model_dirs or path in self.model_dirs:
                raise FileSystemError(path)
            self.model_dirs.add(path)

        self._both(model, "mkdir", path)

    @rule(path=st.sampled_from(DIRS[1:]))
    def rmdir(self, path):
        def model():
            if path not in self.model_dirs:
                raise FileSystemError(path)
            inside = [p for p in (*self.model_files, *self.model_dirs)
                      if p.startswith(path + "/")]
            if inside:
                raise FileSystemError(path)
            self.model_dirs.remove(path)

        self._both(model, "rmdir", path)

    @rule(path=_paths(), name=st.sampled_from(XATTRS),
          value=st.binary(max_size=40))
    def set_xattr(self, path, name, value):
        def model():
            if path not in self.model_files:
                raise FileSystemError(path)
            self.model_xattrs[path][name] = value

        self._both(model, "set_xattr", path, name, value)

    @rule(path=_paths(), name=st.sampled_from(XATTRS))
    def get_xattr(self, path, name):
        def model():
            if name not in self.model_xattrs.get(path, {}):
                raise FileSystemError(path)
            return self.model_xattrs[path][name]

        model_result, real_result, exc = self._both(
            model, "get_xattr", path, name
        )
        if exc is None:
            assert real_result == model_result

    @rule()
    def drop_clean_blocks(self):
        for _, fs in self._twins():
            fs.cache.drop()
        self._assert_twins_agree()

    @rule(directory=st.sampled_from(DIRS), swap=st.booleans())
    def rewrite_dir_blocks(self, directory, swap):
        """Write a directory's blocks straight into the buffer cache,
        bypassing ``_store_dir``: the same entries as new bytes objects,
        or (``swap``) two files' inode numbers exchanged, which keeps
        the size and the block numbers and changes only the bytes."""
        if directory not in self.model_dirs:
            return
        files = sorted(
            p for p in self.model_files
            if (p.rsplit("/", 1)[0] or "/") == directory
        )
        swapped = swap and len(files) >= 2
        for sim, fs in self._twins():
            inode = fs._inodes[sim.run_process(fs.getattr(directory)).ino]
            raw = sim.run_process(fs._read_inode_data(inode, 0, inode.size))
            entries = _unpack_dir(raw)
            if swapped:
                a, b = (p.rsplit("/", 1)[1] for p in files[:2])
                entries[a], entries[b] = entries[b], entries[a]
            packed = _pack_dir(entries)
            assert len(packed) == inode.size
            for i, block_no in enumerate(inode.blocks):
                chunk = packed[i * fs.block_size:(i + 1) * fs.block_size]
                sim.run_process(fs.cache.write(block_no, chunk))
        self._assert_twins_agree()
        if swapped:
            a, b = files[:2]
            for model in (self.model_files, self.model_xattrs):
                model[a], model[b] = model[b], model[a]

    # -- invariants ---------------------------------------------------------------
    @invariant()
    def directory_listings_agree(self):
        for directory in sorted(self.model_dirs):
            expected_files = {
                p.rsplit("/", 1)[1]
                for p in self.model_files
                if (p.rsplit("/", 1)[0] or "/") == directory
            }
            expected_dirs = {
                d.rsplit("/", 1)[1]
                for d in self.model_dirs
                if d != "/" and (d.rsplit("/", 1)[0] or "/") == directory
            }
            actual = set(self._run("readdir", directory))
            assert actual == expected_files | expected_dirs, directory

    @invariant()
    def sizes_agree(self):
        for path, data in self.model_files.items():
            attr = self._run("getattr", path)
            assert attr.size == len(data), path


_SETTINGS = settings(max_examples=25, stateful_step_count=25, deadline=None)
TestLocalFsStateful = LocalFsMachine.TestCase
TestLocalFsStateful.settings = _SETTINGS
