"""Stateful property test: LocalFileSystem vs a dict-based model.

Hypothesis drives interleavings of create/write/read/rename/unlink/
truncate/mkdir/rmdir and extended attributes, and checks full
observable equivalence after each step, including directory listings —
a deeper exercise of the rename and allocation paths than the
stateless sequences in test_fs_properties.  The same machine also runs
on the ``memory`` and ``cas`` backends' file systems, whose truncate,
unlink, rename, rmdir and xattrs nothing else drives.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from hypothesis import strategies as st

from repro.errors import FileSystemError
from repro.sim import Simulation
from repro.storage import BlockDevice, BufferCache, LocalFileSystem
from repro.storage.backend import make_backend

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
        self.fs = self._make_fs()
        self.model_files: dict[str, bytes] = {}
        self.model_xattrs: dict[str, dict[str, bytes]] = {}
        self.model_dirs = {"/"}
        for d in DIRS:
            if d != "/":
                self.sim.run_process(self.fs.mkdir(d))
                self.model_dirs.add(d)

    # -- helpers ------------------------------------------------------------
    def _make_fs(self):
        device = BlockDevice(self.sim, n_blocks=1 << 13)
        cache = BufferCache(self.sim, device, capacity_blocks=64)
        return LocalFileSystem(self.sim, cache)

    def _run(self, gen):
        return self.sim.run_process(gen)

    def _both(self, model_fn, real_gen):
        model_exc = real_exc = None
        model_result = real_result = None
        try:
            model_result = model_fn()
        except FileSystemError as exc:
            model_exc = exc
        try:
            real_result = self._run(real_gen)
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

        self._both(model, self.fs.create(path))

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

        self._both(model, self.fs.write(path, offset, data))

    @rule(path=_paths(), offset=st.integers(min_value=0, max_value=9000),
          size=st.integers(min_value=1, max_value=1000))
    def read(self, path, offset, size):
        def model():
            if path not in self.model_files:
                raise FileSystemError(path)
            return self.model_files[path][offset:offset + size]

        model_result, real_result, exc = self._both(
            model, self.fs.read(path, offset, size)
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

        self._both(model, self.fs.truncate(path, size))

    @rule(path=_paths())
    def unlink(self, path):
        def model():
            if path not in self.model_files:
                raise FileSystemError(path)
            del self.model_files[path]
            del self.model_xattrs[path]

        self._both(model, self.fs.unlink(path))

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

        self._both(model, self.fs.rename(old, new))

    @rule(path=st.sampled_from(DIRS[1:]))
    def mkdir(self, path):
        def model():
            parent = path.rsplit("/", 1)[0] or "/"
            if parent not in self.model_dirs or path in self.model_dirs:
                raise FileSystemError(path)
            self.model_dirs.add(path)

        self._both(model, self.fs.mkdir(path))

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

        self._both(model, self.fs.rmdir(path))

    @rule(path=_paths(), name=st.sampled_from(XATTRS),
          value=st.binary(max_size=40))
    def set_xattr(self, path, name, value):
        def model():
            if path not in self.model_files:
                raise FileSystemError(path)
            self.model_xattrs[path][name] = value

        self._both(model, self.fs.set_xattr(path, name, value))

    @rule(path=_paths(), name=st.sampled_from(XATTRS))
    def get_xattr(self, path, name):
        def model():
            if name not in self.model_xattrs.get(path, {}):
                raise FileSystemError(path)
            return self.model_xattrs[path][name]

        model_result, real_result, exc = self._both(
            model, self.fs.get_xattr(path, name)
        )
        if exc is None:
            assert real_result == model_result

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
            actual = set(self._run(self.fs.readdir(directory)))
            assert actual == expected_files | expected_dirs, directory

    @invariant()
    def sizes_agree(self):
        for path, data in self.model_files.items():
            attr = self._run(self.fs.getattr(path))
            assert attr.size == len(data), path


class MemoryFsMachine(LocalFsMachine):
    def _make_fs(self):
        return make_backend("memory").create(self.sim).fs


class CasFsMachine(LocalFsMachine):
    def _make_fs(self):
        return make_backend("cas").create(self.sim).fs


_SETTINGS = settings(max_examples=25, stateful_step_count=25, deadline=None)
TestLocalFsStateful = LocalFsMachine.TestCase
TestLocalFsStateful.settings = _SETTINGS
TestMemoryFsStateful = MemoryFsMachine.TestCase
TestMemoryFsStateful.settings = _SETTINGS
TestCasFsStateful = CasFsMachine.TestCase
TestCasFsStateful.settings = _SETTINGS
