"""Property-based tests: file-system layers against a model FS.

Random operation sequences are applied both to a trivial in-memory
model and to the real stack (localfs alone, EncFS over it, Keypad over
it); observable results must agree, and for the encrypted layers the
device must never contain plaintext content.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import KeypadConfig, LAN
from repro.errors import FileSystemError
from repro.harness import build_encfs_rig, build_ext3_rig, build_keypad_rig

# ---------------------------------------------------------------------------
# A tiny model file system (dict of path -> bytes).
# ---------------------------------------------------------------------------


@dataclass
class ModelFs:
    files: dict[str, bytearray] = field(default_factory=dict)
    dirs: set = field(default_factory=lambda: {"/"})

    def parent_ok(self, path: str) -> bool:
        parent = path.rsplit("/", 1)[0] or "/"
        return parent in self.dirs

    def create(self, path):
        if not self.parent_ok(path) or path in self.files or path in self.dirs:
            raise FileSystemError(path)
        self.files[path] = bytearray()

    def mkdir(self, path):
        if not self.parent_ok(path) or path in self.files or path in self.dirs:
            raise FileSystemError(path)
        self.dirs.add(path)

    def write(self, path, offset, data):
        if path not in self.files:
            raise FileSystemError(path)
        buf = self.files[path]
        if len(buf) < offset:
            buf.extend(bytes(offset - len(buf)))
        buf[offset:offset + len(data)] = data

    def read(self, path, offset, size):
        if path not in self.files:
            raise FileSystemError(path)
        return bytes(self.files[path][offset:offset + size])

    def unlink(self, path):
        if path not in self.files:
            raise FileSystemError(path)
        del self.files[path]

    def rename(self, old, new):
        if old not in self.files or not self.parent_ok(new):
            raise FileSystemError(old)
        if new in self.dirs:
            raise FileSystemError(new)
        data = self.files.pop(old)
        self.files[new] = data


# Operation strategy: ops reference a small pool of names so that
# collisions (create-over-existing, rename chains) actually happen.
_NAMES = ["a", "b", "c", "d"]
_DIRS = ["/", "/d1", "/d2"]


def _paths():
    return st.tuples(st.sampled_from(_DIRS), st.sampled_from(_NAMES)).map(
        lambda t: (t[0].rstrip("/") + "/" + t[1])
    )


_OPS = st.one_of(
    st.tuples(st.just("create"), _paths()),
    st.tuples(st.just("write"), _paths(),
              st.integers(min_value=0, max_value=5000),
              st.binary(min_size=1, max_size=300)),
    st.tuples(st.just("read"), _paths(),
              st.integers(min_value=0, max_value=5000),
              st.integers(min_value=1, max_value=600)),
    st.tuples(st.just("unlink"), _paths()),
    st.tuples(st.just("rename"), _paths(), _paths()),
)


def _apply(model, real_apply, ops):
    """Run ops against model and real FS; compare outcome classes."""
    for op in ops:
        kind = op[0]
        model_exc = real_exc = None
        model_result = real_result = None
        try:
            if kind == "create":
                model.create(op[1])
            elif kind == "write":
                model.write(op[1], op[2], op[3])
            elif kind == "read":
                model_result = model.read(op[1], op[2], op[3])
            elif kind == "unlink":
                model.unlink(op[1])
            elif kind == "rename":
                model.rename(op[1], op[2])
        except FileSystemError as exc:
            model_exc = exc
        try:
            real_result = real_apply(op)
        except FileSystemError as exc:
            real_exc = exc
        assert (model_exc is None) == (real_exc is None), (op, model_exc, real_exc)
        if kind == "read" and model_exc is None:
            assert real_result == model_result, op


def _real_apply_factory(rig):
    def apply(op):
        kind = op[0]
        if kind == "create":
            return rig.run(rig.fs.create(op[1]))
        if kind == "write":
            return rig.run(rig.fs.write(op[1], op[2], op[3]))
        if kind == "read":
            return rig.run(rig.fs.read(op[1], op[2], op[3]))
        if kind == "unlink":
            return rig.run(rig.fs.unlink(op[1]))
        if kind == "rename":
            return rig.run(rig.fs.rename(op[1], op[2]))
        raise AssertionError(kind)

    return apply


def _setup_dirs(rig):
    for d in _DIRS:
        if d != "/":
            rig.run(rig.fs.mkdir(d))


class TestFsEquivalence:
    @given(ops=st.lists(_OPS, max_size=25))
    @settings(max_examples=40, deadline=None)
    def test_localfs_matches_model(self, ops):
        rig = build_ext3_rig(n_blocks=1 << 14)
        _setup_dirs(rig)
        model = ModelFs()
        model.dirs |= set(_DIRS)
        _apply(model, _real_apply_factory(rig), ops)

    @given(ops=st.lists(_OPS, max_size=20))
    @settings(max_examples=25, deadline=None)
    def test_encfs_matches_model(self, ops):
        rig = build_encfs_rig(n_blocks=1 << 14)
        _setup_dirs(rig)
        model = ModelFs()
        model.dirs |= set(_DIRS)
        _apply(model, _real_apply_factory(rig), ops)

    @given(ops=st.lists(_OPS, max_size=15))
    @settings(max_examples=15, deadline=None)
    def test_keypad_matches_model(self, ops):
        config = KeypadConfig(texp=1000.0, prefetch="none", ibe_enabled=False)
        rig = build_keypad_rig(network=LAN, config=config, n_blocks=1 << 14)
        _setup_dirs(rig)
        model = ModelFs()
        model.dirs |= set(_DIRS)
        _apply(model, _real_apply_factory(rig), ops)

    @given(ops=st.lists(_OPS, max_size=15))
    @settings(max_examples=10, deadline=None)
    def test_keypad_with_ibe_matches_model(self, ops):
        config = KeypadConfig(texp=1000.0, prefetch="none", ibe_enabled=True)
        rig = build_keypad_rig(network=LAN, config=config, n_blocks=1 << 14)
        _setup_dirs(rig)
        model = ModelFs()
        model.dirs |= set(_DIRS)
        _apply(model, _real_apply_factory(rig), ops)


class TestCiphertextProperties:
    @given(data=st.binary(min_size=16, max_size=2000))
    @settings(max_examples=20, deadline=None)
    def test_plaintext_never_on_disk_encfs(self, data):
        rig = build_encfs_rig(n_blocks=1 << 14)

        def proc():
            yield from rig.fs.create("/f")
            yield from rig.fs.write("/f", 0, data)
            yield from rig.lower.cache.sync()

        rig.run(proc())
        raw = b"".join(rig.device.peek_raw(b) for b in rig.device.blocks_in_use())
        # No 16-byte window of the plaintext may appear on the device.
        for i in range(0, max(1, len(data) - 16), 16):
            window = data[i:i + 16]
            if window != bytes(len(window)):  # skip all-zero windows
                assert window not in raw

    @given(data=st.binary(min_size=16, max_size=1000))
    @settings(max_examples=12, deadline=None)
    def test_plaintext_never_on_disk_keypad(self, data):
        config = KeypadConfig(texp=1000.0, prefetch="none", ibe_enabled=False)
        rig = build_keypad_rig(network=LAN, config=config, n_blocks=1 << 14)

        def proc():
            yield from rig.fs.create("/f")
            yield from rig.fs.write("/f", 0, data)
            yield from rig.lower.cache.sync()

        rig.run(proc())
        raw = b"".join(rig.device.peek_raw(b) for b in rig.device.blocks_in_use())
        for i in range(0, max(1, len(data) - 16), 16):
            window = data[i:i + 16]
            if window != bytes(len(window)):
                assert window not in raw
