"""Tests for the optional per-block content-MAC mode."""

import pytest

from repro.encfs import EncfsFS, Volume
from repro.errors import IntegrityError
from repro.sim import Simulation
from repro.storage import BlockDevice, BufferCache, LocalFileSystem


@pytest.fixture()
def rig():
    sim = Simulation()
    device = BlockDevice(sim, n_blocks=1 << 14)
    cache = BufferCache(sim, device, capacity_blocks=1 << 14)
    lower = LocalFileSystem(sim, cache)
    volume = Volume("pw")
    fs = EncfsFS(sim, lower, volume, verify_content=True)
    return sim, device, lower, volume, fs


def run(sim, gen):
    return sim.run_process(gen)


class TestContentMacs:
    def test_roundtrip(self, rig):
        sim, _, _, _, fs = rig

        def proc():
            yield from fs.create("/f")
            yield from fs.write("/f", 0, b"verified content")
            data = yield from fs.read("/f", 0, 100)
            return data

        assert run(sim, proc()) == b"verified content"

    def test_multiblock_roundtrip(self, rig):
        sim, _, _, _, fs = rig
        payload = bytes(i % 251 for i in range(3 * 4096 + 777))

        def proc():
            yield from fs.create("/f")
            yield from fs.write("/f", 0, payload)
            data = yield from fs.read_all("/f")
            return data

        assert run(sim, proc()) == payload

    def test_partial_overwrite_keeps_verification(self, rig):
        sim, _, _, _, fs = rig

        def proc():
            yield from fs.create("/f")
            yield from fs.write("/f", 0, b"a" * 10000)
            yield from fs.write("/f", 5000, b"PATCH")
            data = yield from fs.read_all("/f")
            return data

        data = run(sim, proc())
        assert data[5000:5005] == b"PATCH"
        assert len(data) == 10000

    def test_reads_at_odd_offsets(self, rig):
        sim, _, _, _, fs = rig
        payload = bytes(range(256)) * 64  # 16 KiB

        def proc():
            yield from fs.create("/f")
            yield from fs.write("/f", 0, payload)
            piece = yield from fs.read("/f", 4000, 300)
            return piece

        assert run(sim, proc()) == payload[4000:4300]

    def test_ciphertext_bitflip_detected(self, rig):
        sim, _, lower, volume, fs = rig

        def proc():
            yield from fs.create("/f")
            yield from fs.write("/f", 0, b"tamper target data")
            # The thief flips one ciphertext bit on the lower layer.
            stored_path = volume.encrypt_path("/f")
            raw = yield from lower.read(stored_path, fs.HEADER_LEN, 4)
            flipped = bytes([raw[0] ^ 0x80]) + raw[1:]
            yield from lower.write(stored_path, fs.HEADER_LEN, flipped)
            yield from fs.read("/f", 0, 10)

        with pytest.raises(IntegrityError, match="MAC mismatch"):
            run(sim, proc())

    def test_without_macs_bitflip_is_silent(self):
        """The EncFS-default contrast: no MACs, garbage decrypts."""
        sim = Simulation()
        device = BlockDevice(sim, n_blocks=1 << 14)
        cache = BufferCache(sim, device, capacity_blocks=1 << 14)
        lower = LocalFileSystem(sim, cache)
        volume = Volume("pw")
        fs = EncfsFS(sim, lower, volume, verify_content=False)

        def proc():
            yield from fs.create("/f")
            yield from fs.write("/f", 0, b"tamper target data")
            stored_path = volume.encrypt_path("/f")
            raw = yield from lower.read(stored_path, fs.HEADER_LEN, 1)
            yield from lower.write(
                stored_path, fs.HEADER_LEN, bytes([raw[0] ^ 0x80])
            )
            data = yield from fs.read("/f", 0, 18)
            return data

        data = sim.run_process(proc())
        assert data != b"tamper target data"  # silently corrupted

    def test_truncate_retags(self, rig):
        sim, _, _, _, fs = rig

        def proc():
            yield from fs.create("/f")
            yield from fs.write("/f", 0, b"x" * 9000)
            yield from fs.truncate("/f", 5000)
            data = yield from fs.read_all("/f")
            return data

        assert run(sim, proc()) == b"x" * 5000

    def test_truncate_to_zero(self, rig):
        sim, _, _, _, fs = rig

        def proc():
            yield from fs.create("/f")
            yield from fs.write("/f", 0, b"x" * 5000)
            yield from fs.truncate("/f", 0)
            yield from fs.write("/f", 0, b"fresh")
            data = yield from fs.read_all("/f")
            return data

        assert run(sim, proc()) == b"fresh"

    def test_keypad_supports_macs_too(self):
        from repro.api import KeypadConfig, KeypadFS
        from repro.harness.experiment import build_keypad_rig

        rig = build_keypad_rig(
            config=KeypadConfig(texp=100.0, prefetch="none", ibe_enabled=False)
        )
        # Rebuild the FS layer with MACs on (same lower state).
        fs = KeypadFS(
            rig.sim, rig.lower, rig.volume, rig.services,
            config=rig.config, verify_content=True,
        )

        def proc():
            yield from fs.create("/f")
            yield from fs.write("/f", 0, b"keypad verified")
            data = yield from fs.read_all("/f")
            return data

        assert rig.sim.run_process(proc()) == b"keypad verified"

    def test_keypad_truncate_retags_the_tail_block(self):
        # Keypad truncates through the same path as EncFS, so the
        # shortened tail block is re-tagged and still verifies.
        from repro.api import KeypadConfig, KeypadFS
        from repro.harness.experiment import build_keypad_rig

        rig = build_keypad_rig(
            config=KeypadConfig(texp=100.0, prefetch="none", ibe_enabled=False)
        )
        fs = KeypadFS(
            rig.sim, rig.lower, rig.volume, rig.services,
            config=rig.config, verify_content=True,
        )

        def proc():
            yield from fs.create("/f")
            yield from fs.write("/f", 0, b"k" * 5000)
            yield from fs.truncate("/f", 4100)
            data = yield from fs.read("/f", 0, 4100)
            return data

        assert rig.sim.run_process(proc()) == b"k" * 4100
