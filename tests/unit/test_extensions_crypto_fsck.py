"""Tests for the extensions: FullIdent IBE and the raw-disk parser."""

import pytest

from repro.crypto.ibe import TOY, PrivateKeyGenerator
from repro.crypto.ibe.fullident import (
    FullIdentCiphertext,
    fullident_decrypt,
    make_fullident_public,
)
from repro.errors import CryptoError, FileNotFound
from repro.harness import build_encfs_rig, build_ext3_rig
from repro.storage.fsck import parse_raw_disk


@pytest.fixture(scope="module")
def pkg():
    return PrivateKeyGenerator(TOY, master_seed=b"fullident-tests")


class TestFullIdent:
    def _public(self, pkg):
        return make_fullident_public(pkg.params, pkg.public_point)

    def test_roundtrip(self, pkg):
        pub = self._public(pkg)
        ct = pub.encrypt_fullident(b"identity", b"the message")
        sk = pkg.extract(b"identity")
        assert fullident_decrypt(pkg.params, sk, ct) == b"the message"

    def test_wrong_key_rejected(self, pkg):
        pub = self._public(pkg)
        ct = pub.encrypt_fullident(b"identity-A", b"payload")
        with pytest.raises(CryptoError):
            fullident_decrypt(pkg.params, pkg.extract(b"identity-B"), ct)

    def test_mauled_w_rejected(self, pkg):
        """The CCA property BasicIdent lacks: flipping message bits is
        detected by the re-encryption check."""
        pub = self._public(pkg)
        ct = pub.encrypt_fullident(b"id", b"payload")
        mauled = FullIdentCiphertext(
            u_x=ct.u_x, u_y=ct.u_y, v=ct.v,
            w=bytes([ct.w[0] ^ 1]) + ct.w[1:],
        )
        with pytest.raises(CryptoError):
            fullident_decrypt(pkg.params, pkg.extract(b"id"), mauled)

    def test_mauled_v_rejected(self, pkg):
        pub = self._public(pkg)
        ct = pub.encrypt_fullident(b"id", b"payload")
        mauled = FullIdentCiphertext(
            u_x=ct.u_x, u_y=ct.u_y,
            v=bytes([ct.v[0] ^ 1]) + ct.v[1:], w=ct.w,
        )
        with pytest.raises(CryptoError):
            fullident_decrypt(pkg.params, pkg.extract(b"id"), mauled)

    def test_off_curve_u_rejected(self, pkg):
        pub = self._public(pkg)
        ct = pub.encrypt_fullident(b"id", b"payload")
        bogus = FullIdentCiphertext(
            u_x=ct.u_x + 1, u_y=ct.u_y, v=ct.v, w=ct.w
        )
        with pytest.raises(CryptoError):
            fullident_decrypt(pkg.params, pkg.extract(b"id"), bogus)

    @pytest.mark.parametrize("order", [3, 2])
    def test_small_order_u_refused_before_pairing(self, pkg, order):
        """U of order 3 or 2 pairs to 1 with every key; it is refused up
        front, not left to the re-encryption check."""
        pub = self._public(pkg)
        ct = pub.encrypt_fullident(b"id", b"payload")
        p = pkg.params.p
        u_x, u_y = (0, 1) if order == 3 else (p - 1, 0)
        forged = FullIdentCiphertext(u_x=u_x, u_y=u_y, v=ct.v, w=ct.w)
        with pytest.raises(CryptoError, match="order-q subgroup"):
            fullident_decrypt(pkg.params, pkg.extract(b"id"), forged)

    def test_randomized(self, pkg):
        pub = self._public(pkg)
        c1 = pub.encrypt_fullident(b"id", b"m")
        c2 = pub.encrypt_fullident(b"id", b"m")
        assert (c1.u_x, c1.v) != (c2.u_x, c2.v)

    def test_empty_message(self, pkg):
        pub = self._public(pkg)
        ct = pub.encrypt_fullident(b"id", b"")
        assert fullident_decrypt(pkg.params, pkg.extract(b"id"), ct) == b""


class TestRawDiskParser:
    def test_reconstructs_tree_and_content(self):
        rig = build_ext3_rig(n_blocks=1 << 14)

        def populate():
            yield from rig.fs.mkdir("/docs")
            yield from rig.fs.mkdir("/docs/sub")
            yield from rig.fs.create("/docs/a.txt")
            yield from rig.fs.write("/docs/a.txt", 0, b"hello raw disk")
            yield from rig.fs.create("/docs/sub/b.bin")
            yield from rig.fs.write("/docs/sub/b.bin", 0, b"\x01" * 9000)
            yield from rig.fs.sync()

        rig.run(populate())
        image = parse_raw_disk(rig.device)
        assert image.listdir("/") == ["docs"]
        assert image.listdir("/docs") == ["a.txt", "sub"]
        assert image.read_file("/docs/a.txt") == b"hello raw disk"
        assert image.read_file("/docs/sub/b.bin") == b"\x01" * 9000
        assert image.walk_files() == ["/docs/a.txt", "/docs/sub/b.bin"]

    def test_offsets(self):
        rig = build_ext3_rig(n_blocks=1 << 14)

        def populate():
            yield from rig.fs.create("/f")
            yield from rig.fs.write("/f", 0, b"0123456789")
            yield from rig.fs.sync()

        rig.run(populate())
        image = parse_raw_disk(rig.device)
        assert image.read_file("/f", offset=3, size=4) == b"3456"

    def test_unsynced_disk_rejected(self):
        rig = build_ext3_rig(n_blocks=1 << 14)
        with pytest.raises(FileNotFound):
            parse_raw_disk(rig.device)

    def test_works_from_snapshot(self):
        rig = build_ext3_rig(n_blocks=1 << 14)

        def populate():
            yield from rig.fs.create("/f")
            yield from rig.fs.write("/f", 0, b"snapshot me")
            yield from rig.fs.sync()

        rig.run(populate())
        snapshot = rig.device.snapshot()  # the thief's dd image
        image = parse_raw_disk(snapshot, block_size=4096)
        assert image.read_file("/f") == b"snapshot me"

    def test_encfs_disk_shows_only_ciphertext(self):
        """Parsing an EncFS-backed disk: tree structure is visible
        (encrypted names), content is ciphertext."""
        rig = build_encfs_rig(n_blocks=1 << 14)
        secret = b"attorney-client privileged"

        def populate():
            yield from rig.fs.mkdir("/legal")
            yield from rig.fs.create("/legal/brief.doc")
            yield from rig.fs.write("/legal/brief.doc", 0, secret)
            yield from rig.lower.sync()

        rig.run(populate())
        image = parse_raw_disk(rig.device)
        files = image.walk_files()
        assert len(files) == 1
        assert "legal" not in files[0]  # names are encrypted
        raw = image.read_file(files[0])
        assert secret not in raw  # content is ciphertext
        # But the legitimate volume key decrypts the name.
        stored_name = files[0].rsplit("/", 1)[1]
        assert rig.volume.decrypt_name(stored_name) == "brief.doc"
