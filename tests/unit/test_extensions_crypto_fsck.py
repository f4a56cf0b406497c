"""Tests for the raw-disk parser extension."""

import pytest

from repro.errors import FileNotFound, InvalidArgument
from repro.harness import build_encfs_rig, build_ext3_rig
from repro.storage.fsck import RawDiskFs, parse_raw_disk


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

    def test_raw_disk_fs_reads_the_image_and_refuses_the_rest(self):
        """The FS view over an image answers exists, read_all and
        get_xattr as a mounted file system would, and refuses writes."""
        rig = build_ext3_rig(n_blocks=1 << 14)

        def populate():
            yield from rig.fs.create("/f")
            yield from rig.fs.write("/f", 0, b"evidence")
            yield from rig.fs.set_xattr("/f", "user.tag", b"x")
            yield from rig.fs.sync()

        rig.run(populate())
        fs = RawDiskFs(parse_raw_disk(rig.device))

        def inspect():
            found = yield from fs.exists("/f")
            missing = yield from fs.exists("/g")
            data = yield from fs.read_all("/f")
            return found, missing, data

        assert rig.run(inspect()) == (True, False, b"evidence")
        with pytest.raises(FileNotFound, match="not serialized"):
            rig.run(fs.get_xattr("/f", "user.tag"))
        with pytest.raises(InvalidArgument):
            rig.run(fs.write("/f", 0, b"tamper"))

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
