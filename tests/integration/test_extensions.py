"""Tests for the beyond-prototype extensions:

* application-launch key-profile prefetching (§5.1.2 suggestion),
* asynchronous (IBE-mode) directory registration (§4 "should be
  possible to add"),
* xattr metadata tracking (§4 setfattr remark),
* raw-disk offline attack via the fsck parser (true custom tooling).
"""

import pytest

from repro.api import KeypadConfig, LAN, THREE_G
from repro.forensics import AuditTool
from repro.harness import build_keypad_rig
from repro.workloads import prepare_office_environment, task_by_name


class TestLaunchProfilePrefetch:
    def _rig(self):
        config = KeypadConfig(texp=100.0, prefetch="none", ibe_enabled=False)
        rig = build_keypad_rig(network=THREE_G, config=config)
        rig.run(prepare_office_environment(rig.fs))
        return rig

    def _cool(self, rig):
        def cool():
            yield rig.sim.timeout(500.0)

        rig.run(cool())
        rig.fs.key_cache.evict_all()

    def test_profiled_launch_is_faster(self):
        rig = self._rig()
        task = task_by_name("OpenOffice", "Launch")
        self._cool(rig)

        # First (cold, profiled) launch: record the working set.
        rig.fs.begin_launch_profile("openoffice")
        start = rig.sim.now
        rig.run(task.run(rig.fs, rig.sim))
        unprofiled_time = rig.sim.now - start
        profile = rig.fs.end_launch_profile()
        assert len(profile) == 45  # 3 dirs x 15 mapped files

        # Later launch: prefetch the profile, then launch.
        self._cool(rig)
        start = rig.sim.now

        def profiled_launch():
            fetched = yield from rig.fs.prefetch_launch_profile("openoffice")
            assert fetched == 45
            yield from task.run(rig.fs, rig.sim)

        rig.run(profiled_launch())
        profiled_time = rig.sim.now - start
        # One batched request replaces 45 sequential blocking fetches.
        assert profiled_time < unprofiled_time / 2

    def test_profile_prefetch_is_audited(self):
        rig = self._rig()
        task = task_by_name("OpenOffice", "Launch")
        rig.fs.begin_launch_profile("oo")
        rig.run(task.run(rig.fs, rig.sim))
        rig.fs.end_launch_profile()
        self._cool(rig)
        t_loss = rig.sim.now

        def prefetch():
            yield from rig.fs.prefetch_launch_profile("oo")

        rig.run(prefetch())
        report = AuditTool(rig.key_service, rig.metadata_service).report(
            t_loss=t_loss, texp=100.0
        )
        # Profile prefetches show up as compromised (conservative).
        assert len(report.compromised_ids) == 45

    def test_unknown_app_prefetches_nothing(self):
        rig = self._rig()

        def prefetch():
            fetched = yield from rig.fs.prefetch_launch_profile("emacs")
            return fetched

        assert rig.run(prefetch()) == 0

    def test_nested_recording_rejected(self):
        rig = self._rig()
        rig.fs.begin_launch_profile("a")
        with pytest.raises(ValueError):
            rig.fs.begin_launch_profile("b")
        rig.fs.end_launch_profile()
        with pytest.raises(ValueError):
            rig.fs.end_launch_profile()


class TestAsyncDirectoryRegistration:
    def test_mkdir_does_not_block_on_3g(self):
        blocking = KeypadConfig(ibe_enabled=True, ibe_for_directories=False)
        async_cfg = KeypadConfig(ibe_enabled=True, ibe_for_directories=True)

        def mkdir_time(config):
            rig = build_keypad_rig(network=THREE_G, config=config)

            def proc():
                t0 = rig.sim.now
                yield from rig.fs.mkdir("/projects")
                return rig.sim.now - t0

            return rig.run(proc())

        assert mkdir_time(async_cfg) < 0.05
        assert mkdir_time(blocking) > 0.29

    def test_file_unlock_waits_for_dir_ack(self):
        """A file created in a not-yet-registered directory must not
        unlock before the directory's metadata is durable."""
        config = KeypadConfig(ibe_enabled=True, ibe_for_directories=True,
                              registration_retry_delay=1.0)
        rig = build_keypad_rig(network=THREE_G, config=config)

        def proc():
            yield from rig.fs.mkdir("/newdir")
            yield from rig.fs.create("/newdir/file.txt")
            yield rig.sim.timeout(30.0)  # everything settles
            header = rig.fs._header_cache.get("/newdir/file.txt")
            return header.locked

        assert rig.run(proc()) is False
        # And the path resolves fully on the service side.
        def get_id():
            audit_id = yield from rig.fs.audit_id_of("/newdir/file.txt")
            return audit_id

        audit_id = rig.run(get_id())
        assert rig.metadata_service.path_of(audit_id) == "/newdir/file.txt"

    def test_path_never_partially_unknown(self):
        """Even mid-flight, the metadata service never records a file
        under an unknown directory (ordering guarantee)."""
        config = KeypadConfig(ibe_enabled=True, ibe_for_directories=True,
                              registration_retry_delay=0.5)
        rig = build_keypad_rig(network=THREE_G, config=config)

        def proc():
            yield from rig.fs.mkdir("/d")
            yield from rig.fs.create("/d/f")
            yield rig.sim.timeout(60.0)

        rig.run(proc())
        for entry in rig.metadata_service.metadata_log.entries(kind="file"):
            path = rig.metadata_service.path_of(entry.fields["audit_id"])
            assert "<unknown>" not in path


class TestXattrTracking:
    def test_xattr_registered_with_service(self):
        config = KeypadConfig(ibe_enabled=False, track_xattrs=True)
        rig = build_keypad_rig(network=LAN, config=config)

        def proc():
            yield from rig.fs.create("/f")
            yield from rig.fs.set_xattr("/f", "user.classification", b"secret")
            yield from rig.fs.set_xattr("/f", "user.classification", b"top-secret")
            audit_id = yield from rig.fs.audit_id_of("/f")
            return audit_id

        audit_id = rig.run(proc())
        assert rig.metadata_service.xattrs_of(audit_id) == {
            "user.classification": b"top-secret"
        }
        history = rig.metadata_service.metadata_log.entries(kind="xattr")
        assert len(history) == 2  # append-only

    def test_untracked_by_default(self):
        rig = build_keypad_rig(network=LAN, config=KeypadConfig(ibe_enabled=False))

        def proc():
            yield from rig.fs.create("/f")
            yield from rig.fs.set_xattr("/f", "user.x", b"v")
            audit_id = yield from rig.fs.audit_id_of("/f")
            return audit_id

        audit_id = rig.run(proc())
        assert rig.metadata_service.xattrs_of(audit_id) == {}

    def test_unprotected_files_not_registered(self):
        config = KeypadConfig(ibe_enabled=False, track_xattrs=True,
                              protected_prefixes=("/home",))
        rig = build_keypad_rig(network=LAN, config=config)

        def proc():
            yield from rig.fs.mkdir("/etc")
            yield from rig.fs.create("/etc/cfg")
            yield from rig.fs.set_xattr("/etc/cfg", "user.x", b"v")

        rig.run(proc())
        assert not rig.metadata_service.metadata_log.entries(kind="xattr")


class TestRawDiskAttack:
    def test_thief_parses_synced_disk_but_reads_nothing(self):
        from repro.storage.fsck import parse_raw_disk

        config = KeypadConfig(texp=5.0, prefetch="none", ibe_enabled=False)
        rig = build_keypad_rig(network=LAN, config=config)

        def proc():
            yield from rig.fs.mkdir("/home")
            yield from rig.fs.create("/home/secret.txt")
            yield from rig.fs.write("/home/secret.txt", 0, b"cleartext secret")
            yield from rig.lower.sync()
            yield rig.sim.timeout(60.0)

        rig.run(proc())
        # The thief dd's the drive and parses it with his own tools.
        image = parse_raw_disk(rig.device.snapshot(), block_size=4096)
        files = image.walk_files()
        assert len(files) == 1
        content = image.read_file(files[0])
        assert b"cleartext secret" not in content  # ciphertext only
        # Even the Keypad header yields nothing without the volume key.
        assert b"KPAD" in content  # header magic is plaintext by design
