"""Integration tests: the full Keypad stack over simulated networks."""

from unittest import mock

import pytest

from repro.api import KeypadConfig, LAN, THREE_G
from repro.core import fs as fs_module, header as header_module
from repro.core import keycache as keycache_module
from repro.errors import (
    LockedFileError,
    NetworkUnavailableError,
    RevokedError,
)
from repro.harness import build_keypad_rig


def _rig(**kwargs):
    kwargs.setdefault("network", LAN)
    return build_keypad_rig(**kwargs)


class TestBasicOperation:
    def test_create_write_read(self):
        rig = _rig()

        def proc():
            yield from rig.fs.mkdir("/home")
            yield from rig.fs.create("/home/doc.txt")
            yield from rig.fs.write("/home/doc.txt", 0, b"sensitive content")
            data = yield from rig.fs.read("/home/doc.txt", 0, 100)
            return data

        assert rig.run(proc()) == b"sensitive content"

    def test_every_cold_access_is_logged(self):
        config = KeypadConfig(texp=100.0, prefetch="none", ibe_enabled=False)
        rig = _rig(config=config)

        def proc():
            yield from rig.fs.create("/f")
            yield from rig.fs.write("/f", 0, b"x")
            audit_id = yield from rig.fs.audit_id_of("/f")
            return audit_id

        audit_id = rig.run(proc())
        entries = [
            e for e in rig.key_service.access_log
            if e.fields.get("audit_id") == audit_id
        ]
        assert entries, "file creation must produce a key-service record"

    def test_cold_read_after_expiry_logs_fetch(self):
        config = KeypadConfig(texp=10.0, prefetch="none", ibe_enabled=False)
        rig = _rig(config=config)

        def proc():
            yield from rig.fs.create("/f")
            yield from rig.fs.write("/f", 0, b"x")
            yield rig.sim.timeout(60.0)  # key expired (unused)
            yield from rig.fs.read("/f", 0, 1)
            audit_id = yield from rig.fs.audit_id_of("/f")
            return audit_id

        audit_id = rig.run(proc())
        fetches = [
            e for e in rig.key_service.access_log
            if e.kind == "fetch" and e.fields.get("audit_id") == audit_id
        ]
        assert len(fetches) == 1

    def test_warm_cache_avoids_service(self):
        config = KeypadConfig(texp=100.0, prefetch="none", ibe_enabled=False)
        rig = _rig(config=config)

        def proc():
            yield from rig.fs.create("/f")
            yield from rig.fs.write("/f", 0, b"x" * 100)
            before = len(rig.key_service.access_log)
            for offset in range(0, 100, 10):
                yield from rig.fs.read("/f", offset, 10)
            after = len(rig.key_service.access_log)
            return after - before

        assert rig.run(proc()) == 0

    def test_metadata_path_reconstruction(self):
        config = KeypadConfig(ibe_enabled=False)
        rig = _rig(config=config)

        def proc():
            yield from rig.fs.mkdir("/home")
            yield from rig.fs.mkdir("/home/bob")
            yield from rig.fs.create("/home/bob/taxes.pdf")
            audit_id = yield from rig.fs.audit_id_of("/home/bob/taxes.pdf")
            return audit_id

        audit_id = rig.run(proc())
        assert rig.metadata_service.path_of(audit_id) == "/home/bob/taxes.pdf"

    def test_rename_updates_metadata(self):
        config = KeypadConfig(ibe_enabled=False)
        rig = _rig(config=config)

        def proc():
            yield from rig.fs.mkdir("/tmp")
            yield from rig.fs.mkdir("/home")
            yield from rig.fs.create("/tmp/irs_form.pdf")
            yield from rig.fs.write("/tmp/irs_form.pdf", 0, b"1040EZ")
            yield from rig.fs.rename("/tmp/irs_form.pdf", "/home/prepared_taxes_2011.pdf")
            data = yield from rig.fs.read_all("/home/prepared_taxes_2011.pdf")
            audit_id = yield from rig.fs.audit_id_of("/home/prepared_taxes_2011.pdf")
            return data, audit_id

        data, audit_id = rig.run(proc())
        assert data == b"1040EZ"
        assert rig.metadata_service.path_of(audit_id) == "/home/prepared_taxes_2011.pdf"
        history = rig.metadata_service.history_of(audit_id)
        assert len(history) == 2  # create + rename, append-only

    def test_directory_rename_updates_children_paths(self):
        config = KeypadConfig(ibe_enabled=False)
        rig = _rig(config=config)

        def proc():
            yield from rig.fs.mkdir("/projects")
            yield from rig.fs.mkdir("/projects/alpha")
            yield from rig.fs.create("/projects/alpha/plan.doc")
            audit_id = yield from rig.fs.audit_id_of("/projects/alpha/plan.doc")
            yield from rig.fs.rename("/projects/alpha", "/projects/omega")
            data_ok = yield from rig.fs.exists("/projects/omega/plan.doc")
            # The file is still accessible through the new path.
            yield from rig.fs.write("/projects/omega/plan.doc", 0, b"v2")
            return audit_id, data_ok

        audit_id, data_ok = rig.run(proc())
        assert data_ok
        assert rig.metadata_service.path_of(audit_id) == "/projects/omega/plan.doc"


class TestIbeFlow:
    def test_ibe_create_is_usable_immediately(self):
        config = KeypadConfig(ibe_enabled=True)
        rig = _rig(network=THREE_G, config=config)

        def proc():
            yield from rig.fs.create("/f")
            yield from rig.fs.write("/f", 0, b"written in the 1s window")
            data = yield from rig.fs.read_all("/f")
            return data

        assert rig.run(proc()) == b"written in the 1s window"

    def test_ibe_create_unlocks_in_background(self):
        config = KeypadConfig(ibe_enabled=True)
        rig = _rig(network=THREE_G, config=config)

        def proc():
            yield from rig.fs.create("/f")
            yield rig.sim.timeout(30.0)  # registration completes
            header = yield from rig.fs._header("/f")
            return header.locked

        assert rig.run(proc()) is False
        assert rig.fs.stats["ibe_locks"] == 1
        assert rig.fs.stats["ibe_unlocks"] == 1

    def test_ibe_rename_registers_correct_path(self):
        config = KeypadConfig(ibe_enabled=True)
        rig = _rig(network=THREE_G, config=config)

        def proc():
            yield from rig.fs.mkdir("/docs")
            yield from rig.fs.create("/f")
            yield rig.sim.timeout(10.0)
            yield from rig.fs.rename("/f", "/docs/renamed.txt")
            yield rig.sim.timeout(30.0)
            audit_id = yield from rig.fs.audit_id_of("/docs/renamed.txt")
            return audit_id

        audit_id = rig.run(proc())
        assert rig.metadata_service.path_of(audit_id) == "/docs/renamed.txt"

    def test_locked_file_unreadable_after_window_without_service(self):
        """Thief scenario: block metadata traffic right after a create;
        after the 1-second in-flight window the file must be locked."""
        config = KeypadConfig(ibe_enabled=True, registration_max_retries=3,
                              registration_retry_delay=1.0)
        rig = _rig(network=THREE_G, config=config)

        def proc():
            yield from rig.fs.create("/secret")
            yield from rig.fs.write("/secret", 0, b"top secret")
            # The thief severs connectivity before registration lands.
            rig.key_link.set_down()
            rig.metadata_link.set_down()
            yield rig.sim.timeout(30.0)  # in-flight window long gone
            yield from rig.fs.read("/secret", 0, 10)

        with pytest.raises((LockedFileError, NetworkUnavailableError)):
            rig.run(proc())

    @pytest.mark.parametrize("retry_delay, wait, expected", [
        # The registrations are over: the read's blocking unlock meets
        # the severed link, as for a file whose own registration gave up.
        (1.0, 100.0, NetworkUnavailableError),
        # The read waits on the file's pending registration, which ends
        # with the directory registration's error.
        (5.0, 2.0, LockedFileError),
    ])
    def test_directory_registration_give_up_ends_its_files_registrations(
            self, retry_delay, wait, expected):
        """With ibe_for_directories a file's IBE registration waits for
        its directory's ack; a directory registration that gives up
        fails that ack (it used to leave it pending forever, and the
        read deadlocked the simulation)."""
        config = KeypadConfig(ibe_enabled=True, ibe_for_directories=True,
                              registration_max_retries=2,
                              registration_retry_delay=retry_delay)
        rig = _rig(network=LAN, config=config)

        def proc():
            rig.sever_device_links()
            yield from rig.fs.mkdir("/home")
            yield from rig.fs.create("/home/a.txt")
            yield from rig.fs.write("/home/a.txt", 0, b"data")
            yield rig.sim.timeout(wait)
            yield from rig.fs.read("/home/a.txt", 0, 4)

        with pytest.raises(expected):
            rig.run(proc())
        assert not rig.fs._pending_unlocks

    def test_ibe_registration_retries_through_outage(self):
        config = KeypadConfig(ibe_enabled=True, registration_retry_delay=2.0)
        rig = _rig(network=THREE_G, config=config)

        def proc():
            rig.metadata_link.set_down()
            yield from rig.fs.create("/f")
            yield rig.sim.timeout(20.0)
            header1 = rig.fs._header_cache.get("/f")
            rig.metadata_link.set_up()
            rig.key_link.set_up() if not rig.key_link.available else None
            yield rig.sim.timeout(30.0)
            header2 = rig.fs._header_cache.get("/f")
            return header1.locked, header2.locked

        locked_during, locked_after = rig.run(proc())
        assert locked_during is True
        assert locked_after is False

    def test_crash_recovery_unlock_via_real_ibe(self):
        """After losing all client memory, a locked file is recovered
        through a real IBE extract+decrypt round with the service."""
        config = KeypadConfig(ibe_enabled=True, registration_max_retries=2,
                              registration_retry_delay=1.0)
        rig = _rig(network=LAN, config=config)

        def proc():
            # Create while disconnected so the file stays locked.
            rig.metadata_link.set_down()
            rig.key_link.set_down()
            yield from rig.fs.create("/f")
            yield from rig.fs.write("/f", 0, b"pre-crash data")
            yield rig.sim.timeout(60.0)  # registration gave up
            # Crash: all volatile state gone.
            rig.fs.key_cache.evict_all()
            rig.fs._header_cache.clear()
            rig.fs._pending_unlocks.clear()
            rig.metadata_link.set_up()
            rig.key_link.set_up()
            # But the remote key never reached the service -> the file
            # is permanently unreadable (and unreadable == not exposed).
            try:
                yield from rig.fs.read("/f", 0, 5)
                return "readable"
            except Exception as exc:
                return type(exc).__name__

        result = rig.run(proc())
        assert result in ("RpcError", "LockedFileError")

    def test_crash_recovery_after_key_upload(self):
        """If key.put landed but meta registration didn't, recovery
        works and forces correct metadata to be logged."""
        config = KeypadConfig(ibe_enabled=True, registration_max_retries=2,
                              registration_retry_delay=1.0)
        rig = _rig(network=LAN, config=config)

        def proc():
            yield from rig.fs.create("/f")  # key.put succeeds...
            yield from rig.fs.write("/f", 0, b"data")
            # ...but sever metadata before the register lands.
            rig.metadata_link.set_down()
            yield rig.sim.timeout(0.0005)

            yield rig.sim.timeout(60.0)
            rig.fs.key_cache.evict_all()
            rig.fs._header_cache.clear()
            rig.fs._pending_unlocks.clear()
            rig.metadata_link.set_up()
            data = yield from rig.fs.read("/f", 0, 4)
            audit_id = yield from rig.fs.audit_id_of("/f")
            return data, audit_id

        data, audit_id = rig.run(proc())
        assert data == b"data"
        # Recovery forced a correct-path registration.
        assert rig.metadata_service.path_of(audit_id) == "/f"
        assert rig.fs.stats["blocking_unlocks"] >= 1


class TestPartialCoverage:
    def test_unprotected_files_skip_services(self):
        config = KeypadConfig(
            ibe_enabled=False, protected_prefixes=("/home", "/tmp")
        )
        rig = _rig(config=config)

        def proc():
            yield from rig.fs.mkdir("/usr")
            yield from rig.fs.create("/usr/libfoo.so")
            yield from rig.fs.write("/usr/libfoo.so", 0, b"ELF...")
            data = yield from rig.fs.read_all("/usr/libfoo.so")
            return data, len(rig.key_service.access_log)

        data, log_len = rig.run(proc())
        assert data == b"ELF..."
        assert log_len == 0  # no audit traffic for unprotected files

    def test_protected_files_tracked(self):
        config = KeypadConfig(
            ibe_enabled=False, protected_prefixes=("/home",)
        )
        rig = _rig(config=config)

        def proc():
            yield from rig.fs.mkdir("/home")
            yield from rig.fs.create("/home/medical.txt")
            return len(rig.key_service.access_log)

        assert rig.run(proc()) > 0

    def test_unprotected_content_still_encrypted(self):
        config = KeypadConfig(protected_prefixes=("/home",), ibe_enabled=False)
        rig = _rig(config=config)
        secret = b"locally encrypted but unaudited"

        def proc():
            yield from rig.fs.mkdir("/var")
            yield from rig.fs.create("/var/cache.bin")
            yield from rig.fs.write("/var/cache.bin", 0, secret)
            yield from rig.fs.lower.cache.sync()
            return None

        rig.run(proc())
        raw = b"".join(
            rig.device.peek_raw(b) for b in rig.device.blocks_in_use()
        )
        assert secret not in raw


class TestRemoteControl:
    def test_revoked_device_cannot_fetch(self):
        config = KeypadConfig(texp=5.0, prefetch="none", ibe_enabled=False)
        rig = _rig(config=config)

        def proc():
            yield from rig.fs.create("/f")
            yield from rig.fs.write("/f", 0, b"secret")
            yield rig.sim.timeout(30.0)  # cache expired
            rig.revoke()
            yield from rig.fs.read("/f", 0, 6)

        with pytest.raises(RevokedError):
            rig.run(proc())

    def test_revocation_logged(self):
        rig = _rig(config=KeypadConfig(ibe_enabled=False))
        rig.revoke()
        assert any(e.kind == "revoke" for e in rig.key_service.access_log)


class TestDisconnection:
    def test_disconnected_access_fails_without_phone(self):
        config = KeypadConfig(texp=5.0, prefetch="none", ibe_enabled=False)
        rig = _rig(config=config)

        def proc():
            yield from rig.fs.create("/f")
            yield from rig.fs.write("/f", 0, b"data")
            yield rig.sim.timeout(30.0)
            rig.key_link.set_down()
            yield from rig.fs.read("/f", 0, 4)

        with pytest.raises(NetworkUnavailableError):
            rig.run(proc())

    def test_hibernate_evicts_and_notifies(self):
        config = KeypadConfig(texp=1000.0, prefetch="none", ibe_enabled=False)
        rig = _rig(config=config)

        def proc():
            yield from rig.fs.create("/f")
            yield from rig.fs.write("/f", 0, b"data")
            assert len(rig.fs.key_cache) == 1
            yield from rig.fs.hibernate()
            return len(rig.fs.key_cache.snapshot())

        assert rig.run(proc()) == 0
        assert any(e.kind == "evict" for e in rig.key_service.access_log)


class TestPrefetching:
    def _populate(self, rig, n=8):
        def proc():
            yield from rig.fs.mkdir("/album")
            for i in range(n):
                yield from rig.fs.create(f"/album/photo{i:02d}.jpg")
                yield from rig.fs.write(f"/album/photo{i:02d}.jpg", 0, b"JPEG" * 16)
            return None

        rig.run(proc())

    def test_directory_prefetch_reduces_blocking_fetches(self):
        config = KeypadConfig(texp=100.0, prefetch="dir:3", ibe_enabled=False)
        rig = _rig(config=config)
        self._populate(rig)

        def scan():
            yield rig.sim.timeout(500.0)  # all keys expired
            for i in range(8):
                yield from rig.fs.read(f"/album/photo{i:02d}.jpg", 0, 4)
            return rig.fs.stats["blocking_key_fetches"]

        blocking_after = rig.run(scan())
        # Only the first 3 misses block; the rest are served by the
        # prefetched batch.
        assert blocking_after <= rig.fs.stats["prefetched_keys"] + 3
        assert rig.fs.stats["prefetch_batches"] >= 1

    def test_prefetched_keys_open_on_first_read(self):
        """A prefetched K_D is opened by the read that needs it, once;
        the prefetched keys nobody reads are never opened."""
        config = KeypadConfig(texp=100.0, prefetch="dir:3", ibe_enabled=False)
        rig = _rig(config=config)
        self._populate(rig, n=12)
        unwraps = [0]
        real = header_module.unwrap_data_key

        def counting(*args, **kwargs):
            unwraps[0] += 1
            return real(*args, **kwargs)

        def scan():
            yield rig.sim.timeout(500.0)  # all keys expired
            for _ in range(2):  # the second pass hits opened keys
                for i in range(8):
                    yield from rig.fs.read(f"/album/photo{i:02d}.jpg", 0, 4)
            return None

        with mock.patch.object(fs_module, "unwrap_data_key", counting), \
                mock.patch.object(keycache_module, "unwrap_data_key", counting):
            rig.run(scan())
        blocking = rig.fs.stats["blocking_key_fetches"]
        prefetched_read = 8 - blocking
        assert 0 < prefetched_read < rig.fs.stats["prefetched_keys"]
        assert unwraps[0] == blocking + prefetched_read

    def test_prefetch_creates_log_entries_false_positives(self):
        config = KeypadConfig(texp=100.0, prefetch="dir:1", ibe_enabled=False)
        rig = _rig(config=config)
        self._populate(rig, n=5)

        def scan():
            yield rig.sim.timeout(500.0)
            yield from rig.fs.read("/album/photo00.jpg", 0, 4)
            return None

        rig.run(scan())
        prefetch_entries = [
            e for e in rig.key_service.access_log if e.kind == "prefetch"
        ]
        assert len(prefetch_entries) == 4  # the 4 untouched siblings

    def test_no_prefetch_no_false_positives(self):
        config = KeypadConfig(texp=100.0, prefetch="none", ibe_enabled=False)
        rig = _rig(config=config)
        self._populate(rig, n=5)

        def scan():
            yield rig.sim.timeout(500.0)
            yield from rig.fs.read("/album/photo00.jpg", 0, 4)
            return None

        rig.run(scan())
        assert not any(e.kind == "prefetch" for e in rig.key_service.access_log)


class TestPairedDevice:
    def test_phone_serves_disconnected_reads(self):
        config = KeypadConfig(texp=5.0, prefetch="none", ibe_enabled=False)
        rig = _rig(config=config, with_phone=True)
        rig.attach_phone()

        def proc():
            yield from rig.fs.create("/f")
            yield from rig.fs.write("/f", 0, b"mobile data")
            yield rig.sim.timeout(30.0)  # laptop cache expired
            # Warm the phone hoard with one connected read.
            yield from rig.fs.read("/f", 0, 1)
            yield rig.sim.timeout(30.0)
            # Now fully disconnected from the services...
            rig.phone_key_uplink.set_down()
            rig.phone_metadata_uplink.set_down()
            data = yield from rig.fs.read("/f", 0, 11)
            return data

        assert rig.run(proc()) == b"mobile data"
        assert rig.phone.stats["hoard_hits"] >= 1

    def test_phone_uploads_deferred_logs(self):
        config = KeypadConfig(texp=5.0, prefetch="none", ibe_enabled=False)
        rig = _rig(config=config, with_phone=True)
        rig.attach_phone()

        def proc():
            yield from rig.fs.create("/f")
            yield from rig.fs.write("/f", 0, b"x")
            yield rig.sim.timeout(30.0)
            yield from rig.fs.read("/f", 0, 1)  # hoard warm-up
            yield rig.sim.timeout(30.0)
            rig.phone_key_uplink.set_down()
            yield from rig.fs.read("/f", 0, 1)  # disconnected, hoard hit
            disconnected_time = rig.sim.now
            yield rig.sim.timeout(100.0)
            rig.phone_key_uplink.set_up()
            yield rig.sim.timeout(60.0)  # flusher uploads
            return disconnected_time

        t_disc = rig.run(proc())
        uploaded = [
            e for e in rig.key_service.access_log
            if e.kind.startswith("paired-") and e.device_id == "phone-1"
        ]
        assert uploaded, "phone must upload its local access log"
        assert any(abs(e.timestamp - t_disc) < 1.0 for e in uploaded)
        assert rig.phone.pending_upload_count == 0

    def test_phone_speeds_up_3g(self):
        """Paired phone over Bluetooth beats direct 3G for cold reads."""
        config = KeypadConfig(texp=100.0, prefetch="none", ibe_enabled=False)

        def cold_read_time(with_phone):
            rig = _rig(network=THREE_G, config=config, with_phone=with_phone)
            if with_phone:
                rig.attach_phone()

            def proc():
                yield from rig.fs.mkdir("/d")
                for i in range(6):
                    yield from rig.fs.create(f"/d/f{i}")
                    yield from rig.fs.write(f"/d/f{i}", 0, b"x")
                yield rig.sim.timeout(600.0)  # expire everything
                t0 = rig.sim.now
                for i in range(6):
                    yield from rig.fs.read(f"/d/f{i}", 0, 1)
                return rig.sim.now - t0

            return rig.run(proc())

        direct = cold_read_time(False)
        paired = cold_read_time(True)
        assert paired < direct
