"""Unit tests for the paired-phone daemon (§3.5)."""

import pytest

from repro.core import KeypadConfig
from repro.crypto.aead import StreamHmacAead
from repro.errors import ServiceUnavailableError
from repro.harness import build_keypad_rig
from repro.net import LAN


def _rig():
    config = KeypadConfig(texp=5.0, prefetch="none", ibe_enabled=False)
    rig = build_keypad_rig(network=LAN, config=config, with_phone=True)
    rig.attach_phone()
    return rig


def _make_files(rig, n=3):
    ids = []

    def proc():
        yield from rig.fs.mkdir("/d")
        for i in range(n):
            yield from rig.fs.create(f"/d/f{i}")
            yield from rig.fs.write(f"/d/f{i}", 0, b"x")
            audit_id = yield from rig.fs.audit_id_of(f"/d/f{i}")
            ids.append(audit_id)
        yield rig.sim.timeout(30.0)  # laptop cache expires

    rig.run(proc())
    return ids


class TestPhoneHoard:
    def test_hoard_miss_populates_from_service(self):
        rig = _rig()
        _make_files(rig)
        rig.phone._hoard.clear()  # discard entries from setup refreshes
        misses_before = rig.phone.stats["hoard_misses"]

        def read():
            data = yield from rig.fs.read("/d/f0", 0, 1)
            return data

        assert rig.run(read()) == b"x"
        assert rig.phone.stats["hoard_misses"] == misses_before + 1
        assert len(rig.phone.hoarded_ids()) >= 1

    def test_related_hint_prefills_hoard(self):
        rig = _rig()
        ids = _make_files(rig, n=4)

        def warm_then_read():
            # First read carries sibling hints (from the header cache).
            yield from rig.fs.read("/d/f0", 0, 1)

        rig.run(warm_then_read())
        # The phone hoarded the hinted siblings too.
        assert len(rig.phone.hoarded_ids()) == 4

    def test_hoard_expires_when_connected(self):
        rig = _rig()
        rig.phone.hoard_texp = 10.0
        _make_files(rig)

        def proc():
            yield from rig.fs.read("/d/f0", 0, 1)
            yield rig.sim.timeout(60.0)  # hoard entries stale

        rig.run(proc())
        assert rig.phone.hoarded_ids() == set()

    def test_hoard_persists_while_disconnected(self):
        rig = _rig()
        rig.phone.hoard_texp = 10.0
        _make_files(rig)

        def warm():
            yield from rig.fs.read("/d/f0", 0, 1)

        rig.run(warm())
        rig.phone_key_uplink.set_down()

        def idle():
            yield rig.sim.timeout(3600.0)  # way past the hoard TTL

        rig.run(idle())
        assert len(rig.phone.hoarded_ids()) >= 1  # hoarding survives

    def test_disconnected_miss_fails_cleanly(self):
        rig = _rig()
        _make_files(rig)
        rig.phone._hoard.clear()  # nothing hoarded at all
        rig.phone_key_uplink.set_down()

        def read():
            yield from rig.fs.read("/d/f1", 0, 1)

        with pytest.raises(ServiceUnavailableError):
            rig.run(read())


class TestDeferredMetadata:
    def test_deferred_dir_and_file_registrations_upload(self):
        rig = _rig()

        def proc():
            # Fully disconnected phone: everything defers.
            rig.phone_metadata_uplink.set_down()
            rig.phone_key_uplink.set_down()
            yield from rig.fs.mkdir("/offline")
            yield from rig.fs.create("/offline/doc")
            audit_id = yield from rig.fs.audit_id_of("/offline/doc")
            assert rig.phone.stats["deferred_meta"] >= 2
            # Reconnect: the flusher drains everything.
            rig.phone_metadata_uplink.set_up()
            rig.phone_key_uplink.set_up()
            yield rig.sim.timeout(60.0)
            return audit_id

        audit_id = rig.run(proc())
        assert rig.phone.pending_upload_count == 0
        assert rig.metadata_service.path_of(audit_id) == "/offline/doc"

    def test_deferred_key_put_uploads(self):
        config = KeypadConfig(texp=5.0, prefetch="none", ibe_enabled=True,
                              registration_retry_delay=2.0)
        rig = build_keypad_rig(network=LAN, config=config, with_phone=True)
        rig.attach_phone()

        def proc():
            rig.phone_key_uplink.set_down()
            rig.phone_metadata_uplink.set_down()
            yield from rig.fs.create("/f")  # IBE create, key.put deferred
            audit_id = yield from rig.fs.audit_id_of("/f")
            rig.phone_key_uplink.set_up()
            rig.phone_metadata_uplink.set_up()
            yield rig.sim.timeout(60.0)
            return audit_id

        audit_id = rig.run(proc())
        # The client-generated remote key reached the service.
        assert audit_id in rig.key_service.known_audit_ids()


class TestTransportRatchet:
    def test_old_session_key_cannot_decrypt_new_traffic(self):
        """§6: rotating the channel key every Texp means an extracted
        key is useless against past (and future) intercepts."""
        rig = build_keypad_rig(network=LAN)
        channel = rig.services.key_channel
        old_key = channel._session_key

        def age():
            yield rig.sim.timeout(250.0)  # two+ rekey intervals

        rig.run(age())
        channel._maybe_ratchet()
        assert channel._session_key != old_key
        # A message sealed under the current key fails under the old one.
        sealed = StreamHmacAead(channel._session_key).seal(
            b"n" * 16, b"key material"
        )
        with pytest.raises(Exception):
            StreamHmacAead(old_key).open(b"n" * 16, sealed)
