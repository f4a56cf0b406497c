"""Unit tests for Keypad components: headers, cache, prefetch, services."""

import pytest

from repro.crypto.drbg import HmacDrbg
from repro.crypto.ibe import TOY, PrivateKeyGenerator, get_params
from repro.encfs import Volume
from repro.errors import CryptoError, IntegrityError, RevokedError, RpcError
from repro.api import Link, KeyService, MetadataService
from repro.net.rpc import RpcChannel
from repro.sim import Simulation
from repro.core.keycache import KeyCache
from repro.core.prefetch import (
    DirectoryPrefetch,
    NoPrefetch,
    RandomPrefetch,
    make_policy,
)
from repro.core.services import identity_string
from repro.core.header import (
    KEYPAD_HEADER_LEN,
    KeypadHeader,
    pack_header,
    parse_header,
    unwrap_data_key,
    wrap_data_key,
)
from repro.auditstore.log import AppendOnlyLog
from repro.core.services.metadataservice import parse_identity


class TestLogStore:
    def test_append_and_query(self):
        log = AppendOnlyLog()
        log.append(1.0, "dev", "fetch", audit_id=b"a")
        log.append(2.0, "dev", "fetch", audit_id=b"b")
        log.append(3.0, "other", "create", audit_id=b"c")
        assert len(log) == 3
        assert [e.fields["audit_id"] for e in log.entries(since=2.0)] == [b"b", b"c"]
        assert [e.fields["audit_id"] for e in log.entries(device_id="dev")] == [b"a", b"b"]
        assert [e.fields["audit_id"] for e in log.entries(kind="create")] == [b"c"]

    def test_chain_verifies(self):
        log = AppendOnlyLog()
        for i in range(10):
            log.append(float(i), "dev", "fetch", audit_id=bytes([i]))
        assert log.verify_chain()

    def test_tamper_detected(self):
        log = AppendOnlyLog()
        log.append(1.0, "dev", "fetch", audit_id=b"a")
        log.append(2.0, "dev", "fetch", audit_id=b"b")
        # A thief rewriting history in place breaks the chain.
        tampered = log._entries[0]
        object.__setattr__(tampered, "fields", {"audit_id": b"z"})
        assert not log.verify_chain()

    def test_entry_describe(self):
        log = AppendOnlyLog()
        entry = log.append(1.5, "laptop", "fetch", audit_id=b"\x01")
        text = entry.describe()
        assert "laptop" in text and "fetch" in text


class TestKeypadHeader:
    VOLUME = Volume("pw")

    def _drbg(self):
        return HmacDrbg(b"header-tests")

    def test_wrap_unwrap_roundtrip(self):
        drbg = self._drbg()
        kd = drbg.generate(32)
        kr = drbg.generate(32)
        blob = wrap_data_key(kd, kr, drbg)
        assert unwrap_data_key(blob, kr) == kd

    def test_unwrap_wrong_key_fails(self):
        drbg = self._drbg()
        blob = wrap_data_key(drbg.generate(32), b"k" * 32, drbg)
        with pytest.raises(IntegrityError):
            unwrap_data_key(blob, b"x" * 32)

    def test_normal_header_roundtrip(self):
        drbg = self._drbg()
        header = KeypadHeader(
            protected=True,
            audit_id=drbg.generate(24),
            wrapped_kd=wrap_data_key(drbg.generate(32), b"r" * 32, drbg),
        )
        raw = pack_header(header, self.VOLUME, drbg)
        assert len(raw) == KEYPAD_HEADER_LEN
        parsed = parse_header(raw, self.VOLUME)
        assert parsed == header

    def test_unprotected_header_roundtrip(self):
        drbg = self._drbg()
        header = KeypadHeader(protected=False, file_iv=drbg.generate(16))
        raw = pack_header(header, self.VOLUME, drbg)
        parsed = parse_header(raw, self.VOLUME)
        assert parsed == header
        assert not parsed.locked

    def test_locked_header_roundtrip(self):
        drbg = self._drbg()
        params = get_params(TOY)
        pkg = PrivateKeyGenerator(TOY)
        audit_id = drbg.generate(24)
        identity = identity_string("d-1", "taxes.pdf", audit_id)
        wrapped = wrap_data_key(drbg.generate(32), b"r" * 32, drbg)
        blob = pkg.public().encrypt(identity, wrapped)
        header = KeypadHeader(
            protected=True, audit_id=audit_id, ibe_blob=blob, identity=identity
        )
        raw = pack_header(header, self.VOLUME, drbg, params)
        parsed = parse_header(raw, self.VOLUME, params)
        assert parsed.locked
        assert parsed.identity == identity
        assert parsed.audit_id == audit_id
        assert parsed.ibe_blob == blob

    def test_header_wrong_volume_fails(self):
        drbg = self._drbg()
        header = KeypadHeader(protected=False, file_iv=drbg.generate(16))
        raw = pack_header(header, self.VOLUME, drbg)
        with pytest.raises(CryptoError):
            parse_header(raw, Volume("other"))

    def test_flag_tamper_detected(self):
        drbg = self._drbg()
        header = KeypadHeader(
            protected=True,
            audit_id=drbg.generate(24),
            wrapped_kd=wrap_data_key(drbg.generate(32), b"r" * 32, drbg),
        )
        raw = bytearray(pack_header(header, self.VOLUME, drbg))
        raw[4] ^= 0x01  # flip the protected flag
        with pytest.raises(CryptoError):
            parse_header(bytes(raw), self.VOLUME)

    def test_bad_magic(self):
        with pytest.raises(CryptoError):
            parse_header(b"\x00" * KEYPAD_HEADER_LEN, self.VOLUME)


class TestIdentityString:
    def test_roundtrip(self):
        audit_id = bytes(range(24))
        ident = identity_string("d-42", "prepared taxes 2011.pdf", audit_id)
        dir_id, name, parsed_id = parse_identity(ident)
        assert (dir_id, name, parsed_id) == ("d-42", "prepared taxes 2011.pdf", audit_id)

    def test_malformed_rejected(self):
        with pytest.raises(RpcError):
            parse_identity(b"no separators here")


class TestKeyCache:
    def test_hit_and_miss(self):
        sim = Simulation()
        cache = KeyCache(sim)
        cache.put(b"id1", b"r" * 32, b"d" * 32, texp=100.0)
        assert cache.get(b"id1").data_key == b"d" * 32
        assert cache.get(b"id2") is None
        assert cache.hits == 1 and cache.misses == 1

    def test_expiry_evicts_unused(self):
        sim = Simulation()
        cache = KeyCache(sim)
        cache.put(b"id1", b"r" * 32, b"d" * 32, texp=10.0)
        sim.run(until=11.0)
        assert cache.get(b"id1") is None
        assert cache.expirations == 1

    def test_used_entry_refreshes(self):
        sim = Simulation()
        calls = []

        def refresher(audit_id):
            calls.append((sim.now, audit_id))
            yield sim.timeout(0.1)
            return b"R" * 32

        cache = KeyCache(sim, refresh_fn=refresher)
        cache.put(b"id1", b"r" * 32, b"d" * 32, texp=10.0)
        cache.get(b"id1")  # mark used
        sim.run(until=15.0)
        assert calls and calls[0][1] == b"id1"
        entry = cache.get(b"id1")
        assert entry is not None
        assert entry.remote_key == b"R" * 32

    def test_refresh_failure_evicts(self):
        from repro.errors import NetworkUnavailableError

        sim = Simulation()

        def refresher(audit_id):
            yield sim.timeout(0.1)
            raise NetworkUnavailableError("offline")

        cache = KeyCache(sim, refresh_fn=refresher)
        cache.put(b"id1", b"r" * 32, b"d" * 32, texp=10.0)
        cache.get(b"id1")
        sim.run(until=15.0)
        assert cache.get(b"id1") is None

    def test_restrict_shortens_only(self):
        sim = Simulation()
        cache = KeyCache(sim)
        cache.put(b"id1", b"r" * 32, b"d" * 32, texp=100.0)
        cache.restrict(b"id1", 1.0)
        assert cache.peek(b"id1").expires_at == pytest.approx(1.0)
        cache.restrict(b"id1", 50.0)  # longer: no-op
        assert cache.peek(b"id1").expires_at == pytest.approx(1.0)

    def test_evict_all_erases(self):
        sim = Simulation()
        cache = KeyCache(sim)
        cache.put(b"id1", b"r" * 32, b"d" * 32, texp=100.0)
        entry = cache.peek(b"id1")
        count = cache.evict_all()
        assert count == 1
        assert entry.data_key == b"\x00" * 32  # securely erased
        assert cache.snapshot() == {}

    def test_snapshot_excludes_expired(self):
        sim = Simulation()
        cache = KeyCache(sim)
        cache.put(b"id1", b"r" * 32, b"d" * 32, texp=5.0)
        cache.put(b"id2", b"r" * 32, b"d" * 32, texp=50.0)
        sim.run(until=10.0)
        assert set(cache.snapshot()) == {b"id2"}

    def test_occupancy_average(self):
        sim = Simulation()
        cache = KeyCache(sim)
        cache.put(b"id1", b"r" * 32, b"d" * 32, texp=10.0)
        sim.run(until=20.0)
        # One key resident for 10 of 20 seconds → average 0.5.
        assert cache.occupancy.average(sim.now) == pytest.approx(0.5, abs=0.05)
        assert cache.occupancy.peak == 1


class TestPrefetchPolicies:
    def test_no_prefetch(self):
        policy = NoPrefetch()
        for _ in range(10):
            decision = policy.on_miss("/dir")
            assert not decision.whole_directory and decision.sample_count == 0

    def test_directory_prefetch_triggers_on_nth(self):
        policy = DirectoryPrefetch(miss_threshold=3)
        assert not policy.on_miss("/d").whole_directory
        assert not policy.on_miss("/d").whole_directory
        assert policy.on_miss("/d").whole_directory

    def test_directory_counters_independent(self):
        policy = DirectoryPrefetch(miss_threshold=2)
        policy.on_miss("/a")
        assert not policy.on_miss("/b").whole_directory
        assert policy.on_miss("/a").whole_directory

    def test_rearm_after_prefetch(self):
        policy = DirectoryPrefetch(miss_threshold=2)
        policy.on_miss("/d")
        assert policy.on_miss("/d").whole_directory
        policy.on_directory_prefetched("/d")
        assert not policy.on_miss("/d").whole_directory
        assert policy.on_miss("/d").whole_directory

    def test_random_prefetch(self):
        policy = RandomPrefetch(sample_count=4)
        assert policy.on_miss("/d").sample_count == 4

    def test_make_policy(self):
        assert isinstance(make_policy("none"), NoPrefetch)
        assert make_policy("dir:5").miss_threshold == 5
        assert make_policy("random:7").sample_count == 7
        assert make_policy("dir").miss_threshold == 3
        with pytest.raises(ValueError):
            make_policy("bogus")

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            DirectoryPrefetch(miss_threshold=0)
        with pytest.raises(ValueError):
            RandomPrefetch(sample_count=0)


def _service_rig(network_rtt=0.0):
    sim = Simulation()
    service = KeyService(sim, seed=b"test")
    link = Link(sim, rtt=network_rtt)
    secret = b"s" * 32
    service.enroll_device("laptop", secret)
    channel = RpcChannel(sim, link, service.server, "laptop", secret)
    return sim, service, channel


class TestKeyService:
    def test_create_then_fetch(self):
        sim, service, channel = _service_rig()
        audit_id = b"a" * 24

        def proc():
            created = yield from channel.call("key.create", audit_id=audit_id)
            fetched = yield from channel.call("key.fetch", audit_id=audit_id)
            return created["key"], fetched["key"]

        created, fetched = sim.run_process(proc())
        assert created == fetched
        assert len(created) == 32
        kinds = [e.kind for e in service.access_log]
        assert kinds == ["create", "fetch"]

    def test_fetch_unknown_id(self):
        sim, _service, channel = _service_rig()

        def proc():
            yield from channel.call("key.fetch", audit_id=b"x" * 24)

        with pytest.raises(RpcError):
            sim.run_process(proc())

    def test_duplicate_create_rejected(self):
        sim, _service, channel = _service_rig()

        def proc():
            yield from channel.call("key.create", audit_id=b"a" * 24)
            yield from channel.call("key.create", audit_id=b"a" * 24)

        with pytest.raises(RpcError):
            sim.run_process(proc())

    def test_put_idempotent(self):
        sim, _service, channel = _service_rig()

        def proc():
            yield from channel.call("key.put", audit_id=b"a" * 24, key=b"k" * 32)
            yield from channel.call("key.put", audit_id=b"a" * 24, key=b"k" * 32)
            fetched = yield from channel.call("key.fetch", audit_id=b"a" * 24)
            return fetched["key"]

        assert sim.run_process(proc()) == b"k" * 32

    def test_put_conflicting_key_rejected(self):
        sim, _service, channel = _service_rig()

        def proc():
            yield from channel.call("key.put", audit_id=b"a" * 24, key=b"k" * 32)
            yield from channel.call("key.put", audit_id=b"a" * 24, key=b"x" * 32)

        with pytest.raises(RpcError):
            sim.run_process(proc())

    def test_revocation_blocks_fetch(self):
        sim, service, channel = _service_rig()

        def setup():
            yield from channel.call("key.create", audit_id=b"a" * 24)

        sim.run_process(setup())
        service.revoke_device("laptop")

        def fetch():
            yield from channel.call("key.fetch", audit_id=b"a" * 24)

        with pytest.raises(RevokedError):
            sim.run_process(fetch())
        # The denial itself is logged.
        assert any(e.kind == "denied" for e in service.access_log)

    def test_batch_fetch_logs_each(self):
        sim, service, channel = _service_rig()

        def proc():
            for i in range(3):
                yield from channel.call("key.create", audit_id=bytes([i]) * 24)
            result = yield from channel.call(
                "key.fetch_batch",
                audit_ids=[bytes([0]) * 24, bytes([1]) * 24, b"?" * 24],
                kind="prefetch",
            )
            return result["keys"]

        keys = sim.run_process(proc())
        assert len(keys) == 3
        assert keys[2] == b""  # unknown ID skipped
        prefetches = [e for e in service.access_log if e.kind == "prefetch"]
        assert len(prefetches) == 2

    def test_report_batch_preserves_timestamps(self):
        sim, service, channel = _service_rig()

        def proc():
            yield sim.timeout(100.0)
            yield from channel.call(
                "key.report_batch",
                records=[
                    {"audit_id": b"a" * 24, "timestamp": 42.5, "kind": "paired-fetch"}
                ],
            )

        sim.run_process(proc())
        entry = next(e for e in service.access_log if e.kind == "paired-fetch")
        assert entry.timestamp == pytest.approx(42.5)

    def test_malformed_audit_id(self):
        sim, _service, channel = _service_rig()

        def proc():
            yield from channel.call("key.create", audit_id=b"short")

        with pytest.raises(RpcError):
            sim.run_process(proc())


class TestMetadataService:
    def _rig(self):
        sim = Simulation()
        service = MetadataService(sim, ibe_params=TOY, master_seed=b"test-pkg")
        link = Link(sim, rtt=0.0)
        secret = b"s" * 32
        service.enroll_device("laptop", secret)
        channel = RpcChannel(sim, link, service.server, "laptop", secret)
        return sim, service, channel

    def test_register_and_path_reconstruction(self):
        sim, service, channel = self._rig()
        audit_id = b"a" * 24

        def proc():
            yield from channel.call(
                "meta.register_dir", dir_id="d-home", parent_id="d-root",
                name="home",
            )
            yield from channel.call(
                "meta.register_dir", dir_id="d-docs", parent_id="d-home",
                name="docs",
            )
            yield from channel.call(
                "meta.register", audit_id=audit_id, dir_id="d-docs",
                name="taxes.pdf",
            )

        sim.run_process(proc())
        assert service.path_of(audit_id) == "/home/docs/taxes.pdf"

    def test_rename_history_append_only(self):
        sim, service, channel = self._rig()
        audit_id = b"a" * 24

        def proc():
            yield from channel.call(
                "meta.register", audit_id=audit_id, dir_id="d-root",
                name="irs_form.pdf",
            )
            yield sim.timeout(10.0)
            yield from channel.call(
                "meta.register", audit_id=audit_id, dir_id="d-root",
                name="prepared_taxes_2011.pdf",
            )

        sim.run_process(proc())
        history = service.history_of(audit_id)
        assert [h["name"] for h in history] == [
            "irs_form.pdf", "prepared_taxes_2011.pdf",
        ]
        assert service.path_of(audit_id) == "/prepared_taxes_2011.pdf"
        assert service.metadata_log.verify_chain()

    def test_ibe_registration_returns_working_key(self):
        sim, service, channel = self._rig()
        audit_id = b"a" * 24
        identity = identity_string("d-root", "secret.doc", audit_id)
        pub = service.pkg.public()
        ciphertext = pub.encrypt(identity, b"wrapped-key-bytes")

        def proc():
            response = yield from channel.call(
                "meta.register_ibe", identity=identity
            )
            return response

        response = sim.run_process(proc())
        from repro.crypto.ibe import decrypt
        from repro.crypto.ibe.boneh_franklin import IbePrivateKey
        from repro.crypto.ibe.curve import Point
        from repro.crypto.ibe.fp2 import Fp2

        params = service.pkg.params
        key = IbePrivateKey(
            identity=identity,
            point=Point(
                Fp2.from_int(response["point_x"], params.p),
                Fp2.from_int(response["point_y"], params.p),
            ),
        )
        assert decrypt(params, key, ciphertext) == b"wrapped-key-bytes"
        # The registration was recorded with the parsed path tuple.
        assert service.path_of(audit_id) == "/secret.doc"

    def test_ibe_registration_with_wrong_path_gives_useless_key(self):
        sim, service, channel = self._rig()
        audit_id = b"a" * 24
        true_identity = identity_string("d-root", "secret.doc", audit_id)
        ciphertext = service.pkg.public().encrypt(true_identity, b"payload")
        lie = identity_string("d-root", "innocuous.tmp", audit_id)

        def proc():
            response = yield from channel.call("meta.register_ibe", identity=lie)
            return response

        response = sim.run_process(proc())
        from repro.crypto.ibe import decrypt
        from repro.crypto.ibe.boneh_franklin import IbePrivateKey
        from repro.crypto.ibe.curve import Point
        from repro.crypto.ibe.fp2 import Fp2

        params = service.pkg.params
        key = IbePrivateKey(
            identity=lie,
            point=Point(
                Fp2.from_int(response["point_x"], params.p),
                Fp2.from_int(response["point_y"], params.p),
            ),
        )
        with pytest.raises((IntegrityError, CryptoError)):
            decrypt(params, key, ciphertext)

    def test_unknown_parent_rejected(self):
        sim, _service, channel = self._rig()

        def proc():
            yield from channel.call(
                "meta.register_dir", dir_id="d-x", parent_id="d-ghost", name="x"
            )

        with pytest.raises(RpcError):
            sim.run_process(proc())
