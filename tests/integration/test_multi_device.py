"""Multiple devices, shared audit services, concurrent applications.

Covers §6 properties the single-device tests can't: per-device
revocation, per-device log attribution, spurious-entry resistance, and
transport-key ratcheting — plus FS integrity under concurrently
running applications (sim processes interleave at every yield).
"""

import pytest

from repro.core import (
    DeviceServices,
    KeypadConfig,
    KeypadFS,
    KeyService,
    MetadataService,
)
from repro.crypto.ibe import TOY
from repro.encfs import Volume
from repro.errors import AuthorizationError, RevokedError
from repro.forensics import AuditTool
from repro.harness import build_keypad_rig
from repro.net import LAN, Link
from repro.net.wire import PROTOCOL_V2
from repro.sim import Simulation
from repro.storage import BlockDevice, BufferCache, LocalFileSystem


def _two_device_world(pipelining=False):
    """One simulation, one pair of services, two independent laptops."""
    sim = Simulation()
    key_service = KeyService(sim, seed=b"shared-ks")
    metadata_service = MetadataService(sim, ibe_params=TOY,
                                       master_seed=b"shared-pkg")
    world = {"sim": sim, "key": key_service, "meta": metadata_service}
    for name in ("alpha", "beta"):
        device = BlockDevice(sim, n_blocks=1 << 14)
        cache = BufferCache(sim, device, capacity_blocks=1 << 14)
        lower = LocalFileSystem(sim, cache)
        services = DeviceServices(
            sim, f"laptop-{name}", f"secret-{name}".encode() * 2,
            key_service, metadata_service,
            Link(sim, rtt=0.001), Link(sim, rtt=0.001),
            pipelining=pipelining,
        )
        fs = KeypadFS(
            sim, lower, Volume(f"pw-{name}"), services,
            config=KeypadConfig(texp=20.0, prefetch="none", ibe_enabled=False),
            drbg_seed=f"dev-{name}".encode(),
        )
        world[name] = fs
    return world


class TestMultiDevice:
    def test_devices_get_distinct_keys_and_logs(self):
        world = _two_device_world()
        sim = world["sim"]

        def usage(fs, tag):
            yield from fs.create(f"/{tag}.txt")
            yield from fs.write(f"/{tag}.txt", 0, tag.encode())
            audit_id = yield from fs.audit_id_of(f"/{tag}.txt")
            return audit_id

        id_a = sim.run_process(usage(world["alpha"], "alpha"))
        id_b = sim.run_process(usage(world["beta"], "beta"))
        assert id_a != id_b
        log_devices = {
            e.device_id for e in world["key"].access_log
            if e.fields.get("audit_id") in (id_a, id_b)
        }
        assert log_devices == {"laptop-alpha", "laptop-beta"}

    def test_revoking_one_device_spares_the_other(self):
        world = _two_device_world()
        sim = world["sim"]

        def setup(fs, tag):
            yield from fs.create(f"/{tag}.txt")
            yield from fs.write(f"/{tag}.txt", 0, b"x")
            yield sim.timeout(60.0)  # caches expire

        sim.run_process(setup(world["alpha"], "alpha"))
        sim.run_process(setup(world["beta"], "beta"))
        world["key"].revoke_device("laptop-alpha")

        def read(fs, tag):
            data = yield from fs.read(f"/{tag}.txt", 0, 1)
            return data

        with pytest.raises(RevokedError):
            sim.run_process(read(world["alpha"], "alpha"))
        assert sim.run_process(read(world["beta"], "beta")) == b"x"

    def test_spurious_entries_cannot_hide_real_accesses(self):
        """§6: 'an attacker cannot use such actions to hide their
        actual accesses of confidential data.'"""
        world = _two_device_world()
        sim = world["sim"]
        fs = world["alpha"]

        def setup():
            yield from fs.create("/secret.txt")
            yield from fs.write("/secret.txt", 0, b"secret")
            audit_id = yield from fs.audit_id_of("/secret.txt")
            yield sim.timeout(100.0)
            return audit_id

        audit_id = sim.run_process(setup())
        t_loss = sim.now

        def noisy_attack():
            # Flood the log with unrelated fetches, then do the real read.
            for i in range(20):
                yield from fs.services.fetch_key(audit_id, kind="fetch")
            data = yield from fs.read("/secret.txt", 0, 6)
            return data

        sim.run_process(noisy_attack())
        report = AuditTool(world["key"], world["meta"]).report(
            t_loss=t_loss, texp=20.0
        )
        assert audit_id in report.compromised_ids

    @pytest.mark.parametrize("pipelining", [False, True])
    def test_one_device_cannot_fetch_while_impersonating_another(
            self, pipelining):
        """Requests are authenticated per device secret, on the serial
        and the pipelined path alike."""
        world = _two_device_world(pipelining=pipelining)
        sim = world["sim"]
        fs_a, fs_b = world["alpha"], world["beta"]

        def setup():
            yield from fs_a.create("/a.txt")
            audit_id = yield from fs_a.audit_id_of("/a.txt")
            # beta's own traffic settles its channel's protocol version.
            yield from fs_b.create("/b.txt")
            yield sim.timeout(1.0)
            return audit_id

        audit_id = sim.run_process(setup())
        # beta's channel claims to be laptop-alpha.
        beta_channel = fs_b.services.key_channel
        assert beta_channel.negotiated_version == (
            PROTOCOL_V2 if pipelining else None)
        beta_channel.device_id = "laptop-alpha"
        pipelined = beta_channel.metrics.pipelined_calls
        fetches = len(world["key"].access_log.entries(kind="fetch"))

        def impersonate():
            result = yield from beta_channel.call("key.fetch", audit_id=audit_id)
            return result

        with pytest.raises(AuthorizationError):
            sim.run_process(impersonate())
        assert beta_channel.metrics.pipelined_calls == pipelined + pipelining
        assert len(world["key"].access_log.entries(kind="fetch")) == fetches


class TestConcurrentApplications:
    def test_two_apps_interleave_safely(self):
        rig = build_keypad_rig(
            network=LAN,
            config=KeypadConfig(texp=50.0, prefetch="dir:3", ibe_enabled=True),
        )

        def setup():
            yield from rig.fs.mkdir("/shared")
            yield from rig.fs.mkdir("/app_a")
            yield from rig.fs.mkdir("/app_b")

        rig.run(setup())

        def app(tag, n_files):
            for i in range(n_files):
                path = f"/{tag}/file{i:03d}"
                yield from rig.fs.create(path)
                yield from rig.fs.write(path, 0, f"{tag}-{i}".encode() * 10)
                yield rig.sim.timeout(0.01)
                data = yield from rig.fs.read(path, 0, 32)
                assert data.startswith(f"{tag}-{i}".encode())
                # Cross-directory traffic stresses shared state.
                shared = f"/shared/{tag}{i:03d}"
                yield from rig.fs.create(shared)
                yield from rig.fs.rename(shared, shared + ".done")
            return tag

        proc_a = rig.sim.process(app("app_a", 15))
        proc_b = rig.sim.process(app("app_b", 15))
        done = rig.sim.all_of([proc_a, proc_b])
        assert rig.sim.run_until(done) == ["app_a", "app_b"]

        def verify():
            names = yield from rig.fs.readdir("/shared")
            return names

        names = rig.run(verify())
        assert len(names) == 30
        assert all(n.endswith(".done") for n in names)

    def test_concurrent_reads_of_same_file(self):
        rig = build_keypad_rig(
            network=LAN,
            config=KeypadConfig(texp=50.0, prefetch="none", ibe_enabled=False),
        )

        def setup():
            yield from rig.fs.create("/hot")
            yield from rig.fs.write("/hot", 0, b"shared data" * 100)

        rig.run(setup())
        rig.fs.key_cache.evict_all()

        def reader(offset):
            data = yield from rig.fs.read("/hot", offset, 11)
            return data

        procs = [rig.sim.process(reader(i * 11)) for i in range(8)]
        results = rig.sim.run_until(rig.sim.all_of(procs))
        assert all(r == b"shared data" for r in results)
