"""Experiment rigs: one-call construction of full device+service stacks.

A *rig* wires together the whole simulated world for one experiment:
block device → buffer cache → local FS → (EncFS | Keypad) on the client
side, plus the key/metadata services behind network links with the
requested RTT, and optionally a paired phone.  Every rig is
deterministic given its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from repro.costmodel import DEFAULT_COSTS, CostModel
from repro.crypto.ibe import TOY
from repro.encfs import EncfsFS, Volume
from repro.net.link import Link
from repro.net.netem import BLUETOOTH, LAN, NetEnv
from repro.sim import Simulation, SimRandom
from repro.storage import BlockDevice, BufferCache, LocalFileSystem
from repro.core.client import KEY_SHARDS, ServiceSession
from repro.core.fs import KeypadFS
from repro.core.paired import PairedPhone, PhoneProxy
from repro.core.policy import KeypadConfig
from repro.core.services import KeyService, MetadataService

__all__ = ["KeypadRig", "BaselineRig", "build_keypad_rig", "build_encfs_rig",
           "build_ext3_rig", "build_nfs_rig"]

DEVICE_ID = "laptop-1"
PHONE_ID = "phone-1"


@dataclass
class BaselineRig:
    """A client FS with no remote services (ext3 or EncFS)."""

    sim: Simulation
    device: BlockDevice
    cache: BufferCache
    lower: LocalFileSystem
    fs: Any
    volume: Optional[Volume] = None

    def run(self, gen: Generator, name: str = "workload") -> Any:
        return self.sim.run_process(gen, name=name)


@dataclass
class KeypadRig:
    """The full Keypad world."""

    sim: Simulation
    device: BlockDevice
    cache: BufferCache
    lower: LocalFileSystem
    volume: Volume
    fs: KeypadFS
    key_service: KeyService
    metadata_service: MetadataService
    services: ServiceSession
    key_link: Link
    metadata_link: Link
    config: KeypadConfig
    costs: CostModel
    device_secret: bytes
    phone: Optional[PairedPhone] = None
    phone_proxy: Optional[PhoneProxy] = None
    bluetooth_link: Optional[Link] = None
    phone_key_uplink: Optional[Link] = None
    phone_metadata_uplink: Optional[Link] = None
    # Replicated key-service cluster (config.cluster); when set,
    # ``key_service`` is replica 0 and ``key_link`` is its link.
    replica_group: Optional[Any] = None
    replica_links: list = field(default_factory=list)
    # TraceCollector when config.tracing is on (see docs/OBSERVABILITY.md).
    tracer: Optional[Any] = None
    extras: dict = field(default_factory=dict)

    def run(self, gen: Generator, name: str = "workload") -> Any:
        return self.sim.run_process(gen, name=name)

    # -- theft/loss controls ----------------------------------------------------
    def sever_device_links(self) -> None:
        """The thief cuts the device's own network access."""
        for link in self.replica_links:
            if not link.severed:
                link.sever()
        if not self.key_link.severed:
            self.key_link.sever()
        self.metadata_link.sever()

    def revoke(self) -> None:
        """Remote control: the victim reports the device stolen."""
        if self.replica_group is not None:
            self.replica_group.revoke_device(DEVICE_ID)
        else:
            self.key_service.revoke_device(DEVICE_ID)

    def cluster_audit_log(self, window: float = 5.0):
        """The merged forensic view over the replica cluster's logs."""
        if self.replica_group is None:
            raise ValueError("rig was built without replication")
        from repro.cluster import ClusterAuditLog

        return ClusterAuditLog(
            self.replica_group, self.replica_group.k, window=window
        )

    def attach_phone(self) -> None:
        if self.phone_proxy is None:
            raise ValueError("rig was built without a phone")
        self.services.attach_phone(self.phone_proxy)


def _storage_stack(
    sim: Simulation, costs: CostModel, n_blocks: int
) -> tuple[BlockDevice, BufferCache, LocalFileSystem]:
    device = BlockDevice(sim, n_blocks=n_blocks, costs=costs)
    cache = BufferCache(sim, device, capacity_blocks=n_blocks)
    lower = LocalFileSystem(sim, cache, costs=costs)
    return device, cache, lower


def build_ext3_rig(
    costs: CostModel = DEFAULT_COSTS, n_blocks: int = 1 << 18
) -> BaselineRig:
    """Bare local FS (the paper's ext3 baseline)."""
    sim = Simulation()
    device, cache, lower = _storage_stack(sim, costs, n_blocks)
    return BaselineRig(sim=sim, device=device, cache=cache, lower=lower, fs=lower)


def build_encfs_rig(
    password: str = "hunter2",
    costs: CostModel = DEFAULT_COSTS,
    n_blocks: int = 1 << 18,
) -> BaselineRig:
    """EncFS over the local FS (the paper's main baseline)."""
    sim = Simulation()
    device, cache, lower = _storage_stack(sim, costs, n_blocks)
    volume = Volume(password)
    fs = EncfsFS(sim, lower, volume, costs=costs)
    return BaselineRig(
        sim=sim, device=device, cache=cache, lower=lower, fs=fs, volume=volume
    )


def build_nfs_rig(
    network: NetEnv = LAN,
    costs: CostModel = DEFAULT_COSTS,
) -> BaselineRig:
    """NFSv3 client/server pair over the given network (§5.1.3)."""
    from repro.nfs import NfsClient, NfsServer

    sim = Simulation()
    server = NfsServer(sim, costs=costs)
    link = network.make_link(sim, label=f"{network.name}-nfs")
    client = NfsClient(sim, server, link, costs=costs)
    rig = BaselineRig(sim=sim, device=None, cache=None, lower=None, fs=client)
    rig.fs_server = server
    rig.link = link
    return rig


def build_keypad_rig(
    network: NetEnv = LAN,
    config: KeypadConfig = KeypadConfig(),
    costs: CostModel = DEFAULT_COSTS,
    ibe_params: str = TOY,
    password: str = "hunter2",
    seed: bytes = b"experiment-0",
    n_blocks: int = 1 << 18,
    with_phone: bool = False,
    phone_network: Optional[NetEnv] = None,
    bluetooth: NetEnv = BLUETOOTH,
    home_region: Optional[str] = None,
) -> KeypadRig:
    """The full Keypad stack over a network with the given RTT."""
    # Fail fast on contradictory bundles and runtime-only knobs before
    # any services are built (PolicyEpoch re-validates on every update).
    from repro.core.policy import validate_config
    from repro.storage.backend import make_backend

    validate_config(config)
    sim = Simulation()
    stack = make_backend(config.storage_backend).create(
        sim, costs=costs, n_blocks=n_blocks
    )
    device, cache, lower = stack.device, stack.cache, stack.fs
    volume = Volume(password)

    metadata_service = MetadataService(
        sim, costs=costs, ibe_params=ibe_params, master_seed=seed + b"|pkg"
    )
    metadata_link = network.make_link(sim, label=f"{network.name}-meta")
    device_secret = b"device-secret|" + seed

    tracer = None
    if config.tracing:
        from repro.core.context import TraceCollector

        tracer = TraceCollector()

    key_shards = KEY_SHARDS if config.fast_transport else 1
    replica_group = None
    replica_links: list[Link] = []
    topology = config.cluster
    if topology is not None:
        if with_phone:
            raise ValueError(
                "a paired phone is not supported with a replicated key "
                "service (config.cluster)"
            )
        from repro.cluster import ReplicaGroup, ReplicatedServiceSession

        replica_group = ReplicaGroup(
            sim,
            topology,
            costs=costs,
            seed=seed + b"|replica",
            shards=key_shards,
            audit=config.audit,
            audit_blobs=stack.blobs,
        )
        if topology.multi_region:
            home_region = home_region or topology.region_names[0]
            replica_group.start_gossip()
        else:
            home_region = None
        replica_links = replica_group.device_links(
            network, home_region, f"{network.name}-keys"
        )
        key_service = replica_group.replicas[0]
        key_link = replica_links[0]
        services = ReplicatedServiceSession(
            sim,
            DEVICE_ID,
            device_secret,
            replica_group,
            replica_links,
            metadata_service,
            metadata_link,
            costs=costs,
            rekey_interval=config.rekey_interval,
            fast_transport=config.fast_transport,
            dedup_window=config.texp,
            mint_seed=b"cluster-mint|" + seed,
            rng=SimRandom(seed, "cluster-client"),
            tracer=tracer,
            home_region=home_region,
        )
    else:
        key_service = KeyService(
            sim,
            costs=costs,
            seed=seed + b"|ks",
            shards=key_shards,
            audit=config.audit,
            audit_blobs=stack.blobs,
        )
        key_link = network.make_link(sim, label=f"{network.name}-keys")
        services = ServiceSession(
            sim,
            DEVICE_ID,
            device_secret,
            key_service,
            metadata_service,
            key_link,
            metadata_link,
            costs=costs,
            rekey_interval=config.rekey_interval,
            fast_transport=config.fast_transport,
            tracer=tracer,
        )
    frontends: list = []
    if config.frontend is not None:
        if replica_group is not None:
            frontends = replica_group.install_frontends(config.frontend)
        else:
            frontends = [key_service.install_frontend(config.frontend)]

    fs = KeypadFS(
        sim, lower, volume, services, config=config, costs=costs,
        drbg_seed=b"keypad|" + seed,
    )
    rig = KeypadRig(
        sim=sim,
        device=device,
        cache=cache,
        lower=lower,
        volume=volume,
        fs=fs,
        key_service=key_service,
        metadata_service=metadata_service,
        services=services,
        key_link=key_link,
        metadata_link=metadata_link,
        config=config,
        costs=costs,
        device_secret=device_secret,
        replica_group=replica_group,
        replica_links=replica_links,
        tracer=tracer,
    )
    rig.extras["backend"] = stack
    if frontends:
        rig.extras["frontends"] = frontends

    if with_phone:
        # The phone's cellular uplink defaults to the same environment
        # as the device's — Figure 8(b) sweeps that RTT while the
        # laptop→phone hop stays Bluetooth-class.
        uplink_env = phone_network or network
        phone_key_uplink = uplink_env.make_link(sim, label="phone-keys")
        phone_meta_uplink = uplink_env.make_link(sim, label="phone-meta")
        bt_link = bluetooth.make_link(sim, label="bluetooth")
        phone = PairedPhone(
            sim,
            PHONE_ID,
            b"phone-secret|" + seed,
            key_service,
            metadata_service,
            phone_key_uplink,
            phone_meta_uplink,
            costs=costs,
            pipelining=config.fast_transport,
        )
        proxy = PhoneProxy(
            sim, phone, bt_link, DEVICE_ID, device_secret, costs=costs,
            pipelining=config.fast_transport, tracer=tracer,
        )
        rig.phone = phone
        rig.phone_proxy = proxy
        rig.bluetooth_link = bt_link
        rig.phone_key_uplink = phone_key_uplink
        rig.phone_metadata_uplink = phone_meta_uplink
    return rig
