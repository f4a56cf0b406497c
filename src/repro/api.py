"""The stable public surface of the Keypad reproduction.

Import from here — everything else under ``repro.*`` is layout, not
contract.  This facade exists so the package can keep refactoring its
internals (``repro.core``, ``repro.net``, ``repro.cluster``, ...)
without breaking the CLI, the benchmarks, or downstream scripts: the
names below are the ones ``tests/unit/test_api_surface.py`` snapshots,
and a change to this module is a deliberate API change, reviewed as
one.

The groups:

* **Mounting a rig** — :func:`mount` (alias of :func:`build_keypad_rig`)
  wires the full simulated world: storage stack, KeypadFS, key/metadata
  services behind simulated links, optionally a replica cluster, a
  paired phone, tracing, and the fleet frontend.
* **Configuration** — :class:`KeypadConfig` with
  :meth:`KeypadConfig.builder` for chainable feature bundles.
* **Forensics** — :class:`AuditTool` over a key service's log,
  :class:`ClusterAuditLog` over a replica group's.
* **Audit store** — :class:`AuditSpec` (which store a service keeps:
  ``flat``, ``segmented`` or ``durable``; ``KeypadConfig.audit``),
  :class:`AppendOnlyLog` (the paper's flat log),
  :class:`SegmentedAuditStore` (the event-sourced, seal-chained log
  engine), :class:`AuditViews` (its materialized forensic views) and
  :class:`DurableAuditStore` (the segmented store spilled to a
  :class:`BlobStore` namespace; see docs/AUDITSTORE.md).
* **Fleet scale** — :func:`run_fleet` drives thousands of simulated
  devices against one service; :class:`ServiceFrontend` is the
  server-side scheduler it exercises, built from one
  :class:`FrontendSpec` (``KeypadConfig.frontend``);
  :class:`ControlEvent` scripts mid-run admin actions.
* **Runtime control** — :func:`open_control` attaches a
  :class:`ControlServer` to a mounted rig and returns a
  :class:`ControlClient`; :class:`PolicyEpoch` is the mount-held live
  policy cell its verbs update.
* **Errors** — the single taxonomy from :mod:`repro.errors`.
"""

from __future__ import annotations

from repro.auditstore import (
    AppendOnlyLog,
    AuditSegment,
    AuditSpec,
    AuditViews,
    BlobImage,
    DurableAuditStore,
    FLUSH_POLICIES,
    LogEntry,
    SegmentedAuditStore,
)
from repro.control import ControlClient, ControlServer, open_control
from repro.core.policy import (
    KeypadConfig,
    KeypadConfigBuilder,
    PolicyEpoch,
    coverage_for_prefixes,
)
from repro.core.client import (
    KeyCreate,
    KeyFetch,
    ServiceSession,
)
from repro.core.context import OpContext, Span, TraceCollector
from repro.core.fs import KeypadFS
from repro.core.services import KeyService, MetadataService
from repro.cluster.client import (
    ReplicatedKeyClient,
    ReplicatedServiceSession,
)
from repro.cluster.federation import Region, Topology
from repro.cluster.merge import ClusterAuditLog
from repro.cluster.replica import ReplicaGroup
from repro.costmodel import DEFAULT_COSTS, CostModel
from repro.errors import (
    AuditRecoveryError,
    AuthorizationError,
    ConfigError,
    ControlError,
    DeadlineExpiredError,
    FileSystemError,
    KeypadError,
    LockedFileError,
    NetworkUnavailableError,
    OverloadSheddedError,
    ReproError,
    RevokedError,
    RpcError,
    ServiceUnavailableError,
)
from repro.forensics.audit import AuditReport, AuditTool
from repro.harness.experiment import (
    BaselineRig,
    KeypadRig,
    build_encfs_rig,
    build_ext3_rig,
    build_keypad_rig,
    build_nfs_rig,
)
from repro.net.link import Link
from repro.net.netem import (
    ALL_NETWORKS,
    BLUETOOTH,
    BROADBAND,
    DSL,
    LAN,
    PAPER_SWEEP_RTTS,
    THREE_G,
    WLAN,
    NetEnv,
)
from repro.server import FrontendSpec, ServiceFrontend
from repro.sim import Simulation
from repro.storage.backend import BlobNamespace, BlobStore
from repro.workloads.fleet import (
    ControlEvent,
    DeviceProfile,
    FleetResult,
    run_fleet,
)

#: The one-call entry point: build a fully wired Keypad world.
mount = build_keypad_rig

__all__ = [
    # rig construction
    "mount",
    "build_keypad_rig",
    "build_encfs_rig",
    "build_ext3_rig",
    "build_nfs_rig",
    "KeypadRig",
    "BaselineRig",
    "Simulation",
    # configuration
    "KeypadConfig",
    "KeypadConfigBuilder",
    "coverage_for_prefixes",
    "CostModel",
    "DEFAULT_COSTS",
    # core sessions / services
    "KeypadFS",
    "KeyService",
    "MetadataService",
    "ServiceSession",
    "KeyCreate",
    "KeyFetch",
    "OpContext",
    "Span",
    "TraceCollector",
    # cluster
    "ReplicaGroup",
    "ReplicatedKeyClient",
    "ReplicatedServiceSession",
    "ClusterAuditLog",
    "Region",
    "Topology",
    # forensics
    "AuditTool",
    "AuditReport",
    # audit store (event-sourced log + materialized views)
    "AppendOnlyLog",
    "AuditSpec",
    "LogEntry",
    "SegmentedAuditStore",
    "AuditSegment",
    "AuditViews",
    # durable audit store (segment spill + crash recovery)
    "DurableAuditStore",
    "BlobImage",
    "FLUSH_POLICIES",
    # fleet scale
    "run_fleet",
    "FleetResult",
    "DeviceProfile",
    "ServiceFrontend",
    "FrontendSpec",
    "ControlEvent",
    # runtime control plane
    "open_control",
    "ControlServer",
    "ControlClient",
    "PolicyEpoch",
    # audit blob namespace
    "BlobStore",
    "BlobNamespace",
    # networks
    "NetEnv",
    "Link",
    "LAN",
    "WLAN",
    "BROADBAND",
    "DSL",
    "THREE_G",
    "BLUETOOTH",
    "ALL_NETWORKS",
    "PAPER_SWEEP_RTTS",
    # errors
    "ReproError",
    "FileSystemError",
    "KeypadError",
    "NetworkUnavailableError",
    "RpcError",
    "ServiceUnavailableError",
    "DeadlineExpiredError",
    "OverloadSheddedError",
    "RevokedError",
    "AuthorizationError",
    "LockedFileError",
    "ConfigError",
    "ControlError",
    "AuditRecoveryError",
]
