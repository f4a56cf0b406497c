"""The stable facade contract: ``repro.api``, the config builder, the
removed back-compat surfaces, and the CLI exit-code taxonomy.

``repro.api.__all__`` is snapshotted here on purpose — renaming or
dropping a public name should fail a test, not a downstream script.
"""

from __future__ import annotations

import pytest

import repro.api as api
from repro.cli import exit_code_for
from repro.core.policy import KeypadConfig
from repro.errors import (
    AuthorizationError,
    ConfigError,
    ControlError,
    DeadlineExpiredError,
    KeypadError,
    NetworkUnavailableError,
    OverloadSheddedError,
    ServiceUnavailableError,
)

#: the published surface, frozen.  Additions belong at the end of the
#: matching group in repro/api.py *and* here; removals are breaking.
API_SURFACE = sorted([
    # rig construction
    "mount", "build_keypad_rig", "build_encfs_rig", "build_ext3_rig",
    "build_nfs_rig", "KeypadRig", "BaselineRig", "Simulation",
    # configuration
    "KeypadConfig", "KeypadConfigBuilder", "coverage_for_prefixes",
    "CostModel", "DEFAULT_COSTS",
    # core sessions / services
    "KeypadFS", "KeyService", "MetadataService", "ServiceSession",
    "KeyCreate", "KeyFetch", "OpContext", "Span", "TraceCollector",
    # cluster
    "ReplicaGroup", "ReplicatedKeyClient", "ReplicatedServiceSession",
    "ClusterAuditLog", "Region", "Topology", "FederationGroup",
    "FederatedKeyClient",
    # forensics
    "AuditTool", "AuditReport",
    # audit store (event-sourced log + materialized views)
    "AppendOnlyLog", "ShardedLog", "LogEntry",
    "SegmentedAuditStore", "AuditSegment", "AuditViews",
    # durable audit store (segment spill + crash recovery)
    "DurableAuditStore", "BlobImage", "FLUSH_POLICIES",
    # fleet scale
    "run_fleet", "FleetResult", "DeviceProfile", "ServiceFrontend",
    "ControlEvent",
    # runtime control plane
    "open_control", "ControlServer", "ControlClient", "PolicyEpoch",
    # pluggable storage backends
    "StorageBackend", "StorageStack", "BACKENDS", "make_backend",
    "BlobStore", "BlobNamespace", "volume_contents",
    # networks
    "NetEnv", "Link", "LAN", "WLAN", "BROADBAND", "DSL", "THREE_G",
    "BLUETOOTH", "ALL_NETWORKS", "PAPER_SWEEP_RTTS",
    # errors
    "ReproError", "FileSystemError", "KeypadError",
    "NetworkUnavailableError", "RpcError", "ServiceUnavailableError",
    "DeadlineExpiredError", "OverloadSheddedError", "RevokedError",
    "AuthorizationError", "LockedFileError", "ConfigError",
    "ControlError", "AuditRecoveryError",
])


class TestApiSurface:
    def test_all_matches_snapshot(self):
        assert sorted(api.__all__) == API_SURFACE

    def test_every_name_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_mount_is_build_keypad_rig(self):
        assert api.mount is api.build_keypad_rig


class TestRemovedSurfaces:
    """Each public name has one import path and one spelling; the
    back-compat surfaces that duplicated them are gone for good."""

    def test_package_reexports_are_gone(self):
        with pytest.raises(ImportError):
            from repro.core import KeypadFS  # noqa: F401
        with pytest.raises(ImportError):
            from repro.net import LAN  # noqa: F401

    def test_moved_modules_are_gone(self):
        with pytest.raises(ModuleNotFoundError):
            import repro.core.services.logstore  # noqa: F401
        with pytest.raises(ModuleNotFoundError):
            import repro.storage.fsiface  # noqa: F401

    def test_config_has_only_the_builder(self):
        for name in ("texp", "prefetch", "ibe", "fast_transport",
                     "tracing", "replication"):
            assert not hasattr(KeypadConfig, f"with_{name}"), name

    def test_sessions_take_only_typed_requests(self):
        from repro.core.paired import PhoneProxy

        assert not hasattr(api.ServiceSession, "fetch_key")
        assert not hasattr(PhoneProxy, "fetch_key")
        assert not hasattr(api, "DeviceServices")


class TestConfigBuilder:
    def test_empty_builder_is_default_config(self):
        assert KeypadConfig.builder().build() == KeypadConfig()

    def test_bundles_chain(self):
        config = (
            KeypadConfig.builder()
            .fast_transport(key_shards=2)
            .replication(k=2, m=3, replica_deadline=1.5)
            .tracing()
            .frontend(workers=16, policy="fifo")
            .build()
        )
        assert config.pipelining and config.key_shards == 2
        assert config.replicas == 3 and config.replica_threshold == 2
        assert config.replica_deadline == 1.5
        assert config.tracing
        assert config.frontend_enabled
        assert config.frontend_workers == 16
        assert config.frontend_knobs()["policy"] == "fifo"

    def test_builder_from_base(self):
        base = KeypadConfig(texp=42.0)
        built = KeypadConfig.builder(base).frontend().build()
        assert built.texp == 42.0 and built.frontend_enabled

    def test_replication_validates(self):
        with pytest.raises(ValueError):
            KeypadConfig.builder().replication(k=4, m=3)

    def test_build_rejects_contradictions_in_any_order(self):
        # The same contradictory bundle must fail regardless of the
        # order the steps were chained in — build() validates the whole
        # config once, with one uniform error type.
        with pytest.raises(ConfigError):
            KeypadConfig.builder().texp(-1.0).build()
        with pytest.raises(ConfigError):
            # texp_inflight (default 1.0) must never exceed texp.
            KeypadConfig.builder().texp(0.5).build()
        with pytest.raises(ConfigError):
            # a contradictory base is caught at build, not at mount
            base = KeypadConfig(replicas=1, replica_threshold=2)
            KeypadConfig.builder(base).build()
        with pytest.raises(ConfigError):
            KeypadConfig.builder().storage("floppy").build()

    def test_texp_zero_is_the_no_caching_arm(self):
        # texp=0 is the paper's "unoptimized" configuration, not an
        # error; only negatives are contradictions.
        assert KeypadConfig.builder().texp(0.0).build().texp == 0.0

    def test_bundle_steps_reject_runtime_verbs(self):
        # Control-channel verbs are not config knobs; naming one in a
        # builder step must fail at the step, with a pointer to the
        # control channel, not silently ride into the mount.
        with pytest.raises(ConfigError, match="control"):
            KeypadConfig.builder().replication(k=2, m=3, drain=True)

    def test_mount_freezes_runtime_only_knobs(self):
        from repro.core.policy import PolicyEpoch

        epoch = PolicyEpoch(KeypadConfig())
        with pytest.raises(ConfigError, match="mount-frozen"):
            epoch.update(replicas=3)
        epoch.update(texp=7.0)
        assert epoch.config.texp == 7.0 and epoch.epoch == 1

    def test_flags_off_defaults_unchanged(self):
        config = KeypadConfig()
        assert not config.frontend_enabled
        assert not config.pipelining
        assert config.replicas == 1
        assert not config.tracing
        assert config.storage_backend == "ext3"


class TestExitCodes:
    def test_taxonomy_maps_to_distinct_codes(self):
        codes = {
            exit_code_for(OverloadSheddedError("x")),
            exit_code_for(DeadlineExpiredError("x")),
            exit_code_for(ServiceUnavailableError("x")),
            exit_code_for(KeypadError("x")),
            exit_code_for(ControlError("x")),
        }
        assert len(codes) == 5

    def test_control_error_maps_to_six(self):
        assert exit_code_for(ControlError("x")) == 6
        # ConfigError is a config-time error, not a control-channel
        # fault: it keeps the generic code.
        assert exit_code_for(ConfigError("x")) == 1

    def test_shed_beats_unavailable(self):
        # OverloadSheddedError IS-A ServiceUnavailableError (existing
        # fault handling keeps working); the CLI still distinguishes it.
        assert issubclass(OverloadSheddedError, ServiceUnavailableError)
        assert exit_code_for(OverloadSheddedError("x")) == 5
        assert exit_code_for(DeadlineExpiredError("x")) == 3
        assert exit_code_for(NetworkUnavailableError("x")) == 4
        assert exit_code_for(AuthorizationError("x")) == 1
