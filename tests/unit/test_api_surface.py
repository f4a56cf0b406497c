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
    "ClusterAuditLog", "Region", "Topology",
    # forensics
    "AuditTool", "AuditReport",
    # audit store (event-sourced log + materialized views)
    "AppendOnlyLog", "AuditSpec", "LogEntry",
    "SegmentedAuditStore", "AuditSegment", "AuditViews",
    # durable audit store (segment spill + crash recovery)
    "DurableAuditStore", "BlobImage", "FLUSH_POLICIES",
    # fleet scale
    "run_fleet", "FleetResult", "DeviceProfile", "ServiceFrontend",
    "FrontendSpec", "ControlEvent",
    # runtime control plane
    "open_control", "ControlServer", "ControlClient", "PolicyEpoch",
    # audit blob namespace
    "BlobStore", "BlobNamespace",
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

    def test_one_storage_stack(self):
        import dataclasses

        assert "storage_backend" not in {
            f.name for f in dataclasses.fields(KeypadConfig)}
        assert not hasattr(api.KeypadConfigBuilder, "storage")
        for module in ("repro.storage.memfs", "repro.storage.casfs"):
            with pytest.raises(ModuleNotFoundError):
                __import__(module)

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
            .fast_transport()
            .replication(k=2, m=3)
            .tracing()
            .frontend(workers=16, policy="fifo")
            .build()
        )
        assert config.fast_transport
        assert config.cluster.total_replicas == 3
        assert config.cluster.threshold == 2
        assert not config.cluster.multi_region
        assert config.tracing
        assert config.frontend == api.FrontendSpec(workers=16, policy="fifo")

    def test_builder_from_base(self):
        base = KeypadConfig(texp=42.0)
        built = KeypadConfig.builder(base).frontend().build()
        assert built.texp == 42.0
        assert built.frontend == api.FrontendSpec()

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
            base = KeypadConfig(rekey_interval=0.0)
            KeypadConfig.builder(base).build()

    def test_texp_zero_is_the_no_caching_arm(self):
        # texp=0 is the paper's "unoptimized" configuration, not an
        # error; only negatives are contradictions.
        assert KeypadConfig.builder().texp(0.0).build().texp == 0.0

    def test_bundle_steps_reject_runtime_verbs(self):
        # Control-channel verbs are not config knobs; naming one as a
        # knob must fail with a pointer to the control channel, not a
        # generic unknown-field complaint.
        from repro.core.policy import PolicyEpoch

        with pytest.raises(ConfigError, match="control"):
            PolicyEpoch(KeypadConfig()).update(drain=True)

    @pytest.mark.parametrize("bad", [
        {"cluster": "us"},
        {"audit": "durable"},
        {"frontend": {"workers": 4}},
        {"protected_prefixes": "/home"},
        {"texp": "5"},
        {"fast_transport": "yes"},
        {"ibe_enabled": "false"},
        {"ibe_for_directories": 1},
        {"track_xattrs": None},
        {"tracing": "on"},
    ])
    def test_build_rejects_wrongly_typed_fields(self, bad):
        # A wrongly typed field fails at build with the one uniform
        # error, not later at mount with an AttributeError/TypeError.
        with pytest.raises(ConfigError):
            KeypadConfig.builder(KeypadConfig(**bad)).build()

    def test_mount_freezes_runtime_only_knobs(self):
        from repro.core.policy import PolicyEpoch

        epoch = PolicyEpoch(KeypadConfig())
        with pytest.raises(ConfigError, match="mount-frozen"):
            epoch.update(fast_transport=True)
        epoch.update(texp=7.0)
        assert epoch.config.texp == 7.0 and epoch.epoch == 1

    def test_flags_off_defaults_unchanged(self):
        config = KeypadConfig()
        assert config.frontend is None
        assert not config.fast_transport
        assert config.cluster is None
        assert not config.tracing


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
