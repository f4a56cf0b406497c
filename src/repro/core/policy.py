"""Keypad client configuration knobs.

Groups every tunable the evaluation sweeps: key expiration time,
in-flight (IBE-locked) expiration, prefetch policy, whether IBE is
enabled (the paper disables it below ~25 ms RTT), and the partial
coverage domain (§3.6).

Two lifecycles, one type.  A :class:`KeypadConfig` is frozen, but since
the live control plane (docs/CONTROL.md) a mounted file system holds it
inside a :class:`PolicyEpoch` — a mount-held cell whose *runtime
mutable* knobs (``RUNTIME_MUTABLE``) the control channel may replace
mid-run, bumping an epoch counter.  Operations snapshot the epoch's
config once (per :class:`~repro.core.context.OpContext`) so a single
VFS op never observes a mix of old and new policy.  Everything outside
``RUNTIME_MUTABLE`` is mount-frozen: :meth:`PolicyEpoch.update`
refuses it with :class:`~repro.errors.ConfigError`, the same uniform
error :meth:`KeypadConfigBuilder.build` raises for contradictory
bundles; a runtime-only control verb passed to it as a knob gets a
targeted error.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro.auditstore import AuditSpec
from repro.errors import ConfigError
from repro.server import FrontendSpec
from repro.util.paths import is_ancestor, normalize

if TYPE_CHECKING:
    from repro.cluster.federation import Topology

__all__ = [
    "KeypadConfig",
    "KeypadConfigBuilder",
    "PolicyEpoch",
    "coverage_for_prefixes",
    "validate_config",
    "RUNTIME_MUTABLE",
]

#: knobs the control channel may change on a live mount.  Everything
#: else is mount-frozen structure (transport mode, replica topology,
#: frontend capacity, audit store) that would need a remount.
RUNTIME_MUTABLE = frozenset({
    "texp",
    "texp_inflight",
    "prefetch",
    "protected_prefixes",
    "registration_retry_delay",
    "registration_max_retries",
})

#: control verbs that are runtime *actions*, not config fields; naming
#: one as a mount-time knob gets a targeted error instead of a generic
#: unknown-field complaint.
_RUNTIME_VERBS = frozenset({
    "drain", "admit", "revoke", "rotate_secret", "tail_trace",
})


def coverage_for_prefixes(prefixes: Sequence[str]) -> Callable[[str], bool]:
    """A coverage predicate protecting everything under the prefixes.

    The paper's suggested policy: "track accesses to any file in
    crucial directories, such as the user's home and temporary
    directory (e.g., /home and /tmp on Linux)".
    """
    normalized = [normalize(p) for p in prefixes]

    def predicate(path: str) -> bool:
        path = normalize(path)
        return any(
            root == "/" or root == path or is_ancestor(root, path)
            for root in normalized
        )

    return predicate


@dataclass(frozen=True)
class KeypadConfig:
    """Client-side policy; defaults mirror the prototype's."""

    # Key-cache expiration.  "Experimentally, we find that key
    # expirations as short as 100 seconds reap most of the performance
    # benefit of caching."
    texp: float = 100.0
    # Expiration for keys of files with in-flight metadata updates:
    # "our prototype expires cached keys with in-flight metadata
    # updates in one second."
    texp_inflight: float = 1.0
    # Prefetch policy spec ('none' | 'dir:N' | 'random:K').
    prefetch: str = "dir:3"
    # IBE for metadata updates.  "The crossover for IBE is around 25ms,
    # i.e., it should be used only for networks with RTTs over 25ms."
    ibe_enabled: bool = True
    # Protected-domain prefixes (partial coverage, §3.6).
    protected_prefixes: tuple[str, ...] = ("/",)
    # Background metadata-registration retry cadence.
    registration_retry_delay: float = 5.0
    registration_max_retries: int = 1000
    rekey_interval: float = 100.0
    # --- extensions beyond the paper's prototype ---
    # Asynchronous (non-blocking) directory registration; files created
    # under a not-yet-acked directory stay IBE-locked until the
    # directory ack lands, preserving audit semantics.  (The paper:
    # applying IBE to directory metadata "should be possible to add".)
    ibe_for_directories: bool = False
    # Register extended-attribute updates with the metadata service
    # ("Handling updates for other types of file metadata functions
    # (such as setfattr) works similarly").
    track_xattrs: bool = False
    # --- the v2 transport (off by default so the paper's figures
    # reproduce unchanged; see docs/PROTOCOL.md §8): pipelined
    # channels, single-flight coalescing of same-audit-ID fetches,
    # write-behind batching and a sharded key service, all at once.
    fast_transport: bool = False
    # --- replicated key-service cluster (§ "Improving Availability /
    # Multiple Key Services"; None keeps the paper's single service,
    # byte-for-byte).  A frozen
    # :class:`~repro.cluster.federation.Topology`: K_R is secret-shared
    # k-of-m across its replicas, and a fetch needs ``threshold``
    # shares, each independently audited.  One region is the flat
    # cluster (``builder().replication(k, m)``); several regions add
    # region labels and geo-routing (``builder().federation(...)``).
    cluster: Optional["Topology"] = None
    # --- observability: the per-operation context seam (see
    # docs/OBSERVABILITY.md).  All off by default so flags-off runs
    # stay byte-identical with the pre-context tree.
    # Collect per-op trace span trees (keypad-audit trace).
    tracing: bool = False
    # Wall-clock (sim-time) budget per VFS operation; None = unbounded.
    # When set, RPC layers race against it and raise
    # DeadlineExpiredError uniformly.
    op_deadline: Optional[float] = None
    # --- server-side frontend (fleet scale; see docs/PROTOCOL.md §10):
    # one frozen FrontendSpec (workers, queue limit, policy, group
    # size).  None keeps the paper's infinite-capacity model (every
    # request served on arrival).
    frontend: Optional[FrontendSpec] = None
    # --- audit store (see repro.auditstore / docs/AUDITSTORE.md): one
    # frozen AuditSpec — 'flat' (the paper's single AppendOnlyLog per
    # replica, the default), 'segmented' (seal-chained segments with
    # materialized forensic views) or 'durable' (segmented, spilled
    # through the rig's blob namespace).  Mount-frozen: the
    # store holds the audit trail, so it cannot be swapped under a live
    # mount.
    audit: AuditSpec = AuditSpec()

    def coverage(self) -> Callable[[str], bool]:
        return coverage_for_prefixes(self.protected_prefixes)

    @classmethod
    def builder(cls, base: Optional["KeypadConfig"] = None) -> "KeypadConfigBuilder":
        """One chainable entry point for every feature bundle::

            config = (KeypadConfig.builder()
                      .fast_transport()
                      .replication(k=2, m=3)
                      .tracing(op_deadline=5.0)
                      .frontend(workers=16)
                      .build())

        A builder with no steps builds the exact default config.
        """
        return KeypadConfigBuilder(base if base is not None else cls())


class KeypadConfigBuilder:
    """Chainable construction of a :class:`KeypadConfig`.

    Each step is a named feature bundle; steps compose in any order and
    later steps override earlier ones (last-write-wins on shared
    fields, like the dataclass ``replace`` calls they compile to).
    ``build()`` returns the frozen config; the builder itself is
    single-use plumbing and never escapes into the rig.
    """

    def __init__(self, base: Optional[KeypadConfig] = None):
        self._config = base if base is not None else KeypadConfig()

    # -- single-knob steps ---------------------------------------------------
    def texp(self, seconds: float) -> "KeypadConfigBuilder":
        self._config = replace(self._config, texp=seconds)
        return self

    def prefetch(self, spec: str) -> "KeypadConfigBuilder":
        self._config = replace(self._config, prefetch=spec)
        return self

    def ibe(self, enabled: bool = True) -> "KeypadConfigBuilder":
        self._config = replace(self._config, ibe_enabled=enabled)
        return self

    # -- feature bundles -----------------------------------------------------
    def fast_transport(self) -> "KeypadConfigBuilder":
        """The v2 transport on (the ablation's 'fast' arm)."""
        self._config = replace(self._config, fast_transport=True)
        return self

    def replication(self, k: int = 2, m: int = 3) -> "KeypadConfigBuilder":
        """A k-of-m replicated key-service cluster (default 2-of-3): a
        one-region :class:`~repro.cluster.federation.Topology`, which
        raises :class:`~repro.errors.ConfigError` on a bad k/m."""
        from repro.cluster.federation import Topology

        topology = Topology.symmetric(
            regions=("local",), replicas_per_region=m, threshold=k
        )
        self._config = replace(self._config, cluster=topology)
        return self

    def federation(
        self,
        topology: Optional["Topology"] = None,
        regions: Sequence[str] | int = 3,
        replicas_per_region: int = 2,
        k: int = 2,
        rtt_ms: float = 80.0,
    ) -> "KeypadConfigBuilder":
        """A multi-region federated key-service cluster.

        Pass a ready :class:`~repro.cluster.federation.Topology`, or
        let the bundle build a symmetric one from ``regions`` /
        ``replicas_per_region`` / ``k`` / ``rtt_ms``.
        """
        from repro.cluster.federation import Topology

        if topology is None:
            topology = Topology.symmetric(
                regions=regions,
                replicas_per_region=replicas_per_region,
                threshold=k,
                rtt_ms=rtt_ms,
            )
        self._config = replace(self._config, cluster=topology)
        return self

    def audit_store(
        self,
        store: str = "segmented",
        segment_entries: int = 1024,
        flush_policy: str = "every-seal",
        flush_every: int = 64,
    ) -> "KeypadConfigBuilder":
        """Select the audit store (see docs/AUDITSTORE.md): ``'flat'``
        (the paper's append-only log, the default), ``'segmented'``
        (event-sourced segments + materialized forensic views) or
        ``'durable'`` (segmented, spilled through the rig's
        blob namespace, with crash recovery; ``flush_policy`` and
        ``flush_every`` set its group-commit cadence).  Builds the
        config's :class:`~repro.auditstore.AuditSpec`, which raises
        :class:`~repro.errors.ConfigError` on a bad value."""
        self._config = replace(self._config, audit=AuditSpec(
            store=store,
            segment_entries=segment_entries,
            flush_policy=flush_policy,
            flush_every=flush_every,
        ))
        return self

    def tracing(
        self, op_deadline: Optional[float] = None
    ) -> "KeypadConfigBuilder":
        """Enable trace collection (and optionally op deadlines)."""
        self._config = replace(self._config, tracing=True,
                               op_deadline=op_deadline)
        return self

    def frontend(self, **knobs: Any) -> "KeypadConfigBuilder":
        """Install the server-side scheduler frontend on the rig's key
        service(s): bounded workers, per-device fair queueing, deadline
        admission control, and cross-device group commit (PROTOCOL.md
        §10).  The keyword knobs build the config's
        :class:`~repro.server.FrontendSpec` (``workers``,
        ``queue_limit``, ``policy``, ``coalesce``), which raises
        :class:`~repro.errors.ConfigError` on a bad value."""
        self._config = replace(self._config, frontend=FrontendSpec(**knobs))
        return self

    def build(self) -> KeypadConfig:
        """Validate the accumulated bundles once and return the config.

        Cross-feature constraints live here (and nowhere else) so every
        construction order hits the same checks; a contradictory
        combination raises :class:`~repro.errors.ConfigError`.
        """
        validate_config(self._config)
        return self._config


def _reject_runtime_verb(name: str) -> None:
    if name in _RUNTIME_VERBS:
        raise ConfigError(
            f"{name!r} is a runtime control verb (see docs/CONTROL.md), "
            "not a mount-time knob; issue it through a ControlClient on "
            "the live mount instead"
        )


#: knobs ``validate_config`` checks, by type: times in seconds (any
#: real number), counts (ints) and switches (bools only: the string
#: "false" is truthy).  A ``bool`` is neither a time nor a count.
_SECONDS = ("texp", "texp_inflight", "rekey_interval",
            "registration_retry_delay")
_COUNTS = ("registration_max_retries",)
_SWITCHES = ("ibe_enabled", "ibe_for_directories", "track_xattrs",
             "tracing", "fast_transport")


def _typed(config: KeypadConfig, name: str, kind, what: str) -> None:
    value = getattr(config, name)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{name} must be {what}, got {value!r}")


def validate_config(config: KeypadConfig) -> KeypadConfig:
    """Cross-feature validation shared by ``build()`` and mount.

    Raises :class:`~repro.errors.ConfigError` (the one uniform type)
    on any contradiction or wrongly typed value; returns the config
    unchanged otherwise so call sites can chain it.
    """
    from repro.cluster.federation import Topology

    for name in _SECONDS:
        _typed(config, name, (int, float), "a number")
    for name in _COUNTS:
        _typed(config, name, int, "an int")
    for name in _SWITCHES:
        value = getattr(config, name)
        if not isinstance(value, bool):
            raise ConfigError(f"{name} must be a bool, got {value!r}")
    if config.op_deadline is not None:
        _typed(config, "op_deadline", (int, float), "a number or None")
    if config.cluster is not None:
        _typed(config, "cluster", Topology, "a Topology or None")
    if config.frontend is not None:
        _typed(config, "frontend", FrontendSpec, "a FrontendSpec or None")
    _typed(config, "audit", AuditSpec, "an AuditSpec")
    prefixes = config.protected_prefixes
    if (not isinstance(prefixes, (tuple, list))
            or not all(isinstance(p, str) for p in prefixes)):
        # A bare string would iterate as one-letter "prefixes" and
        # silently unprotect every real path.
        raise ConfigError(f"protected_prefixes must be a tuple of path "
                          f"strings, got {prefixes!r}")
    for name in ("texp_inflight", "rekey_interval",
                 "registration_retry_delay"):
        value = getattr(config, name)
        if not value > 0:
            raise ConfigError(f"{name} must be > 0, got {value!r}")
    # texp=0.0 is the paper's no-caching arm ("unoptimized"), so zero
    # is meaningful; only negatives are contradictions.
    if config.texp < 0:
        raise ConfigError(f"texp must be >= 0 (0 disables caching), "
                          f"got {config.texp!r}")
    if config.texp > 0 and config.texp_inflight > config.texp:
        raise ConfigError(
            f"texp_inflight ({config.texp_inflight}) must not exceed "
            f"texp ({config.texp}): the in-flight window is a "
            "*restriction* of the full expiration"
        )
    if config.registration_max_retries < 1:
        raise ConfigError("registration_max_retries must be >= 1")
    if config.op_deadline is not None and not config.op_deadline > 0:
        raise ConfigError(f"op_deadline must be > 0 or None, "
                          f"got {config.op_deadline!r}")
    if not config.protected_prefixes:
        raise ConfigError(
            "protected_prefixes must not be empty — use an unprotected "
            "baseline rig (build_encfs_rig) to disable Keypad coverage"
        )
    from repro.core.prefetch import make_policy

    try:
        make_policy(config.prefetch)
    except Exception as exc:
        raise ConfigError(
            f"bad prefetch spec {config.prefetch!r}: {exc}"
        ) from None
    return config


class PolicyEpoch:
    """The mount-held policy cell: a frozen config plus an epoch counter.

    A mounted :class:`~repro.core.fs.KeypadFS` reads its knobs through
    one of these instead of a frozen global.  The control channel calls
    :meth:`update` to replace the runtime-mutable subset atomically;
    each update bumps ``epoch`` and notifies subscribers (the FS uses
    this to re-target the key cache and rebuild the prefetch policy).
    Operations call :meth:`snapshot` once at entry, so one VFS op never
    mixes two epochs' knobs.
    """

    def __init__(self, config: KeypadConfig):
        self._config = validate_config(config)
        self.epoch = 0
        self._coverage = config.coverage()
        self._subscribers: list[Callable[[KeypadConfig, KeypadConfig], None]] = []

    # -- reads ---------------------------------------------------------------
    @property
    def config(self) -> KeypadConfig:
        return self._config

    def snapshot(self) -> KeypadConfig:
        """The per-op snapshot (frozen, so sharing the object is safe)."""
        return self._config

    def coverage(self, path: str) -> bool:
        """Protected-domain test against the *current* epoch (cached
        per epoch: rebuilding the predicate per call would make every
        VFS op pay for a control-plane feature that is off)."""
        return self._coverage(path)

    def subscribe(
        self, fn: Callable[[KeypadConfig, KeypadConfig], None]
    ) -> None:
        """Register ``fn(old_config, new_config)`` for epoch changes."""
        self._subscribers.append(fn)

    # -- writes --------------------------------------------------------------
    def update(self, **changes: Any) -> KeypadConfig:
        """Replace runtime-mutable knobs; one atomic epoch bump.

        Raises :class:`~repro.errors.ConfigError` for unknown fields,
        mount-frozen fields, or a resulting config that fails
        cross-validation.  Returns the new config.
        """
        known = {f.name for f in fields(KeypadConfig)}
        for name in changes:
            if name not in known:
                _reject_runtime_verb(name)
                raise ConfigError(f"unknown config field {name!r}")
            if name not in RUNTIME_MUTABLE:
                raise ConfigError(
                    f"{name!r} is mount-frozen; changing it needs a "
                    "remount (runtime-mutable knobs: "
                    f"{sorted(RUNTIME_MUTABLE)})"
                )
        prefixes = changes.get("protected_prefixes")
        if isinstance(prefixes, list):  # a tuple crosses the wire as a list
            changes["protected_prefixes"] = tuple(prefixes)
        return self._install(replace(self._config, **changes))

    def replace_config(self, config: KeypadConfig) -> KeypadConfig:
        """Wholesale replacement (test/diagnostic seam — e.g. the
        deadline-invariant suite flips ``op_deadline`` between runs).
        Still validated; mount-frozen fields are the caller's risk."""
        return self._install(config)

    def _install(self, new: KeypadConfig) -> KeypadConfig:
        validate_config(new)
        old, self._config = self._config, new
        self.epoch += 1
        if new.protected_prefixes != old.protected_prefixes:
            self._coverage = new.coverage()
        for fn in self._subscribers:
            fn(old, new)
        return new
