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
bundles and that the builder raises for runtime-only control verbs
passed as mount-time knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Optional, Sequence

from repro.errors import ConfigError
from repro.util.paths import is_ancestor, normalize

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
#: frontend capacity, storage backend) that would need a remount.
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
    "drain", "admit", "revoke", "rotate_secret", "swap_backend",
    "tail_trace",
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
    # --- transport extensions (all off by default so the paper's
    # figures reproduce unchanged; see docs/PROTOCOL.md) ---
    # Protocol-v2 pipelining: multiple in-flight RPCs per channel.
    pipelining: bool = False
    # Bound on concurrently outstanding requests per channel.
    max_inflight: int = 8
    # Single-flight coalescing of concurrent same-audit-ID fetches.
    coalesce_fetches: bool = False
    # Write-behind batching of eviction notices / xattr registrations.
    write_behind: bool = False
    write_behind_interval: float = 1.0
    # Key-service escrow-map/log shards (1 = the paper's single queue).
    key_shards: int = 1
    # --- replicated key-service cluster (§ "Improving Availability /
    # Multiple Key Services"; replicas=1 keeps the paper's single
    # service, byte-for-byte).  K_R is secret-shared k-of-m across the
    # replicas; a fetch needs replica_threshold shares, each of which
    # is independently audited.
    replicas: int = 1
    replica_threshold: int = 1
    # Failure-aware client: per-request deadline, hedging delay for
    # lagging replicas, retry budget with exponential backoff + jitter,
    # and health-tracking cooldown for replicas that keep failing.
    replica_deadline: float = 2.0
    replica_hedge_delay: float = 0.75
    replica_max_retries: int = 4
    replica_backoff: float = 0.25
    replica_backoff_cap: float = 4.0
    replica_failure_threshold: int = 2
    replica_cooldown: float = 8.0
    # Multi-region federation: a frozen
    # :class:`~repro.cluster.federation.Topology` (regions,
    # replicas-per-region, k/m, inter-region RTT matrix, gossip/lease
    # knobs).  None (the default) keeps the flat single-service or
    # plain-cluster paths; set it through ``builder().federation(...)``
    # which also aligns ``replicas``/``replica_threshold``.
    federation: Optional[Any] = None
    # --- observability: the per-operation context seam (see
    # docs/OBSERVABILITY.md).  All off by default so flags-off runs
    # stay byte-identical with the pre-context tree.
    # Collect per-op trace span trees (keypad-audit trace).
    tracing: bool = False
    # Wall-clock (sim-time) budget per VFS operation; None = unbounded.
    # When set, RPC layers race against it and raise
    # DeadlineExpiredError uniformly.
    op_deadline: Optional[float] = None
    # Extra retry attempts the whole op may spend across all layers
    # (cluster backoff and per-RPC retries draw from one pool);
    # 0 = no explicit budget (each layer's own policy governs).
    op_retry_budget: int = 0
    # --- server-side frontend (fleet scale; see docs/PROTOCOL.md §10).
    # Off by default: without it the key service keeps the paper's
    # infinite-capacity model (every request served on arrival).
    frontend_enabled: bool = False
    # Concurrent server workers (the service's capacity).
    frontend_workers: int = 8
    # Per-device pending-request bound; arrivals beyond it are shed.
    frontend_queue_limit: int = 64
    # 'drr' (deficit-round-robin fair queueing) or 'fifo'.
    frontend_policy: str = "drr"
    # Deadline-based admission control (queue-limit shedding is always on).
    frontend_shed: bool = True
    # Max cross-device group-commit size for key.fetch (1 disables).
    frontend_coalesce: int = 8
    # DRR credit units granted per scheduling round.
    frontend_quantum: int = 1
    # --- storage backend (see repro.storage.backend).  'ext3' keeps
    # the paper's BlockDevice -> BufferCache -> LocalFileSystem stack
    # byte for byte; 'memory' and 'cas' are opt-in alternatives.
    storage_backend: str = "ext3"
    # --- audit store (see repro.auditstore / docs/AUDITSTORE.md).
    # 'flat' keeps the paper's single AppendOnlyLog per replica;
    # 'segmented' is the event-sourced store with seal-chained
    # segments and materialized forensic views.  Mount-frozen: the
    # store holds the durable audit trail, so it cannot be swapped
    # under a live mount.
    audit_store: str = "flat"
    # Records per segment before the active segment is sealed.
    audit_segment_entries: int = 1024
    # Compact segments to their packed form as soon as they seal.
    audit_auto_compact: bool = True
    # Persist the audit store through the storage backend's blob
    # namespace (segmented only): sealed segments spill as write-once
    # blobs and the active tail group-commits on the flush policy.
    # Mount-frozen, like the store itself.
    audit_durable: bool = False
    # 'every-append' | 'every-seal' | 'every-n' (see docs/AUDITSTORE.md).
    audit_flush_policy: str = "every-seal"
    # Appends between tail flushes under 'every-n'.
    audit_flush_every: int = 64
    # Appends between automatic view checkpoints (0 = manual only,
    # via ctl.audit_checkpoint).
    audit_checkpoint_every: int = 0

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

    def frontend_knobs(self) -> dict:
        """The ``install_frontend`` kwargs this config encodes."""
        return {
            "workers": self.frontend_workers,
            "queue_limit": self.frontend_queue_limit,
            "policy": self.frontend_policy,
            "shed": self.frontend_shed,
            "coalesce": self.frontend_coalesce,
            "quantum": self.frontend_quantum,
        }


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
    def fast_transport(
        self, key_shards: int = 4, max_inflight: int = 32
    ) -> "KeypadConfigBuilder":
        """All transport optimisations on (the ablation's 'fast' arm).

        The window default is generous: the seed's serial mode places no
        bound on concurrent calls, so a tight window would *add* queuing
        that the paper's prototype never had.
        """
        self._config = replace(
            self._config,
            pipelining=True,
            max_inflight=max_inflight,
            coalesce_fetches=True,
            write_behind=True,
            key_shards=key_shards,
        )
        return self

    def replication(self, k: int = 2, m: int = 3, **knobs) -> "KeypadConfigBuilder":
        """A k-of-m replicated key-service cluster (default 2-of-3).

        Extra keyword arguments override the ``replica_*`` client knobs
        (deadline, hedging, retries, cooldown) — and *only* those.
        Historically this escape hatch forwarded anything to the
        dataclass, so ``.frontend(...).replication(..., frontend_enabled=
        False)`` silently undid an earlier bundle depending on call
        order; now a non-``replica_*`` name raises
        :class:`~repro.errors.ConfigError` immediately.
        """
        if not 1 <= k <= m:
            raise ConfigError(
                f"need 1 <= k <= m, got k={k} m={m}"
            )
        _check_replica_knobs("replication", knobs)
        self._config = replace(
            self._config, replicas=m, replica_threshold=k, **knobs
        )
        return self

    def federation(
        self,
        topology: Optional[Any] = None,
        regions: Sequence[str] | int = 3,
        replicas_per_region: int = 2,
        k: int = 2,
        rtt_ms: float = 80.0,
        **knobs,
    ) -> "KeypadConfigBuilder":
        """A multi-region federated key-service cluster.

        Pass a ready :class:`~repro.cluster.federation.Topology`, or
        let the bundle build a symmetric one from ``regions`` /
        ``replicas_per_region`` / ``k`` / ``rtt_ms``.  The bundle also
        sets ``replicas`` and ``replica_threshold`` from the topology,
        so the cluster knobs can never disagree with the region shape.
        Extra keyword arguments are restricted to the ``replica_*``
        client knobs, exactly like :meth:`replication`.
        """
        from repro.cluster.federation import Topology

        if topology is None:
            topology = Topology.symmetric(
                regions=regions,
                replicas_per_region=replicas_per_region,
                threshold=k,
                rtt_ms=rtt_ms,
            )
        _check_replica_knobs("federation", knobs)
        try:
            topology.validate()
        except ValueError as exc:
            raise ConfigError(f"invalid federation topology: {exc}") from exc
        self._config = replace(
            self._config,
            federation=topology,
            replicas=topology.total_replicas,
            replica_threshold=topology.threshold,
            **knobs,
        )
        return self

    def storage(self, backend: str = "ext3") -> "KeypadConfigBuilder":
        """Select the lower storage backend (see repro.storage.backend):
        ``'ext3'`` (the default block-device stack), ``'memory'``
        (zero-I/O ideal store), or ``'cas'`` (content-addressed,
        deduplicating)."""
        self._config = replace(self._config, storage_backend=backend)
        return self

    def audit_store(
        self,
        store: str = "segmented",
        segment_entries: int = 1024,
        auto_compact: bool = True,
        durable: bool = False,
        flush_policy: str = "every-seal",
        flush_every: int = 64,
        checkpoint_every: int = 0,
    ) -> "KeypadConfigBuilder":
        """Select the audit-store engine (see docs/AUDITSTORE.md):
        ``'flat'`` (the paper's append-only log, the default) or
        ``'segmented'`` (event-sourced segments + materialized forensic
        views).  ``durable=True`` (segmented only) spills the store
        through the storage backend's blob namespace and enables crash
        recovery; ``flush_policy``/``flush_every`` set the group-commit
        cadence and ``checkpoint_every`` the automatic view-checkpoint
        interval."""
        self._config = replace(
            self._config,
            audit_store=store,
            audit_segment_entries=segment_entries,
            audit_auto_compact=auto_compact,
            audit_durable=durable,
            audit_flush_policy=flush_policy,
            audit_flush_every=flush_every,
            audit_checkpoint_every=checkpoint_every,
        )
        return self

    def tracing(
        self,
        op_deadline: Optional[float] = None,
        op_retry_budget: int = 0,
    ) -> "KeypadConfigBuilder":
        """Enable trace collection (and optionally op deadlines/budgets)."""
        self._config = replace(
            self._config,
            tracing=True,
            op_deadline=op_deadline,
            op_retry_budget=op_retry_budget,
        )
        return self

    def frontend(
        self,
        workers: int = 8,
        queue_limit: int = 64,
        policy: str = "drr",
        shed: bool = True,
        coalesce: int = 8,
        quantum: int = 1,
    ) -> "KeypadConfigBuilder":
        """Install the server-side scheduler frontend on the rig's key
        service(s): bounded workers, per-device fair queueing, deadline
        admission control, and cross-device group commit (PROTOCOL.md
        §10)."""
        self._config = replace(
            self._config,
            frontend_enabled=True,
            frontend_workers=workers,
            frontend_queue_limit=queue_limit,
            frontend_policy=policy,
            frontend_shed=shed,
            frontend_coalesce=coalesce,
            frontend_quantum=quantum,
        )
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


def _check_replica_knobs(bundle: str, knobs: dict) -> None:
    """Let a cluster bundle take only ``replica_*`` keyword knobs."""
    for name in knobs:
        _reject_runtime_verb(name)
        if not name.startswith("replica_"):
            raise ConfigError(
                f"{bundle}() only takes replica_* knobs, got "
                f"{name!r} (set it through its own bundle so "
                "bundle order cannot silently override it)"
            )


def _positive(config: KeypadConfig, name: str) -> None:
    value = getattr(config, name)
    if not value > 0:
        raise ConfigError(f"{name} must be > 0, got {value!r}")


def validate_config(config: KeypadConfig) -> KeypadConfig:
    """Cross-feature validation shared by ``build()`` and mount.

    Raises :class:`~repro.errors.ConfigError` (the one uniform type)
    on any contradiction; returns the config unchanged otherwise so
    call sites can chain it.
    """
    for name in ("texp_inflight", "rekey_interval",
                 "registration_retry_delay", "write_behind_interval",
                 "replica_deadline", "replica_backoff",
                 "replica_backoff_cap", "replica_cooldown"):
        _positive(config, name)
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
    if config.max_inflight < 1:
        raise ConfigError("max_inflight must be >= 1")
    if config.key_shards < 1:
        raise ConfigError("key_shards must be >= 1")
    if not 1 <= config.replica_threshold <= config.replicas:
        raise ConfigError(
            f"need 1 <= threshold <= replicas, got "
            f"threshold={config.replica_threshold} "
            f"replicas={config.replicas}"
        )
    if config.federation is not None:
        # Lazy import: flags-off configs never touch the cluster pkg.
        from repro.cluster.federation import Topology

        if not isinstance(config.federation, Topology):
            raise ConfigError(
                "federation must be a repro.cluster.federation.Topology "
                f"(got {type(config.federation).__name__}); build it "
                "through KeypadConfig.builder().federation(...)"
            )
        try:
            config.federation.validate()
        except ValueError as exc:
            raise ConfigError(
                f"invalid federation topology: {exc}"
            ) from exc
        if (config.replicas != config.federation.total_replicas
                or config.replica_threshold != config.federation.threshold):
            raise ConfigError(
                "federation topology disagrees with replicas/"
                f"replica_threshold ({config.federation.total_replicas}/"
                f"{config.federation.threshold} vs {config.replicas}/"
                f"{config.replica_threshold}); set both through "
                "builder().federation(...)"
            )
    if config.replica_max_retries < 0:
        raise ConfigError("replica_max_retries must be >= 0")
    if config.replica_failure_threshold < 1:
        raise ConfigError("replica_failure_threshold must be >= 1")
    if config.op_deadline is not None and not config.op_deadline > 0:
        raise ConfigError(f"op_deadline must be > 0 or None, "
                          f"got {config.op_deadline!r}")
    if config.op_retry_budget < 0:
        raise ConfigError("op_retry_budget must be >= 0")
    if config.frontend_policy not in ("drr", "fifo"):
        raise ConfigError(
            f"frontend_policy must be 'drr' or 'fifo', "
            f"got {config.frontend_policy!r}"
        )
    for name in ("frontend_workers", "frontend_queue_limit",
                 "frontend_coalesce", "frontend_quantum"):
        if getattr(config, name) < 1:
            raise ConfigError(f"{name} must be >= 1")
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
    from repro.storage.backend import BACKENDS

    if config.storage_backend not in BACKENDS:
        raise ConfigError(
            f"unknown storage backend {config.storage_backend!r}; "
            f"choose one of {sorted(BACKENDS)}"
        )
    if config.audit_store not in ("flat", "segmented"):
        raise ConfigError(
            f"audit_store must be 'flat' or 'segmented', "
            f"got {config.audit_store!r}"
        )
    if config.audit_segment_entries < 2:
        raise ConfigError(
            f"audit_segment_entries must be >= 2, "
            f"got {config.audit_segment_entries!r}"
        )
    if config.audit_durable and config.audit_store != "segmented":
        raise ConfigError(
            "audit_durable=True requires audit_store='segmented' "
            f"(got {config.audit_store!r})"
        )
    if config.audit_flush_policy not in (
        "every-append", "every-seal", "every-n"
    ):
        raise ConfigError(
            f"audit_flush_policy must be 'every-append', 'every-seal', "
            f"or 'every-n', got {config.audit_flush_policy!r}"
        )
    if config.audit_flush_every < 1:
        raise ConfigError(
            f"audit_flush_every must be >= 1, "
            f"got {config.audit_flush_every!r}"
        )
    if config.audit_checkpoint_every < 0:
        raise ConfigError(
            f"audit_checkpoint_every must be >= 0, "
            f"got {config.audit_checkpoint_every!r}"
        )
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
        if "protected_prefixes" in changes:
            changes["protected_prefixes"] = tuple(
                changes["protected_prefixes"]
            )
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
