"""KeypadFS: the auditing file system (paper §3–§4).

Keypad extends the EncFS stacking with per-file keys escrowed on the
remote key service:

* every protected file gets a random 192-bit **audit ID** and a random
  **data key** K_D; K_D is stored in the file header wrapped under a
  **remote key** K_R known only to the key service;
* content reads/writes need K_D, so a cold access forces a ``key.fetch``
  RPC that the service *durably logs before answering* — the audit
  trail;
* fetched keys live in the expiring :class:`KeyCache` (§3.3), with
  directory-level prefetching to absorb scanning workloads;
* metadata updates (create/rename) either block on the metadata
  service, or — with IBE enabled (§3.4) — lock the wrapped data key
  under the identity ``directoryID/filename|auditID`` and complete
  asynchronously: the file stays usable for one second from cache,
  after which it is unreadable until the metadata service confirms the
  registration and releases the IBE private key;
* unprotected files (partial coverage, §3.6) behave exactly like EncFS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from repro.costmodel import DEFAULT_COSTS, CostModel
from repro.crypto.ibe import decrypt as ibe_decrypt
from repro.encfs.fs import StackedCryptFs
from repro.encfs.volume import Volume
from repro.errors import (
    KeypadError,
    LockedFileError,
    NetworkUnavailableError,
    RevokedError,
)
from repro.sim import Simulation
from repro.storage.backend import FsInterface
from repro.util.paths import basename, normalize, parent_of
from repro.core.client import (
    DirRegistration,
    EvictionNotice,
    FileRegistration,
    IbeRegistration,
    KeyCreate,
    KeyFetch,
    KeyUpload,
    ServiceSession,
    XattrRegistration,
)
from repro.core.header import (
    AUDIT_ID_LEN,
    DATA_KEY_LEN,
    KEYPAD_HEADER_LEN,
    KeypadHeader,
    pack_header,
    parse_header,
    unwrap_data_key,
    wrap_data_key,
)
from repro.core.context import OpContext, maybe_span
from repro.core.keycache import KeyCache
from repro.core.policy import KeypadConfig, PolicyEpoch
from repro.core.prefetch import decision_attrs, filter_inflight, make_policy
from repro.core.services.metadataservice import ROOT_DIR_ID, identity_string

__all__ = ["KeypadFS"]

_REMOTE_KEY_LEN = 32


@dataclass
class _PendingRegistration:
    """State of one in-flight IBE metadata registration.

    A rename of a still-locked file *supersedes* the registration
    (updates identity/path) rather than blocking on it — the background
    process keeps registering until the acked identity matches the
    current one, so the service always ends up with the latest path
    (intermediate paths land in the append-only log as history).
    """

    audit_id: bytes
    wrapped: bytes
    identity: bytes
    path_hint: str
    event: Any
    upload_key: Optional[bytes]


class KeypadFS(StackedCryptFs):
    """The Keypad client file system."""

    HEADER_LEN = KEYPAD_HEADER_LEN

    def __init__(
        self,
        sim: Simulation,
        lower: FsInterface,
        volume: Volume,
        services: ServiceSession,
        config: KeypadConfig = KeypadConfig(),
        costs: CostModel = DEFAULT_COSTS,
        drbg_seed: bytes = b"keypad-device",
        verify_content: bool = False,
    ):
        super().__init__(sim, lower, volume, costs, drbg_seed=drbg_seed,
                         verify_content=verify_content)
        self.services = services
        # The mount-held policy cell.  A plain KeypadConfig is wrapped;
        # passing a PolicyEpoch shares the cell (the control server
        # updates it and this FS observes the change).
        self.policy = (
            config if isinstance(config, PolicyEpoch) else PolicyEpoch(config)
        )
        self.policy.subscribe(self._on_policy_change)
        # Set by ControlServer.attach: ops then mint an OpContext (and
        # with it a per-op policy snapshot) even when tracing is off.
        self.control_enabled = False
        # The session owns the TraceCollector (if any); the FS mints a
        # per-VFS-op OpContext against it (see _op_context).
        self.tracer = services.tracer
        self.key_cache = KeyCache(
            sim,
            refresh_fn=self._refresh_key,
            on_evict=self._note_eviction if services.fast_transport else None,
            tracer=self.tracer,
        )
        self.prefetch_policy = make_policy(self.policy.config.prefetch)
        self.ibe_params = services.metadata_service.pkg.params
        self.ibe_public = services.metadata_service.pkg.public(
            seed=drbg_seed + b"|ibe"
        )
        self._dir_ids: dict[str, str] = {"/": ROOT_DIR_ID}
        self._next_dir_serial = 0
        self._pending_unlocks: dict[bytes, Any] = {}
        # Extension state: launch profiles + async dir registration acks.
        from repro.core.launchprofile import LaunchProfiler

        self.launch_profiler = LaunchProfiler()
        self._dir_acks: dict[str, Any] = {}  # dir_id -> Event (pending)
        # audit ID or dir ID -> the newest name of a moved entry whose
        # blocking registration failed (see _register_move).
        self._owed: dict[Any, Any] = {}
        self._prand = None  # lazy SimRandom for random prefetch sampling
        self.stats: dict[str, int] = {
            "blocking_key_fetches": 0,
            "prefetch_batches": 0,
            "prefetched_keys": 0,
            "blocking_metadata_ops": 0,
            "async_metadata_ops": 0,
            "ibe_locks": 0,
            "ibe_unlocks": 0,
            "unlock_waits": 0,
            "blocking_unlocks": 0,
        }

    # ------------------------------------------------------------------
    # Live policy (PolicyEpoch) access.
    # ------------------------------------------------------------------
    @property
    def config(self) -> KeypadConfig:
        """The current epoch's config.  Assignment replaces it wholesale
        (validated) — the historical test seam for flipping knobs."""
        return self.policy.config

    @config.setter
    def config(self, value: KeypadConfig) -> None:
        self.policy.replace_config(value)

    def is_protected(self, path: str) -> bool:
        return self.policy.coverage(path)

    def _cfg(self, ctx: Optional[OpContext] = None) -> KeypadConfig:
        """The policy snapshot governing this op: the one stamped on its
        context when there is one, the current epoch otherwise."""
        if ctx is not None and ctx.config is not None:
            return ctx.config
        return self.policy.config

    def _on_policy_change(self, old: KeypadConfig, new: KeypadConfig) -> None:
        """Epoch-change subscriber: re-target live derived state."""
        if new.texp != old.texp:
            self.key_cache.retarget_texp(new.texp)
        if new.prefetch != old.prefetch:
            self.prefetch_policy = make_policy(new.prefetch)

    # ------------------------------------------------------------------
    # Per-operation contexts (deadline / trace spans).
    # ------------------------------------------------------------------
    def _op_context(self, op: str, path: str) -> Optional[OpContext]:
        """Mint the op's context, or None when observability is off.

        With a control server attached, every op gets a context purely
        to carry its policy snapshot — a mid-op ``ctl.set-texp`` must
        not hand one VFS op a mix of two epochs' knobs.
        """
        cfg = self.policy.snapshot()
        if (self.tracer is None and cfg.op_deadline is None
                and not self.control_enabled):
            return None
        deadline = (
            None if cfg.op_deadline is None else self.sim.now + cfg.op_deadline
        )
        return OpContext(
            self.sim,
            op,
            device_id=self.services.device_id,
            path=normalize(path),
            deadline=deadline,
            collector=self.tracer,
            config=cfg,
        )

    def _background_context(self, op: str, path: str = "") -> Optional[OpContext]:
        """Context for maintenance processes (registrations); traced,
        but never deadline-bounded — the op that spawned them already
        returned."""
        if self.tracer is None:
            return None
        return OpContext(
            self.sim,
            op,
            device_id=self.services.device_id,
            path=normalize(path) if path else None,
            collector=self.tracer,
        )

    # ------------------------------------------------------------------
    # Directory identifiers (metadata is dir_id/filename tuples).
    # ------------------------------------------------------------------
    def _new_dir_id(self) -> str:
        self._next_dir_serial += 1
        token = self.drbg.generate(8).hex()
        return f"d-{token}-{self._next_dir_serial}"

    def _ensure_dir_id(self, dir_path: str, ctx: Optional[OpContext] = None) -> Generator:
        """Resolve (registering lazily) a protected directory's ID.

        Directories normally get IDs at mkdir, but a directory can
        *move into* the protected domain (a rename across the coverage
        boundary) or predate protection.  Registration is blocking and
        parent-first so the service can always resolve full paths.  An
        ID is kept only once the service has acknowledged it: an op that
        fails mid-registration leaves no ID the service never learned,
        and the next op that needs one registers the directory again.
        """
        dir_path = normalize(dir_path)
        existing = self._dir_ids.get(dir_path)
        if existing is not None:
            return existing
        parent_id = ROOT_DIR_ID
        if dir_path != "/":
            parent_id = yield from self._ensure_dir_id(parent_of(dir_path), ctx)
        dir_id = self._new_dir_id()
        self.stats["blocking_metadata_ops"] += 1
        name = "/" if dir_path == "/" else basename(dir_path)
        yield from self.services.register(
            DirRegistration(dir_id=dir_id, parent_id=parent_id, name=name), ctx
        )
        self._dir_ids[dir_path] = dir_id
        return dir_id

    # ------------------------------------------------------------------
    # Header management.
    # ------------------------------------------------------------------
    def _parse_header(self, path: str, raw: bytes) -> Generator:
        return parse_header(raw, self.volume, self.ibe_params)
        yield  # pragma: no cover

    def _store_header(self, path: str, header: KeypadHeader) -> Generator:
        raw = pack_header(header, self.volume, self.drbg, self.ibe_params)
        yield from self.lower.write(self._enc(path), 0, raw)
        self._header_cache[normalize(path)] = header
        return None

    # ------------------------------------------------------------------
    # Key acquisition: the heart of the audit protocol.
    # ------------------------------------------------------------------
    def _refresh_key(self, audit_id: bytes, ctx: Optional[OpContext] = None) -> Generator:
        key = yield from self.services.fetch(KeyFetch(audit_id, kind="refresh"), ctx)
        return key

    def _note_eviction(self, audit_id: bytes, reason: str) -> None:
        self.services.enqueue(EvictionNotice(count=1, reason=reason))

    def _content_key(self, path: str, parsed: Any, write: bool,
                     ctx: Optional[OpContext] = None) -> Generator:
        header: KeypadHeader = parsed
        if not header.protected:
            return self.volume.content_stream_key(header.file_iv), header.file_iv

        audit_id = header.audit_id
        nonce = audit_id[:16].ljust(16, b"\x00")
        self.launch_profiler.note_access(normalize(path))
        entry = self.key_cache.get(audit_id, ctx=ctx)
        if entry is not None:
            yield self.sim.timeout(self.costs.keypad_hit_extra)
            # A prefetched entry opens its wrapped K_D on this first read.
            return entry.data_key, nonce

        path = normalize(path)
        if header.locked:
            header = yield from self._await_unlocked(path, header, ctx)
            entry = self.key_cache.get(audit_id, ctx=ctx)
            if entry is not None:
                return entry.data_key, nonce

        # Blocking fetch from the key service (this is the audited path).
        self.stats["blocking_key_fetches"] += 1
        if self.services.phone is not None:
            # Directory-level hint so the phone can prefetch related
            # keys into its hoard (§3.5).
            directory = parent_of(path)
            self.services.phone.related_hint = [
                h.audit_id
                for p, h in self._header_cache.items()
                if h.protected and h.audit_id != audit_id
                and parent_of(p) == directory and not h.locked
            ][:32]
        issued_at = self.services.sent_at(audit_id)
        with maybe_span(ctx, "key-fetch", audit_id=audit_id.hex()[:8]):
            remote_key = yield from self.services.fetch(KeyFetch(audit_id), ctx)
        yield self.sim.timeout(self.costs.keypad_header_crypt)
        data_key = unwrap_data_key(header.wrapped_kd, remote_key)
        self.key_cache.put(audit_id, remote_key, data_key,
                           texp=self._cfg(ctx).texp, issued_at=issued_at)
        yield from self._maybe_prefetch(path, ctx)
        return data_key, nonce

    def _await_unlocked(self, path: str, header: KeypadHeader,
                        ctx: Optional[OpContext] = None) -> Generator:
        """Resolve an IBE-locked header, waiting or unlocking inline."""
        pending = self._pending_unlocks.get(header.audit_id)
        if pending is not None:
            self.stats["unlock_waits"] += 1
            with maybe_span(ctx, "unlock-wait"):
                yield pending.event
        else:
            yield from self._unlock_blocking(path, header, ctx)
        refreshed = self._header_cache.get(normalize(path))
        if refreshed is None or refreshed.locked:
            # Re-read from disk (unlock may have landed before a crash).
            self._evict_header(normalize(path))
            refreshed = yield from self._header(path)
            if refreshed.locked:
                raise LockedFileError(f"{path} is still IBE-locked")
        return refreshed

    def _unlock_blocking(self, path: str, header: KeypadHeader,
                         ctx: Optional[OpContext] = None) -> Generator:
        """Foreground unlock: register the identity, decrypt, rewrite.

        This is the path a post-crash client — or a thief driving the
        Keypad software — takes: it cannot avoid presenting the
        correct identity (path + audit ID) to the metadata service.
        """
        self.stats["blocking_unlocks"] += 1
        with maybe_span(ctx, "ibe-unlock"):
            private_key = yield from self.services.register(
                IbeRegistration(identity=header.identity), ctx
            )
            if private_key is None:
                raise LockedFileError(
                    f"{path}: paired device deferred the registration; "
                    "the wrapped key is unavailable until service sync"
                )
            yield self.sim.timeout(self.costs.keypad_ibe_decrypt)
            wrapped = ibe_decrypt(self.ibe_params, private_key, header.ibe_blob)
            new_header = header.unlocked_copy(wrapped)
            yield from self._store_header(path, new_header)
        self.stats["ibe_unlocks"] += 1
        return new_header

    # ------------------------------------------------------------------
    # Prefetching.
    # ------------------------------------------------------------------
    def _maybe_prefetch(self, path: str, ctx: Optional[OpContext] = None) -> Generator:
        directory = parent_of(path)
        decision = self.prefetch_policy.on_miss(directory)
        if not (decision.whole_directory or decision.sample_count):
            return None
        with maybe_span(ctx, "prefetch",
                        **decision_attrs(decision, self.prefetch_policy)):
            candidates = yield from self._prefetch_candidates(directory, path)
            if (not decision.whole_directory
                    and len(candidates) > decision.sample_count):
                if self._prand is None:
                    from repro.sim import SimRandom

                    self._prand = SimRandom(self.drbg.generate(16), "prefetch")
                candidates = self._prand.sample(candidates, decision.sample_count)
            # IDs already being fetched by a concurrent process will land
            # in the cache anyway; don't spend batch slots on them.
            candidates = filter_inflight(
                candidates, self.services.inflight_fetch_ids()
            )
            if candidates:
                yield from self._load_keys(candidates, "prefetch",
                                           self.sim.now, ctx)
                self.stats["prefetch_batches"] += 1
        if decision.whole_directory:
            self.prefetch_policy.on_directory_prefetched(directory)
        return None

    def _prefetch_candidates(self, directory: str, exclude: str) -> Generator:
        """Sibling files whose keys are absent from the cache."""
        names = yield from self.lower.readdir(self._enc(directory))
        candidates = []
        for token in names:
            try:
                name = self.volume.decrypt_name(token)
            except Exception:
                continue
            child = normalize(f"{directory}/{name}")
            if child == exclude:
                continue
            attr = yield from self.lower.getattr(self._enc(child))
            if attr.is_dir:
                continue  # non-recursive by design
            header = yield from self._uncached_header(child)
            if header is not None:
                candidates.append((child, header))
        return candidates

    def _uncached_header(self, path: str) -> Generator:
        """The header of a protected, unlocked file whose key is not
        cached (one a prefetch should load), or None."""
        try:
            header = yield from self._header(path)
        except Exception:
            return None
        if (not header.protected or header.locked
                or self.key_cache.get(header.audit_id, mark_used=False)):
            return None
        return header

    def _load_keys(self, candidates: list, kind: str, issued_at: float,
                   ctx: Optional[OpContext] = None) -> Generator:
        """Fetch the keys of ``(path, header)`` *candidates* in one batch
        and cache each with its K_D still wrapped, to be opened on its
        first read; returns how many arrived."""
        keys = yield from self.services.fetch_many(
            [KeyFetch(h.audit_id, kind=kind) for _, h in candidates], ctx
        )
        fetched = 0
        for (_path, header), remote_key in zip(candidates, keys):
            if not remote_key:
                continue
            self.key_cache.put(
                header.audit_id,
                remote_key,
                wrapped_kd=header.wrapped_kd,
                texp=self._cfg(ctx).texp,
                issued_at=issued_at,
            )
            fetched += 1
        self.stats["prefetched_keys"] += fetched
        return fetched

    # ------------------------------------------------------------------
    # Creation (Fig. 3 flows).
    # ------------------------------------------------------------------
    def create(self, path: str) -> Generator:
        return self._op(self._op_context("create", path), self._create,
                        normalize(path))

    def _create(self, path: str, ctx: Optional[OpContext]) -> Generator:
        yield from self._charge("create")
        if not self.is_protected(path):
            yield from self._create_unprotected(path)
            return None

        dir_id = yield from self._ensure_dir_id(parent_of(path), ctx)
        name = basename(path)
        audit_id = self.drbg.generate(AUDIT_ID_LEN)
        data_key = self.drbg.generate(DATA_KEY_LEN)
        yield from self.lower.create(self._enc(path))
        self._logical_sizes[path] = 0
        complete = (self._create_ibe_locked if self._cfg(ctx).ibe_enabled
                    else self._create_blocking)
        try:
            yield from complete(path, dir_id, name, audit_id, data_key, ctx)
        except Exception:
            # Leave no headerless file behind: the create failed, so a
            # retry of it must find the path free.
            yield from self.lower.unlink(self._enc(path))
            self._evict_header(path)
            raise
        return None

    def _create_unprotected(self, path: str) -> Generator:
        yield from self.lower.create(self._enc(path))
        self._logical_sizes[path] = 0
        header = KeypadHeader(protected=False, file_iv=self.drbg.generate(16))
        yield from self._store_header(path, header)
        return None

    def _create_blocking(
        self, path: str, dir_id: str, name: str, audit_id: bytes,
        data_key: bytes, ctx: Optional[OpContext] = None
    ) -> Generator:
        """Non-IBE create: key-create and metadata-register run
        concurrently, but both must ack before the create returns
        (§3.1: "Keypad must confirm that both requests complete before
        it allows access to the new file")."""
        self.stats["blocking_metadata_ops"] += 1
        issued_at = self.sim.now
        # Both sub-processes share the op's ctx; their RPC spans attach
        # (non-stacked) so the interleaving cannot mis-nest.
        key_proc = self.sim.process(
            self.services.create(KeyCreate(audit_id=audit_id), ctx),
            name="create-key",
        )
        meta_proc = self.sim.process(
            self.services.register(
                FileRegistration(audit_id=audit_id, dir_id=dir_id, name=name),
                ctx,
            ),
            name="create-meta",
        )
        results = yield self.sim.all_of([key_proc, meta_proc])
        remote_key = results[0]
        yield self.sim.timeout(self.costs.keypad_header_crypt)
        wrapped = wrap_data_key(data_key, remote_key, self.drbg)
        header = KeypadHeader(protected=True, audit_id=audit_id, wrapped_kd=wrapped)
        yield from self._store_header(path, header)
        self.key_cache.put(audit_id, remote_key, data_key,
                           texp=self._cfg(ctx).texp, issued_at=issued_at)
        return None

    def _create_ibe_locked(
        self, path: str, dir_id: str, name: str, audit_id: bytes,
        data_key: bytes, ctx: Optional[OpContext] = None
    ) -> Generator:
        """IBE create: lock the header locally, register asynchronously.

        The remote key is generated client-side and uploaded in the
        same background process (idempotent ``key.put``); until the
        metadata service acks, the file is readable only via the
        1-second in-flight cache entry.
        """
        remote_key = self.drbg.generate(_REMOTE_KEY_LEN)
        yield self.sim.timeout(self.costs.keypad_header_crypt)
        wrapped = wrap_data_key(data_key, remote_key, self.drbg)
        identity = identity_string(dir_id, name, audit_id)
        yield self.sim.timeout(self.costs.keypad_ibe_encrypt)
        blob = self.ibe_public.encrypt(identity, wrapped)
        header = KeypadHeader(
            protected=True, audit_id=audit_id, ibe_blob=blob, identity=identity
        )
        yield from self._store_header(path, header)
        self.key_cache.put(
            audit_id, remote_key, data_key,
            texp=self._cfg(ctx).texp_inflight, refreshable=False,
        )
        self.stats["ibe_locks"] += 1
        self.stats["async_metadata_ops"] += 1
        if ctx is not None and ctx.traced:
            ctx.event("ibe-lock", audit_id=audit_id.hex()[:8])
        self._spawn_registration(
            audit_id, identity, path, wrapped, upload_key=remote_key
        )
        return None

    # ------------------------------------------------------------------
    # Rename (Fig. 3b).
    # ------------------------------------------------------------------
    def rename(self, old: str, new: str) -> Generator:
        return self._op(self._op_context("rename", old), self._rename,
                        normalize(old), normalize(new))

    def _rename(self, old: str, new: str,
                ctx: Optional[OpContext]) -> Generator:
        yield from self._charge("rename")
        attr = yield from self.lower.getattr(self._enc(old))
        if attr.is_dir:
            yield from self._rename_directory(old, new, ctx)
            return None

        header = yield from self._header(old)
        if not header.protected:
            yield from self.lower.rename(self._enc(old), self._enc(new))
            self._move_header(old, new)
            return None

        dir_id = yield from self._ensure_dir_id(parent_of(new), ctx)
        name = basename(new)
        ibe = self._cfg(ctx).ibe_enabled
        # A locked file whose registration is still in flight is
        # re-locked without waiting (Fig. 3b's overlap applies to
        # back-to-back metadata updates too).
        pending = (self._pending_unlocks.get(header.audit_id)
                   if ibe and header.locked else None)
        if header.locked and pending is None:
            header = yield from self._await_unlocked(old, header, ctx)

        if ibe:
            yield from self._rename_ibe_locked(old, new, header, dir_id, name,
                                               pending)
        else:
            yield from self.lower.rename(self._enc(old), self._enc(new))
            self._move_header(old, new)
            yield from self._register_move(
                header.audit_id, new,
                FileRegistration(audit_id=header.audit_id, dir_id=dir_id,
                                 name=name),
                ctx)
        return None

    def _rename_ibe_locked(
        self,
        old: str,
        new: str,
        header: KeypadHeader,
        dir_id: str,
        name: str,
        pending: Optional[_PendingRegistration],
    ) -> Generator:
        """IBE rename: re-lock the wrapped key under the new identity and
        register it in the background.  A registration still in flight
        is superseded (it registers the new identity next) rather than
        joined by a second one."""
        wrapped = header.wrapped_kd if pending is None else pending.wrapped
        identity = identity_string(dir_id, name, header.audit_id)
        yield self.sim.timeout(self.costs.keypad_ibe_encrypt)
        blob = self.ibe_public.encrypt(identity, wrapped)
        locked = header.locked_copy(blob, identity)
        yield from self._store_header(old, locked)
        yield from self.lower.rename(self._enc(old), self._enc(new))
        self._move_header(old, new)
        # Shorten the cached key's life to the in-flight window.
        self.key_cache.restrict(header.audit_id, self._cfg().texp_inflight)
        self.stats["ibe_locks"] += 1
        self.stats["async_metadata_ops"] += 1
        if pending is None:
            self._spawn_registration(
                header.audit_id, identity, new, wrapped, upload_key=None
            )
        else:
            pending.identity = identity
            pending.path_hint = new
        return None

    def _rename_directory(self, old: str, new: str,
                          ctx: Optional[OpContext] = None) -> Generator:
        yield from self.lower.rename(self._enc(old), self._enc(new))
        self._move_subtree(old, new)
        if self.is_protected(new):
            dir_id = self._dir_ids.get(normalize(new))
            if dir_id is None:
                # The directory moved INTO the protected domain: give
                # it (and any missing ancestors) IDs now.
                yield from self._ensure_dir_id(new, ctx)
                return None
            parent_id = yield from self._ensure_dir_id(parent_of(new), ctx)
            # Directory metadata updates do not use IBE in the
            # prototype ("it does not apply it to directory metadata
            # operations"), so this blocks on the service.
            yield from self._register_move(
                dir_id, new,
                DirRegistration(dir_id=dir_id, parent_id=parent_id,
                                name=basename(new)),
                ctx)
        return None

    def _register_move(self, key: Any, path: str, request: Any,
                       ctx: Optional[OpContext]) -> Generator:
        """Register a moved entry's new name, blocking the rename.

        The lower entry has already moved, and undoing the move is not
        safe (the registration may have landed).  So when the RPC fails,
        a background loop owes the service the newest name under
        ``key`` until it is acknowledged, and the rename still raises.
        """
        self.stats["blocking_metadata_ops"] += 1
        try:
            yield from self.services.register(request, ctx)
        except (NetworkUnavailableError, KeypadError):
            if key not in self._owed:
                self.sim.process(self._register_owed_process(key, path),
                                 name=f"keypad-reregister-{path}")
            self._owed[key] = request
            raise
        self._owed.pop(key, None)  # supersedes an owed older name
        return None

    def _register_owed_process(self, key: Any, path: str) -> Generator:
        ctx = self._background_context("re-registration", path)
        error = yield from self._register_until_acked(
            path, ctx, self._register_owed, key)
        self._owed.pop(key, None)
        if ctx is not None:
            ctx.finish(error)
        return None

    def _register_owed(self, key: Any, ctx: Optional[OpContext]) -> Generator:
        """One attempt: register the owed name until the acked one is
        the newest (a later failed rename may replace it meanwhile)."""
        while key in self._owed:
            request = self._owed[key]
            yield from self.services.register(request, ctx)
            if self._owed.get(key) is request:
                del self._owed[key]
        return None

    def _move_subtree(self, old: str, new: str) -> None:
        """Rewrite path-keyed client state after a directory rename."""
        old_prefix = normalize(old)
        new_prefix = normalize(new)

        def remap(path: str) -> str:
            if path == old_prefix:
                return new_prefix
            if path.startswith(old_prefix + "/"):
                return new_prefix + path[len(old_prefix):]
            return path

        self._header_cache = {
            remap(p): h for p, h in self._header_cache.items()
        }
        self._dir_ids = {remap(p): d for p, d in self._dir_ids.items()}

    # ------------------------------------------------------------------
    # Background registration / unlock.
    # ------------------------------------------------------------------
    def _spawn_registration(
        self,
        audit_id: bytes,
        identity: bytes,
        path_hint: str,
        wrapped: bytes,
        upload_key: Optional[bytes],
    ) -> None:
        pending = _PendingRegistration(
            audit_id=audit_id,
            wrapped=wrapped,
            identity=identity,
            path_hint=normalize(path_hint),
            event=self.sim.event(),
            upload_key=upload_key,
        )
        self._pending_unlocks[audit_id] = pending
        self.sim.process(
            self._registration_process(pending),
            name=f"keypad-register-{audit_id.hex()[:8]}",
        )

    def _registration_process(self, pending: _PendingRegistration) -> Generator:
        audit_id = pending.audit_id
        # Background registrations are their own (never deadline-bounded)
        # operations in the trace; their RPCs count as blocking, same as
        # the channel counters always have.
        ctx = self._background_context("ibe-registration", pending.path_hint)
        # Extension ordering: if the file's directory registration is
        # still in flight (ibe_for_directories), wait for its ack so
        # the service can always resolve the file's full path.
        # A directory registration that gave up fails its ack with its
        # error, which then ends this registration too.
        dir_id = pending.identity.split(b"/", 1)[0].decode()
        dir_ack = self._dir_acks.get(dir_id)
        error = None
        if dir_ack is not None and not dir_ack.triggered:
            try:
                yield dir_ack
            except KeypadError as exc:
                error = exc
        if error is None:
            error = yield from self._register_until_acked(
                pending.path_hint, ctx, self._register_identity, pending
            )
        if error is None:
            # Unlock: the paper decrypts the on-disk key with IBE in a
            # background thread.  We hold the cleartext wrapped blob from
            # the lock step, so the IBE decryption cost is charged
            # without redundantly recomputing the identical bytes.  (A
            # client that crashed in between takes the _unlock_blocking
            # path instead, which performs the real IBE decryption.)
            yield self.sim.timeout(self.costs.keypad_ibe_decrypt)
            path_hint = pending.path_hint
            exists = yield from self.lower.exists(self._enc(path_hint))
            current = self._header_cache.get(path_hint) if exists else None
            if (current is not None and current.audit_id == audit_id
                    and current.locked):
                new_header = current.unlocked_copy(pending.wrapped)
                yield from self._store_header(path_hint, new_header)
                self.stats["ibe_unlocks"] += 1
                # Metadata is safe: restore the key's full Texp window,
                # counted from when a logged access last vouched for
                # it, not from now.
                self.key_cache.extend(audit_id, self._cfg(ctx).texp)
        self._pending_unlocks.pop(audit_id, None)
        if error is not None:
            pending.event.fail(error)
        elif not pending.event.triggered:
            pending.event.succeed()
        if ctx is not None:
            ctx.finish(error)
        return None

    def _register_identity(self, pending: _PendingRegistration,
                           ctx: Optional[OpContext]) -> Generator:
        """One attempt: upload the client-made key (once), then register
        the pending identity until the acked one is the newest."""
        while True:
            if pending.upload_key is not None:
                yield from self.services.upload(
                    KeyUpload(audit_id=pending.audit_id, key=pending.upload_key),
                    ctx,
                )
                pending.upload_key = None
            identity = pending.identity
            yield from self.services.register(
                IbeRegistration(identity=identity), ctx
            )
            if identity == pending.identity:
                return None
            # Superseded by a rename while the RPC was in flight:
            # register the newest identity too (the service's log is
            # append-only; intermediate paths become history).

    def _register_until_acked(self, what: str, ctx: Optional[OpContext],
                              attempt: Callable[..., Generator],
                              *args: Any) -> Generator:
        """Retry a background registration, ``attempt(*args, ctx)``.

        A network or service error is retried after
        ``registration_retry_delay``; a revoked device stops at once,
        and ``registration_max_retries`` failures end it.  Returns None
        once acknowledged, or the error that ended it.
        """
        attempts = 0
        while True:
            try:
                yield from attempt(*args, ctx)
                return None
            except (NetworkUnavailableError, KeypadError) as exc:
                if isinstance(exc, RevokedError):
                    return exc
                attempts += 1
                if attempts >= self._cfg(ctx).registration_max_retries:
                    return LockedFileError(
                        f"metadata registration for {what} "
                        f"failed after {attempts} attempts"
                    )
                yield self.sim.timeout(self._cfg(ctx).registration_retry_delay)

    # ------------------------------------------------------------------
    # Remaining namespace operations.
    # ------------------------------------------------------------------
    def mkdir(self, path: str) -> Generator:
        return self._op(self._op_context("mkdir", path), self._mkdir,
                        normalize(path))

    def _mkdir(self, path: str, ctx: Optional[OpContext]) -> Generator:
        yield from self._charge("mkdir")
        yield from self.lower.mkdir(self._enc(path))
        if not self.is_protected(path):
            return None
        if not self._cfg(ctx).ibe_for_directories:
            yield from self._ensure_dir_id(path, ctx)
            return None
        # Extension: asynchronous directory registration.  Any file
        # registered under this directory waits (in the background) for
        # the dir ack, so its IBE lock cannot resolve before the
        # directory's metadata is durable.
        parent_id = yield from self._ensure_dir_id(parent_of(path), ctx)
        dir_id = self._new_dir_id()
        self._dir_ids[path] = dir_id
        self.stats["async_metadata_ops"] += 1
        self._dir_acks[dir_id] = self.sim.event()
        self.sim.process(
            self._register_dir_process(dir_id, parent_id, basename(path)),
            name=f"keypad-dirreg-{dir_id}",
        )
        return None

    def _register_dir_process(
        self, dir_id: str, parent_id: str, name: str
    ) -> Generator:
        ctx = self._background_context("dir-registration", name)
        request = DirRegistration(dir_id=dir_id, parent_id=parent_id, name=name)
        error = yield from self._register_until_acked(
            name, ctx, self.services.register, request
        )
        event = self._dir_acks.pop(dir_id, None)
        if event is not None and not event.triggered:
            if error is None:
                event.succeed()
            else:
                event.fail(error)
        if ctx is not None:
            ctx.finish(error)
        return None

    def rmdir(self, path: str) -> Generator:
        yield from super().rmdir(path)
        self._dir_ids.pop(normalize(path), None)
        return None

    def unlink(self, path: str) -> Generator:
        path = normalize(path)
        header = self._header_cache.get(path)
        yield from super().unlink(path)
        if header is not None and header.protected:
            self.key_cache.evict(header.audit_id)
        return None

    def set_xattr(self, path: str, name: str, value: bytes) -> Generator:
        """Extension: xattr updates are registered as metadata (§4)."""
        return self._op(self._op_context("set_xattr", path), self._set_xattr,
                        path, name, value)

    def _set_xattr(self, path: str, name: str, value: bytes,
                   ctx: Optional[OpContext]) -> Generator:
        yield from self.lower.set_xattr(self._enc(path), name, value)
        if self._cfg(ctx).track_xattrs:
            header = yield from self._header(path)
            if header.protected:
                request = XattrRegistration(
                    audit_id=header.audit_id, name=name, value=value
                )
                if self.services.fast_transport:
                    # Xattr registrations need not block the caller;
                    # the session flushes them in batches.
                    self.stats["async_metadata_ops"] += 1
                    self.services.enqueue(request)
                    if ctx is not None and ctx.traced:
                        ctx.event("write-behind-enqueue")
                else:
                    self.stats["blocking_metadata_ops"] += 1
                    yield from self.services.register(request, ctx)
        return None

    # ------------------------------------------------------------------
    # Extension: application-launch key-profile prefetching (§5.1.2).
    # ------------------------------------------------------------------
    def begin_launch_profile(self, app: str) -> None:
        self.launch_profiler.begin(app)

    def end_launch_profile(self) -> list[str]:
        return self.launch_profiler.end()

    def prefetch_launch_profile(self, app: str) -> Generator:
        """Batch-prefetch the keys an app's launch profile names."""
        candidates = []
        for path in self.launch_profiler.profile_for(app):
            exists = yield from self.lower.exists(self._enc(path))
            if not exists:
                continue
            header = yield from self._uncached_header(path)
            if header is not None:
                candidates.append((path, header))
        if not candidates:
            return 0
        ctx = self._background_context("launch-prefetch")
        if ctx is not None:
            ctx.root.attrs["app"] = app
        issued_at = min(self.services.sent_at(h.audit_id)
                        for _, h in candidates)
        fetched = yield from self._op(ctx, self._load_keys, candidates,
                                      "profile-prefetch", issued_at)
        return fetched

    # ------------------------------------------------------------------
    # Device lifecycle.
    # ------------------------------------------------------------------
    def hibernate(self) -> Generator:
        """Evict all cached keys and (best-effort) notify the service.

        §6: "Cached keys should be evicted from memory upon device
        hibernation, and such evictions should be recorded on the
        audit servers."
        """
        count = self.key_cache.evict_all()
        try:
            yield from self._op(self._background_context("hibernate"),
                                self._notify_hibernation, count)
        except (NetworkUnavailableError, KeypadError):
            pass  # best-effort
        return None

    def _notify_hibernation(self, count: int,
                            ctx: Optional[OpContext]) -> Generator:
        if self.services.fast_transport:
            # Drain deferred traffic before sleeping: the notice must
            # not sit in a queue on a powered-down device.
            yield from self.services.flush()
        yield from self.services.notify(
            EvictionNotice(count=count, reason="hibernate"), ctx
        )
        return None

    def audit_id_of(self, path: str) -> Generator:
        """The audit ID bound to a protected file (forensics/tests)."""
        header = yield from self._header(path)
        return header.audit_id if header.protected else None
