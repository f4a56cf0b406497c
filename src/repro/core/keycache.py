"""The device-side encryption-key cache (§3.3, §4 "Key Expiration").

Semantics from the paper:

* keys live for ``Texp`` seconds, then a background thread purges them;
* if a key was *reused* during its lifetime, the purge thread re-fetches
  it from the key service — producing a fresh audit record — and, if
  the response arrives in time, extends the entry ("absent network
  failures, keys in Keypad never expire while in use");
* keys for files with in-flight metadata updates get a much shorter
  lifetime (1 s) to shrink the attack window;
* everything cached at ``Tloss`` must be assumed compromised, so the
  cache tracks its own occupancy statistics (time-weighted average and
  peak) — the quantity plotted in Figure 11.

Eviction "securely erases" the key material (we overwrite the buffers;
in-simulation this is what makes an attacker memory snapshot miss it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, Optional

from repro.errors import KeypadError, NetworkUnavailableError
from repro.sim import Simulation

__all__ = ["KeyCache", "CacheEntry"]


@dataclass
class CacheEntry:
    audit_id: bytes
    remote_key: bytes
    data_key: bytes
    texp: float
    expires_at: float
    inserted_at: float
    # When a logged access last vouched for this key: the send of the
    # fetch (or refresh) that brought it, or the put of a key created
    # here, which precedes its upload's log entry.
    vouched_at: float
    prefetched: bool = False
    used_since_refresh: bool = False
    generation: int = 0
    fetch_count: int = 1
    # In-flight (IBE-locked) keys must NOT refresh: their short fuse is
    # the attack-window bound ("After the cached key times out, the
    # file is essentially 'locked' on disk").
    refreshable: bool = True

    def erase(self) -> None:
        """Secure erase: overwrite key material before dropping."""
        self.remote_key = b"\x00" * len(self.remote_key)
        self.data_key = b"\x00" * len(self.data_key)


@dataclass
class _Occupancy:
    """Time-weighted cache-size accounting for Figure 11."""

    integral: float = 0.0
    last_change: float = 0.0
    current: int = 0
    peak: int = 0
    samples: list[tuple[float, int]] = field(default_factory=list)

    def update(self, now: float, new_size: int) -> None:
        self.integral += self.current * (now - self.last_change)
        self.last_change = now
        self.current = new_size
        self.peak = max(self.peak, new_size)
        self.samples.append((now, new_size))

    def average(self, now: float) -> float:
        total = self.integral + self.current * (now - self.last_change)
        return total / now if now > 0 else 0.0


class KeyCache:
    """Expiring cache of (K_R, K_D) pairs keyed by audit ID."""

    def __init__(
        self,
        sim: Simulation,
        refresh_fn: Optional[Callable[..., Generator]] = None,
        refresh_lead: float = 2.0,
        on_evict: Optional[Callable[[bytes, str], None]] = None,
        tracer=None,
    ):
        self.sim = sim
        # refresh_fn(audit_id, ctx=None) -> generator returning the new
        # K_R, or raising; wired to the device's key-service client.
        self.refresh_fn = refresh_fn
        # Optional TraceCollector: in-use refreshes run outside any VFS
        # op, so the cache mints their background contexts itself.
        self.tracer = tracer
        # on_evict(audit_id, reason): synchronous hook fired when the
        # purge thread expires an entry (§6 asks for evictions to be
        # recorded on the audit servers; the session's write-behind
        # queue carries the notice without blocking the purge).
        self.on_evict = on_evict
        # The purge thread starts an in-use refresh this long before
        # expiry, so the response normally "arrives before the key
        # expires" and long accesses (movie playback) never hiccup.
        self.refresh_lead = refresh_lead
        self._entries: dict[bytes, CacheEntry] = {}
        # Monotonic watcher-generation counter: generations are never
        # reused across entries, so a watcher armed for an evicted
        # entry can never act on its successor under the same ID.
        self._generation_seq = 0
        self.occupancy = _Occupancy()
        self.hits = 0
        self.misses = 0
        self.refreshes = 0
        self.expirations = 0

    # -- queries ----------------------------------------------------------
    def get(self, audit_id: bytes, mark_used: bool = True,
            ctx=None) -> Optional[CacheEntry]:
        """Look up a live entry, tagging the hit/miss on ``ctx``."""
        entry = self._entries.get(audit_id)
        if entry is None or entry.expires_at <= self.sim.now:
            self.misses += 1
            if ctx is not None and ctx.traced:
                ctx.event("keycache.miss", audit_id=audit_id.hex()[:8])
            return None
        self.hits += 1
        if ctx is not None and ctx.traced:
            ctx.event("keycache.hit", audit_id=audit_id.hex()[:8])
        if mark_used:
            entry.used_since_refresh = True
        return entry

    def peek(self, audit_id: bytes) -> Optional[CacheEntry]:
        return self._entries.get(audit_id)

    def __len__(self) -> int:
        return len(self._entries)

    def _next_generation(self) -> int:
        self._generation_seq += 1
        return self._generation_seq

    # -- mutation ------------------------------------------------------------
    def put(
        self,
        audit_id: bytes,
        remote_key: bytes,
        data_key: bytes,
        texp: float,
        prefetched: bool = False,
        refreshable: bool = True,
        issued_at: Optional[float] = None,
    ) -> CacheEntry:
        # Live from ``issued_at``, the request's send: the service logs
        # the access no earlier, so the entry dies within Texp of the log.
        vouched_at = self.sim.now if issued_at is None else issued_at
        expires_at = vouched_at + texp
        existing = self._entries.get(audit_id)
        if existing is not None:
            existing.generation = self._next_generation()
            existing.remote_key = remote_key
            existing.data_key = data_key
            existing.texp = texp
            existing.expires_at = expires_at
            existing.vouched_at = vouched_at
            existing.used_since_refresh = False
            existing.fetch_count += 1
            existing.refreshable = refreshable
            self._watch(existing)
            return existing
        entry = CacheEntry(
            audit_id=audit_id,
            remote_key=remote_key,
            data_key=data_key,
            texp=texp,
            expires_at=expires_at,
            inserted_at=self.sim.now,
            vouched_at=vouched_at,
            prefetched=prefetched,
            refreshable=refreshable,
            generation=self._next_generation(),
        )
        self._entries[audit_id] = entry
        self.occupancy.update(self.sim.now, len(self._entries))
        self._watch(entry)
        return entry

    def extend(self, audit_id: bytes, texp: float) -> None:
        """Restore an entry's full lifetime after an IBE unlock.

        The lifetime runs from when the key was last vouched for, never
        from now: an unlock logs no key access, so restarting ``texp``
        here would grant lifetime no audited fetch vouched for.  An
        entry whose window has already passed expires instead.
        """
        entry = self._entries.get(audit_id)
        if entry is None:
            return
        expires_at = entry.vouched_at + texp
        if expires_at <= self.sim.now:
            self._expire(audit_id, "expired")
            return
        entry.generation = self._next_generation()
        entry.texp = texp
        entry.expires_at = expires_at
        entry.used_since_refresh = False
        entry.refreshable = True
        self._watch(entry)

    def restrict(self, audit_id: bytes, max_remaining: float) -> None:
        """Shorten an entry's remaining life (in-flight metadata window).

        "Because files with metadata updates in flight are vulnerable
        to attacks, we reduce the key expiration time for such files to
        the bare minimum."  Never lengthens the entry.
        """
        entry = self._entries.get(audit_id)
        if entry is None:
            return
        entry.refreshable = False
        new_expiry = self.sim.now + max_remaining
        if new_expiry < entry.expires_at:
            entry.generation = self._next_generation()
            entry.expires_at = new_expiry
            entry.texp = max_remaining
            self._watch(entry)

    def retarget_texp(self, new_texp: float) -> int:
        """Apply a live Texp change (control channel) to resident keys.

        Refreshable entries adopt the new lifetime; when the change
        *shortens* their remaining life the expiry moves earlier at
        once (a tighter Texp must bound the attack window immediately),
        while a lengthened Texp only applies from the next
        fetch/refresh — in-place extension would grant lifetime no
        audited fetch ever vouched for.  Unrefreshable (in-flight
        IBE-locked) entries keep their short fuse untouched.  Returns
        the number of entries whose expiry was shortened.
        """
        if new_texp <= 0:
            # Caching disabled mid-run: erase everything now.
            count = len(self._entries)
            for audit_id in list(self._entries):
                self._expire(audit_id, "texp-retarget")
            return count
        shortened = 0
        for entry in self._entries.values():
            if not entry.refreshable:
                continue
            entry.texp = new_texp
            new_expiry = self.sim.now + new_texp
            if new_expiry < entry.expires_at:
                entry.generation = self._next_generation()
                entry.expires_at = new_expiry
                self._watch(entry)
                shortened += 1
        return shortened

    def evict(self, audit_id: bytes) -> None:
        entry = self._entries.pop(audit_id, None)
        if entry is not None:
            entry.generation = self._next_generation()
            entry.erase()
            self.occupancy.update(self.sim.now, len(self._entries))

    def _expire(self, audit_id: bytes, reason: str) -> None:
        """Evict an entry the purge thread (or a policy) expired, and
        tell ``on_evict`` why."""
        self.expirations += 1
        self.evict(audit_id)
        if self.on_evict is not None:
            self.on_evict(audit_id, reason)

    def evict_all(self) -> int:
        """Hibernate/shutdown: erase everything; returns count evicted."""
        count = len(self._entries)
        for entry in self._entries.values():
            entry.generation = self._next_generation()
            entry.erase()
        self._entries.clear()
        self.occupancy.update(self.sim.now, 0)
        return count

    # -- the background purge thread -----------------------------------------
    def _watch(self, entry: CacheEntry) -> None:
        self.sim.process(
            self._watcher(entry.audit_id, entry.generation, entry.expires_at),
            name=f"keycache-watch-{entry.audit_id.hex()[:8]}",
        )

    def _watcher(self, audit_id: bytes, generation: int, wake_at: float) -> Generator:
        # Wake early enough that an in-use refresh completes before the
        # entry expires ("If a response arrives before the key expires,
        # the key's expiration time is updated in the cache").
        entry = self._entries.get(audit_id)
        lead = min(self.refresh_lead, (entry.texp / 4.0) if entry else 0.0)
        early = max(0.0, wake_at - lead - self.sim.now)
        if early > 0:
            yield self.sim.timeout(early)
            entry = self._entries.get(audit_id)
            if entry is None or entry.generation != generation:
                return  # refreshed/evicted meanwhile; a newer watcher exists
            if (entry.used_since_refresh and entry.refreshable
                    and self.refresh_fn is not None):
                yield from self._refresh(entry)
                return
        # Not in use (or unrefreshable): wait out the remaining life.
        yield self.sim.timeout(max(0.0, wake_at - self.sim.now))
        entry = self._entries.get(audit_id)
        if entry is None or entry.generation != generation:
            return
        if (entry.used_since_refresh and entry.refreshable
                and self.refresh_fn is not None):
            # Used during the final lead window: late refresh (a reader
            # arriving mid-round-trip may block on a fresh fetch).
            yield from self._refresh(entry)
            return
        self._expire(audit_id, "expired")

    def _refresh(self, entry: CacheEntry) -> Generator:
        """Re-fetch an in-use key, re-logging the access on the service."""
        audit_id = entry.audit_id
        self.refreshes += 1
        # In-use refreshes are their own (background) operations in the
        # trace; their RPCs still count as blocking, matching how the
        # channel counters have always treated them.
        ctx = None
        if self.tracer is not None:
            from repro.core.context import OpContext

            ctx = OpContext(self.sim, "key-refresh", collector=self.tracer)
            ctx.root.attrs["audit_id"] = audit_id.hex()[:8]
        issued_at = self.sim.now
        try:
            if ctx is not None:
                new_remote = yield from self.refresh_fn(audit_id, ctx=ctx)
            else:
                # Plain positional call: refresh_fn need not be
                # ctx-aware unless tracing is enabled.
                new_remote = yield from self.refresh_fn(audit_id)
        except (NetworkUnavailableError, KeypadError) as exc:
            if ctx is not None:
                ctx.finish(exc)
            self._expire(audit_id, "refresh-failed")
            return None
        if ctx is not None:
            ctx.finish()
        if self._entries.get(audit_id) is entry:
            entry.generation = self._next_generation()
            entry.remote_key = new_remote
            entry.expires_at = issued_at + entry.texp  # as in put()
            entry.vouched_at = issued_at
            entry.used_since_refresh = False
            entry.fetch_count += 1
            self._watch(entry)
        return None

    # -- attacker / forensics views -----------------------------------------------
    def snapshot(self) -> dict[bytes, tuple[bytes, bytes]]:
        """What a memory-extraction attack recovers at this instant."""
        return {
            audit_id: (e.remote_key, e.data_key)
            for audit_id, e in self._entries.items()
            if e.expires_at > self.sim.now
        }
