"""Discrete-event simulation kernel.

Everything in the reproduction — the Keypad file system, the audit
services, network links, background cache-purge threads, applications,
and attackers — runs as a *process* on this kernel.  A process is a
Python generator that yields :class:`Waitable` objects (timeouts,
events, other processes); the kernel resumes it when the waitable
fires.  Simulated time advances only between events, so a multi-hour
"3G Apache compile" completes in seconds of wall-clock time while
remaining fully deterministic.

The design deliberately mirrors a small subset of SimPy:

* :meth:`Simulation.process` spawns a generator as a process.
* ``yield sim.timeout(dt)`` suspends for ``dt`` simulated seconds.
* ``yield event`` suspends until :meth:`Event.succeed` or
  :meth:`Event.fail` is called.
* ``yield other_process`` joins another process, receiving its return
  value (or re-raising its exception).
* :meth:`Process.interrupt` throws :class:`Interrupt` inside a process,
  which is how we model things like a device being stolen mid-operation
  or a background thread being cancelled.

Scheduler
---------

Events fire in the total order ``(time, seq)`` where ``seq`` is a global
schedule counter.  :class:`Simulation` keeps them in
:class:`_CalendarScheduler`, a bucketed timing-wheel with a same-instant
FIFO fast queue: zero-delay events (process starts, event triggers,
queue hand-offs — roughly half of all scheduling under fleet load)
bypass the priority structure entirely and ride a deque that is
merge-compared against the wheel, and future events go to O(1)
append/scan buckets, with a far-horizon heap for sparse long delays.

:class:`_HeapScheduler`, the original ``heapq`` queue, stays as the
reference oracle (like the reference kernels in :mod:`repro.crypto`).
``tests/property/test_kernel_equivalence.py`` and
``benchmarks/bench_sim_kernel.py`` patch it in for the calendar queue
and hold the two to the identical firing order.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Simulation",
    "Process",
    "Event",
    "Timeout",
    "Queue",
    "Lock",
    "Semaphore",
    "Interrupt",
    "SimulationError",
]


class SimulationError(Exception):
    """Raised for misuse of the kernel (bad yields, double triggers)."""


class Interrupt(Exception):
    """Thrown inside a process when :meth:`Process.interrupt` is called."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Waitable:
    """Base class for anything a process may ``yield``.

    A waitable is *triggered* exactly once, either successfully (with a
    value) or with an exception.  Processes that yielded it are resumed
    in FIFO order at the simulated instant it triggers.
    """

    __slots__ = ("sim", "triggered", "ok", "value", "_waiters", "_windex",
                 "_callbacks")

    def __init__(self, sim: "Simulation"):
        self.sim = sim
        self.triggered = False
        self.ok: Optional[bool] = None
        self.value: Any = None
        # Waiter list is lazy (most waitables never get one) and uses
        # mark-dead removal: cancelled waiters (interrupts, abandoned
        # deadline races) are overwritten with None instead of paying
        # list.remove's O(n) shift, and an index map is built on the
        # first removal so repeated cancellations stay O(1).  FIFO
        # resume order is the list order of the survivors.
        self._waiters: Optional[list] = None
        self._windex: Optional[dict] = None
        # Trigger callbacks (internal): run synchronously at trigger
        # time, after waiter resumes are scheduled.  Used by the RPC
        # deadline race to avoid spawning watcher processes per call.
        self._callbacks: Optional[list] = None

    # -- internal ---------------------------------------------------------
    def _add_waiter(self, proc: "Process") -> None:
        if self.triggered:
            # Resume immediately (still via the scheduler, for ordering).
            self.sim._schedule(0.0, proc._resume, self.ok, self.value)
        elif self._waiters is None:
            self._waiters = [proc]
        else:
            if self._windex is not None:
                self._windex[id(proc)] = len(self._waiters)
            self._waiters.append(proc)

    def _remove_waiter(self, proc: "Process") -> None:
        waiters = self._waiters
        if not waiters:
            return
        index = self._windex
        if index is None:
            # First removal on this waitable: build the id->slot map so
            # any further cancellations are O(1).
            index = self._windex = {
                id(w): i for i, w in enumerate(waiters) if w is not None
            }
        slot = index.pop(id(proc), None)
        if slot is not None and waiters[slot] is proc:
            waiters[slot] = None

    def _add_callback(self, fn: Callable) -> None:
        if self._callbacks is None:
            self._callbacks = [fn]
        else:
            self._callbacks.append(fn)

    def _trigger(self, ok: bool, value: Any) -> None:
        if self.triggered:
            raise SimulationError(f"{self!r} triggered twice")
        self.triggered = True
        self.ok = ok
        self.value = value
        waiters, self._waiters = self._waiters, None
        self._windex = None
        if waiters:
            schedule = self.sim._schedule
            for proc in waiters:
                if proc is not None:
                    schedule(0.0, proc._resume, ok, value)
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            for fn in callbacks:
                fn(self)


class Timeout(Waitable):
    """Fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulation", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = delay
        sim._schedule(delay, self._trigger, True, value)


class Event(Waitable):
    """A manually-triggered waitable (one-shot)."""

    __slots__ = ()

    def succeed(self, value: Any = None) -> "Event":
        self._trigger(True, value)
        return self

    def fail(self, exc: BaseException) -> "Event":
        if not isinstance(exc, BaseException):
            raise SimulationError("Event.fail requires an exception")
        self._trigger(False, exc)
        return self


class Process(Waitable):
    """A running generator.  Also waitable: yielding it joins it."""

    __slots__ = ("gen", "name", "_waiting_on", "_started", "_sleep_token")

    def __init__(self, sim: "Simulation", gen: Generator, name: str = ""):
        super().__init__(sim)
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"process target must be a generator, got {type(gen).__name__}"
            )
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._waiting_on: Optional[Waitable] = None
        self._started = False
        self._sleep_token = 0
        sim._schedule(0.0, self._resume, True, None)

    # -- public -----------------------------------------------------------
    @property
    def alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            return
        if self._waiting_on is not None:
            self._waiting_on._remove_waiter(self)
            self._waiting_on = None
        # Invalidate any pending bare-delay sleep (see _resume): its
        # queued _sleep_fire becomes a no-op, exactly as a removed
        # Timeout waiter would be.
        self._sleep_token += 1
        exc = Interrupt(cause)
        self.sim._schedule(0.0, self._resume, False, exc)

    # -- internal ---------------------------------------------------------
    def _resume(self, ok: bool, value: Any) -> None:
        if self.triggered:
            return  # already finished (e.g. interrupt raced completion)
        self._waiting_on = None
        self._started = True
        try:
            if ok:
                target = self.gen.send(value)
            else:
                target = self.gen.throw(value)
        except StopIteration as stop:
            self._trigger(True, stop.value)
            return
        except Interrupt as exc:
            # An un-caught interrupt terminates the process quietly.
            self._trigger(False, exc)
            return
        except Exception as exc:
            # A registered callback counts as an observer: the failure
            # is delivered there instead of crashing the simulation.
            observed = bool(self._waiters) or bool(self._callbacks)
            self._trigger(False, exc)
            if not observed:
                self.sim._crash(self, exc)
            return
        if type(target) is Timeout or isinstance(target, Waitable):
            self._waiting_on = target
            target._add_waiter(self)
            return
        cls = type(target)
        if (cls is float or cls is int) and target >= 0:
            # Bare-delay sleep: `yield d` is event-for-event identical
            # to `yield sim.timeout(d)` — one entry at now+d (the hop,
            # where the Timeout's _trigger would sit) which then
            # re-schedules the resume at the queue tail, consuming the
            # same seq budget — minus the Timeout/waiter allocations.
            self.sim._schedule(target, self._sleep_fire, self._sleep_token)
            return
        exc2 = SimulationError(
            f"process {self.name!r} yielded {target!r}, "
            "expected a Timeout/Event/Process or a non-negative delay"
        )
        self._trigger(False, exc2)
        self.sim._crash(self, exc2)

    def _sleep_fire(self, token: int) -> None:
        if token != self._sleep_token or self.triggered:
            return  # the sleep was interrupted away
        self.sim._schedule(0.0, self._resume, True, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name} {state}>"


def abandon_handoff(waiters: list, event: Event, release: Callable) -> None:
    """Withdraw a handoff ``event`` queued in ``waiters`` whose waiter
    left by exception (an interrupt, a lost deadline race).  Still
    queued: drop it, so ``release`` never hands ownership to a process
    that is gone.  Already handed over (the release and the exception
    landed at the same instant): pass the ownership on by calling
    ``release``."""
    if event.triggered:
        release()
    else:
        waiters.remove(event)


class Lock:
    """Cooperative mutex for processes (FIFO handoff).

    Usage inside a process::

        yield from lock.acquire()
        try:
            ...
        finally:
            lock.release()
    """

    __slots__ = ("sim", "_locked", "_waiters")

    def __init__(self, sim: "Simulation"):
        self.sim = sim
        self._locked = False
        self._waiters: list[Event] = []

    def acquire(self) -> Generator:
        if not self._locked:
            self._locked = True
            return None
        event = Event(self.sim)
        self._waiters.append(event)
        try:
            yield event  # ownership is handed over on release
        except BaseException:
            abandon_handoff(self._waiters, event, self.release)
            raise
        return None

    def release(self) -> None:
        if not self._locked:
            raise SimulationError("release of an unheld lock")
        if self._waiters:
            # Keep _locked True: ownership passes to the next waiter.
            self._waiters.pop(0).succeed()
        else:
            self._locked = False

    @property
    def locked(self) -> bool:
        return self._locked


class Semaphore:
    """Counting semaphore with FIFO handoff (a :class:`Lock` generalised
    to ``capacity`` concurrent holders).

    Used by the server frontend to bound worker concurrency.  Like
    :class:`Lock`, a released slot is handed directly to the oldest
    waiter, so admission order is deterministic.

    Usage inside a process::

        yield from sem.acquire()
        try:
            ...
        finally:
            sem.release()
    """

    __slots__ = ("sim", "capacity", "_in_use", "_waiters")

    def __init__(self, sim: "Simulation", capacity: int):
        if capacity < 1:
            raise SimulationError(f"semaphore capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: list[Event] = []

    def acquire(self) -> Generator:
        if self._in_use < self.capacity:
            self._in_use += 1
            return None
        event = Event(self.sim)
        self._waiters.append(event)
        try:
            yield event  # the slot is handed over on release
        except BaseException:
            abandon_handoff(self._waiters, event, self.release)
            raise
        return None

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError("release of an unheld semaphore slot")
        if self._waiters:
            # Keep _in_use unchanged: the slot passes to the next waiter.
            self._waiters.pop(0).succeed()
        else:
            self._in_use -= 1

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def waiting(self) -> int:
        return len(self._waiters)


class Queue:
    """Unbounded FIFO message queue between processes.

    ``put`` is immediate; ``get`` returns an :class:`Event` that fires
    with the next item.  Used for RPC server loops and the paired-device
    daemon.
    """

    __slots__ = ("sim", "_items", "_getters")

    def __init__(self, sim: "Simulation"):
        self.sim = sim
        self._items: deque = deque()
        self._getters: deque = deque()

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self._items)


class _HeapScheduler:
    """The original ``heapq`` event queue (the reference oracle)."""

    __slots__ = ("_heap",)
    name = "heap"

    def __init__(self) -> None:
        self._heap: list[tuple] = []

    def push(self, entry: tuple) -> None:
        heappush(self._heap, entry)

    # The reference kernel kept zero-delay events on the same heap.
    push_now = push

    def pop(self) -> tuple:
        return heappop(self._heap)

    def pop_due(self, until: Optional[float]) -> Optional[tuple]:
        """Pop the next entry, or None if the queue is empty or the next
        entry fires after ``until`` (inclusive bound; None = no bound)."""
        heap = self._heap
        if not heap or (until is not None and heap[0][0] > until):
            return None
        return heappop(heap)

    def pop_before(self, limit: float) -> Optional[tuple]:
        """Pop the next entry strictly below ``limit``, else None."""
        heap = self._heap
        if not heap or heap[0][0] >= limit:
            return None
        return heappop(heap)

    def peek_time(self) -> Optional[float]:
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)


class _CalendarScheduler:
    """Bucketed timing-wheel event queue with a same-instant fast path.

    Three tiers, popped in global ``(time, seq)`` order:

    * ``now`` — a deque of zero-delay entries.  They are appended in
      ``seq`` order at the current instant, so the deque head is always
      this tier's minimum; it is merge-compared against the wheel tier
      so cross-tier ties resolve exactly like one big heap.  Roughly
      half of all scheduling under fleet load (process starts, event
      triggers, queue hand-offs) rides this deque and never touches a
      priority structure at all.
    * the **wheel** — ``nb`` buckets of width ``w`` covering
      ``[base, base + nb*w)``, absolutely indexed (no wrap).  Push is an
      O(1) append.  When the cursor reaches a bucket it is ``heapify``-d
      once (C, linear) and drained with ``heappop`` — so even a fat
      bucket degrades to a *small* heap, never to a linear scan.  Bucket
      index is ``floor((t - base)/w)``, monotone in ``t`` and identical
      for identical ``t``, so equal-time entries always share a bucket
      and resolve by ``seq`` — the heap oracle's exact firing order,
      float boundaries included.
    * ``far`` — a heap for entries beyond the wheel horizon (long
      timeouts: rekey epochs, Texp refreshes, idle think timers).

    When the wheel drains past its horizon it *rebases*: the bucket
    width is retuned from the observed pop rate, the wheel jumps to the
    next far entry (no empty-bucket crawl across quiet gaps), and far
    entries inside the new horizon migrate into buckets.  A push behind
    the cursor joins the active bucket's heap (ordering holds: the heap
    pops by true ``(time, seq)``, and every remaining wheel entry is in
    a later bucket, hence later in time); a push behind an *inactive*
    cursor rewinds the cursor instead — all skipped buckets are empty.
    """

    __slots__ = ("_now", "_far", "_buckets", "_nb", "_w", "_inv_w", "_base",
                 "_horizon", "_cursor", "_cur", "_ring_count", "_pops",
                 "_last_rebase")

    name = "calendar"

    #: bucket count; width adapts, the count does not.
    NB = 1024
    #: bucket-width bounds (seconds): between 100 ns and 1 s.
    MIN_W = 1e-7
    MAX_W = 1.0

    def __init__(self) -> None:
        self._now: deque = deque()
        self._far: list[tuple] = []
        self._nb = nb = self.NB
        self._buckets: list[list] = [[] for _ in range(nb)]
        self._w = 1e-3
        self._inv_w = 1.0 / self._w
        self._base = 0.0
        self._horizon = nb * self._w
        self._cursor = 0
        #: the heapified bucket currently being drained, or None.
        self._cur: Optional[list] = None
        self._ring_count = 0
        self._pops = 0
        self._last_rebase = 0.0

    def __len__(self) -> int:
        return len(self._now) + self._ring_count + len(self._far)

    def push_now(self, entry: tuple) -> None:
        """Zero-delay fast path: FIFO at the current instant."""
        self._now.append(entry)

    def push(self, entry: tuple) -> None:
        t = entry[0]
        if t >= self._horizon:
            heappush(self._far, entry)
            return
        self._ring_count += 1
        idx = int((t - self._base) * self._inv_w)
        cursor = self._cursor
        if idx > cursor:
            if idx >= self._nb:  # float edge at the horizon boundary
                idx = self._nb - 1
            self._buckets[idx].append(entry)
            return
        cur = self._cur
        if cur is not None:
            # The active bucket is already a heap; entries at or behind
            # the cursor compete there (see class docstring).
            heappush(cur, entry)
        elif idx == cursor:
            self._buckets[idx].append(entry)
        else:
            # Rewind: every bucket in [idx, cursor) is empty, so the
            # scan restarts at the entry's true bucket.
            self._buckets[idx].append(entry)
            self._cursor = idx

    def _rebase(self) -> None:
        """Retune the bucket width and jump the wheel to the next far
        entry, migrating far entries inside the new horizon."""
        far = self._far
        t0 = far[0][0]
        elapsed = t0 - self._last_rebase
        pops = self._pops
        if pops > 16 and elapsed > 0.0:
            # Aim for ~4 events per bucket-width of observed traffic.
            w = 4.0 * elapsed / pops
            w = self.MIN_W if w < self.MIN_W else (
                self.MAX_W if w > self.MAX_W else w)
            self._w = w
            self._inv_w = 1.0 / w
        self._pops = 0
        self._last_rebase = t0
        self._base = t0
        self._horizon = horizon = t0 + self._nb * self._w
        self._cursor = 0
        inv_w = self._inv_w
        nb = self._nb
        buckets = self._buckets
        while far and far[0][0] < horizon:
            entry = heappop(far)
            idx = int((entry[0] - t0) * inv_w)
            if idx >= nb:
                idx = nb - 1
            buckets[idx].append(entry)
            self._ring_count += 1

    def _advance(self) -> Optional[list]:
        """Find, heapify, and activate the next non-empty bucket,
        rebasing over quiet gaps; None when the wheel + far are empty."""
        while True:
            if self._ring_count == 0:
                self._cur = None
                if not self._far:
                    return None
                self._rebase()
            buckets = self._buckets
            nb = self._nb
            cursor = self._cursor
            while cursor < nb:
                bucket = buckets[cursor]
                if bucket:
                    self._cursor = cursor
                    heapify(bucket)
                    self._cur = bucket
                    return bucket
                cursor += 1
            self._cursor = cursor
            if self._ring_count:  # pragma: no cover - defensive
                raise SimulationError("calendar ring count out of sync")

    def pop(self) -> tuple:
        entry = self.pop_due(None)
        if entry is None:
            raise IndexError("pop from an empty calendar queue")
        return entry

    def pop_due(self, until: Optional[float]) -> Optional[tuple]:
        """Pop the next entry, or None if the queue is empty or the next
        entry fires after ``until`` (inclusive bound; None = no bound)."""
        nowq = self._now
        cur = self._cur
        if cur is None:
            cur = self._advance()
        if cur is None:
            if not nowq or (until is not None and nowq[0][0] > until):
                return None
            return nowq.popleft()
        if nowq and nowq[0] <= cur[0]:
            if until is not None and nowq[0][0] > until:
                return None
            return nowq.popleft()
        if until is not None and cur[0][0] > until:
            return None
        entry = heappop(cur)
        if not cur:
            self._cur = None
        self._ring_count -= 1
        self._pops += 1
        return entry

    def pop_before(self, limit: float) -> Optional[tuple]:
        """Pop the next entry strictly below ``limit``, else None."""
        nowq = self._now
        cur = self._cur
        if cur is None:
            cur = self._advance()
        if cur is None:
            if not nowq or nowq[0][0] >= limit:
                return None
            return nowq.popleft()
        if nowq and nowq[0] <= cur[0]:
            if nowq[0][0] >= limit:
                return None
            return nowq.popleft()
        if cur[0][0] >= limit:
            return None
        entry = heappop(cur)
        if not cur:
            self._cur = None
        self._ring_count -= 1
        self._pops += 1
        return entry

    def peek_time(self) -> Optional[float]:
        nowq = self._now
        cur = self._cur
        if cur is None:
            cur = self._advance()
        if cur is None:
            return nowq[0][0] if nowq else None
        if nowq and nowq[0] <= cur[0]:
            return nowq[0][0]
        return cur[0][0]


class Simulation:
    """The event loop.  Time is in (simulated) seconds."""

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._q = q = _CalendarScheduler()
        # Pre-bound scheduler methods: the dispatch loop and _schedule
        # are the hottest call sites in the whole reproduction.
        self._push = q.push
        self._push_now = q.push_now
        self._pop_due = q.pop_due
        self._crashed: Optional[tuple[Process, BaseException]] = None

    # -- time -------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    # -- factories ---------------------------------------------------------
    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def event(self) -> Event:
        return Event(self)

    def queue(self) -> Queue:
        return Queue(self)

    def process(self, gen: Generator, name: str = "") -> Process:
        return Process(self, gen, name)

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, delay: float, fn: Callable, *args: Any) -> None:
        self._seq += 1
        if delay == 0.0:
            self._push_now((self._now, self._seq, fn, args))
        else:
            self._push((self._now + delay, self._seq, fn, args))

    def _schedule_at(self, when: float, fn: Callable, *args: Any) -> None:
        """Schedule at an absolute time (>= now); used by the shard
        engine to inject cross-shard events at their arrival stamps."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when} before now={self._now}"
            )
        self._schedule(when - self._now, fn, *args)

    def _crash(self, proc: Process, exc: BaseException) -> None:
        """Record an unhandled process failure; surfaced from :meth:`run`."""
        if self._crashed is None:
            self._crashed = (proc, exc)

    # -- running ------------------------------------------------------------
    def _step(self) -> None:
        """Dispatch the single next event."""
        time, _seq, fn, args = self._q.pop()
        self._now = time
        fn(*args)
        if self._crashed is not None:
            _proc, exc = self._crashed
            self._crashed = None
            raise exc

    def peek_time(self) -> Optional[float]:
        """The next event's timestamp, or None when the queue is empty."""
        return self._q.peek_time()

    def run(self, until: Optional[float] = None) -> float:
        """Run until the event queue drains or ``until`` is reached.

        Returns the final simulated time.  Re-raises the first unhandled
        process exception.
        """
        pop_due = self._pop_due
        while True:
            entry = pop_due(until)
            if entry is None:
                break
            self._now = entry[0]
            entry[2](*entry[3])
            if self._crashed is not None:
                _proc, exc = self._crashed
                self._crashed = None
                raise exc
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def run_below(self, limit: float) -> Optional[float]:
        """Dispatch every event with timestamp strictly below ``limit``.

        The conservative shard engine's inner loop: a shard granted the
        window ``[now, limit)`` processes exactly the events inside it.
        Returns the next pending event time (>= ``limit``), or None when
        the queue drained.  Does not advance ``now`` to ``limit`` — only
        dispatched events move the clock, so a later grant (or injected
        message) can still schedule inside the untouched remainder.
        """
        pop_before = self._q.pop_before
        while True:
            entry = pop_before(limit)
            if entry is None:
                return self._q.peek_time()
            self._now = entry[0]
            entry[2](*entry[3])
            if self._crashed is not None:
                _proc, exc = self._crashed
                self._crashed = None
                raise exc

    def run_until(self, waitable: Waitable) -> Any:
        """Run until ``waitable`` triggers; return (or raise) its value.

        Unlike :meth:`run`, this tolerates daemon processes that never
        terminate (background purge threads, service loops).
        """
        pop_due = self._pop_due
        while not waitable.triggered:
            entry = pop_due(None)
            if entry is None:
                raise SimulationError(
                    f"deadlock: waiting on {waitable!r} with an empty event heap"
                )
            self._now = entry[0]
            entry[2](*entry[3])
            if self._crashed is not None:
                _proc, exc = self._crashed
                self._crashed = None
                raise exc
        if waitable.ok:
            return waitable.value
        raise waitable.value

    def run_process(self, gen: Generator, name: str = "") -> Any:
        """Spawn ``gen`` and run until it finishes; return its value."""
        return self.run_until(self.process(gen, name=name))

    def all_of(self, waitables: Iterable[Waitable]) -> Event:
        """An event that fires (with a list of values) when all fire."""
        waitables = list(waitables)
        done = self.event()
        remaining = len(waitables)
        results: list[Any] = [None] * remaining
        if remaining == 0:
            return done.succeed([])

        def watcher(i: int, w: Waitable) -> Generator:
            nonlocal remaining
            try:
                value = yield w
            except Exception as exc:
                if not done.triggered:
                    done.fail(exc)
                return
            results[i] = value
            remaining -= 1
            if remaining == 0 and not done.triggered:
                done.succeed(list(results))

        for i, w in enumerate(waitables):
            self.process(watcher(i, w), name=f"all_of[{i}]")
        return done

    def any_of(self, waitables: Iterable[Waitable]) -> Event:
        """An event that fires with ``(index, value)`` of the first
        waitable to trigger.  The first *failure* fails the event
        instead — racing a call against a timeout surfaces the call's
        error immediately rather than waiting out the clock.  Losing
        waitables keep running; their later outcomes are discarded.
        """
        waitables = list(waitables)
        if not waitables:
            raise SimulationError("any_of needs at least one waitable")
        done = self.event()

        def watcher(i: int, w: Waitable) -> Generator:
            try:
                value = yield w
            except Exception as exc:
                if not done.triggered:
                    done.fail(exc)
                return
            if not done.triggered:
                done.succeed((i, value))

        for i, w in enumerate(waitables):
            self.process(watcher(i, w), name=f"any_of[{i}]")
        return done
