"""The event kernel's oracle: the original ``heapq`` scheduler.

``repro.sim.kernel.Simulation`` keeps its events in
``_CalendarScheduler`` (a timing wheel with a same-instant fast queue).
Before it, one binary heap held every entry in ``(time, seq)`` order.
That heap is kept here, unchanged, so the equivalence tests and
``benchmarks/bench_sim_kernel.py`` can patch it in with
``mock.patch.object(kernel, "_CalendarScheduler", HeapScheduler)`` and
demand the identical firing order.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Optional


class HeapScheduler:
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

    def busy_at(self, t: float) -> bool:
        """Whether an entry is queued at instant ``t`` (the current one)."""
        heap = self._heap
        return bool(heap) and heap[0][0] <= t

    def __len__(self) -> int:
        return len(self._heap)
