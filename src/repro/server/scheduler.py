"""Per-device fair queueing for the key-service frontend.

Two interchangeable policies behind one small interface (``push`` /
``take`` / ``take_matching`` / ``queue_len``):

* :class:`FifoScheduler` — one global arrival-order queue, the
  behaviour of a naive multi-tenant server.  A device that floods the
  service pushes everyone else's requests behind its own.
* :class:`DrrScheduler` — deficit round robin (Shreedhar & Varghese)
  over per-device queues.  Each backlogged device accrues one cost
  unit of credit (``QUANTUM``) per scheduling round and may only be served
  while its credit covers the head request's cost, so a scanner
  hammering ``key.fetch_batch`` gets its fair share and no more, while
  a device that asks rarely is served within about one round of
  arriving.

Costs are abstract units (1 per single fetch, the batch size for
batched methods — see ``repro.server.frontend.default_request_cost``),
so fairness is measured in *work*, not request count.

Determinism: queues are plain deques keyed by device id in insertion
order; nothing here consults wall-clock or unseeded randomness, so a
given arrival sequence always yields the same service order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Deque, Dict, Optional

__all__ = ["Request", "DrrScheduler", "FifoScheduler", "make_scheduler"]


@dataclass
class Request:
    """One admitted RPC waiting for (or under) service."""

    device_id: str
    method: str
    payload: dict
    #: absolute sim-time deadline carried out of band (None = unbounded).
    deadline: Optional[float]
    #: sim Event the frontend triggers with the handler's result/fault.
    done: Any
    #: abstract service-cost units (1 = one lookup+append's worth).
    cost: int = 1


class FifoScheduler:
    """Global arrival-order service (the unfair baseline)."""

    policy = "fifo"

    def __init__(self):
        self._queue: Deque[Request] = deque()
        self._counts: Dict[str, int] = {}
        self._total_cost = 0

    def __len__(self) -> int:
        return len(self._queue)

    def queue_len(self, device_id: str) -> int:
        return self._counts.get(device_id, 0)

    def wait_units(self, device_id: str, cost: int) -> float:
        """Cost units served before a new request would finish: under
        FIFO that is the whole backlog, regardless of who queued it."""
        del device_id
        return self._total_cost + cost

    def push(self, request: Request) -> None:
        self._queue.append(request)
        self._counts[request.device_id] = (
            self._counts.get(request.device_id, 0) + 1
        )
        self._total_cost += request.cost

    def _pop(self, request: Request) -> Request:
        count = self._counts.get(request.device_id, 0) - 1
        if count <= 0:
            self._counts.pop(request.device_id, None)
        else:
            self._counts[request.device_id] = count
        self._total_cost -= request.cost
        return request

    def take(self) -> Optional[Request]:
        if not self._queue:
            return None
        return self._pop(self._queue.popleft())

    def take_matching(
        self, predicate: Callable[[Request], bool], limit: int
    ) -> list[Request]:
        """Consecutive head requests passing ``predicate`` (group fill)."""
        out: list[Request] = []
        while self._queue and len(out) < limit and predicate(self._queue[0]):
            out.append(self._pop(self._queue.popleft()))
        return out


class DrrScheduler:
    """Deficit round robin over per-device FIFO queues."""

    policy = "drr"

    #: how many round-robin positions a group fill may look ahead,
    #: as a multiple of the requested group size (bounds the scan so a
    #: 10,000-device backlog never turns one take into an O(n) walk).
    GROUP_SCAN_FACTOR = 4

    #: credit units granted per scheduling round.
    QUANTUM = 1

    def __init__(self):
        self._queues: Dict[str, Deque[Request]] = {}
        #: round-robin ring of device ids; may hold devices whose queue
        #: already drained (retired lazily when they reach the head, so
        #: group fills never pay an O(ring) removal).
        self._ring: Deque[str] = deque()
        self._in_ring: set[str] = set()
        self._credit: Dict[str, float] = {}
        #: head device already granted this visit's quantum (one grant
        #: per ring visit — without this, a multi-queued device at the
        #: head would be re-granted on every take and monopolise).
        self._head_granted: Optional[str] = None
        self._backlog = 0
        self._total_cost = 0

    def __len__(self) -> int:
        return self._backlog

    def queue_len(self, device_id: str) -> int:
        queue = self._queues.get(device_id)
        return len(queue) if queue else 0

    def wait_units(self, device_id: str, cost: int) -> float:
        """Cost units served before a new request would finish.

        Under DRR a request of cost ``c`` needs about ``ceil(c/QUANTUM)``
        scheduling rounds (plus rounds for work already queued by the
        same device), and each round serves at most ``QUANTUM`` units to
        every backlogged device — so a single fetch from a light tenant
        waits roughly one round even when a scanner has megabytes of
        batches queued, while the scanner's own batch waits ``c`` rounds.
        This is what makes admission control *fair*: the estimate, like
        the service, charges a device for its own appetite rather than
        for the global backlog.  Bounded above by the whole backlog
        (DRR is work-conserving; you never wait longer than everything).
        """
        queue = self._queues.get(device_id)
        own = sum(r.cost for r in queue) if queue else 0
        credit = self._credit.get(device_id, 0.0)
        need = max(0.0, own + cost - credit)
        rounds = -(-need // self.QUANTUM)  # ceil
        active = len(self._queues)
        if device_id not in self._queues:
            active += 1
        return min(rounds * active * self.QUANTUM, self._total_cost) + cost

    def push(self, request: Request) -> None:
        queue = self._queues.get(request.device_id)
        if queue is None:
            queue = self._queues[request.device_id] = deque()
        queue.append(request)
        if request.device_id not in self._in_ring:
            self._in_ring.add(request.device_id)
            self._ring.append(request.device_id)
        self._backlog += 1
        self._total_cost += request.cost

    def _retire(self, device_id: str) -> None:
        """Drop a drained head device; idle devices forfeit credit
        (classic DRR — you cannot bank service while idle)."""
        self._ring.popleft()
        self._in_ring.discard(device_id)
        self._credit.pop(device_id, None)
        self._queues.pop(device_id, None)

    def take(self) -> Optional[Request]:
        """Serve one request under DRR.

        Visits the ring from the current head: a drained device is
        retired; a device whose credit covers its head request is
        served and keeps its position (it may burst within its round);
        otherwise it gains one quantum and, if still short, rotates to
        the tail.  Amortised cost per served request is O(cost/quantum)
        ring steps.
        """
        if self._backlog == 0:
            return None
        while True:
            device_id = self._ring[0]
            queue = self._queues.get(device_id)
            if not queue:
                self._retire(device_id)
                self._head_granted = None
                continue
            head = queue[0]
            credit = self._credit.get(device_id, 0.0)
            if credit < head.cost:
                if self._head_granted == device_id:
                    # This visit's quantum is spent: next round.
                    self._ring.rotate(-1)
                    self._head_granted = None
                    continue
                credit += self.QUANTUM
                self._credit[device_id] = credit
                self._head_granted = device_id
                if credit < head.cost:
                    self._ring.rotate(-1)
                    self._head_granted = None
                continue
            queue.popleft()
            self._backlog -= 1
            self._total_cost -= head.cost
            self._credit[device_id] = credit - head.cost
            if not queue:
                self._retire(device_id)
                self._head_granted = None
            return head

    def take_matching(
        self, predicate: Callable[[Request], bool], limit: int
    ) -> list[Request]:
        """Pull matching *head* requests from other devices for a group.

        Each taken device is charged as if its turn had come: it is
        granted one quantum (its next round's visit, consumed early)
        and debited the request's cost, so group fills pull a device's
        service *forward* without enlarging its share — credit may go
        negative and the device then sits out later rounds.
        """
        out: list[Request] = []
        if limit <= 0 or self._backlog == 0:
            return out
        scan = max(16, self.GROUP_SCAN_FACTOR * limit)
        for device_id in list(islice(self._ring, scan)):
            if len(out) >= limit:
                break
            queue = self._queues.get(device_id)
            if not queue:
                continue  # drained; retired lazily when it reaches head
            head = queue[0]
            if not predicate(head):
                continue
            queue.popleft()
            self._backlog -= 1
            self._total_cost -= head.cost
            self._credit[device_id] = (
                self._credit.get(device_id, 0.0) + self.QUANTUM - head.cost
            )
            out.append(head)
        return out


def make_scheduler(policy: str):
    """Factory: ``'drr'`` (fair) or ``'fifo'`` (arrival order)."""
    if policy == "drr":
        return DrrScheduler()
    if policy == "fifo":
        return FifoScheduler()
    raise ValueError(f"unknown scheduler policy {policy!r}")
