"""Deterministic fault injection for availability experiments.

A :class:`FaultPlan` is an ordered list of :class:`FaultEvent` records —
replica crashes, link outages, delay spikes, jitter (reordered
delivery), and partitions — either written by hand or generated from a
seeded :class:`~repro.sim.rand.SimRandom` stream so the same seed always
yields the same outage schedule.  A :class:`FaultInjector` replays the
plan inside the simulation, driving :class:`~repro.net.link.Link` state
and :class:`~repro.cluster.replica.ReplicaGroup` crash hooks, and
records everything it did in an event trace; two same-seed runs must
produce identical injector *and* link traces (asserted by the test
suite and ``bench_availability``).

The on-disk format (``docs/FAULTS.md``) is a JSON list of events::

    [{"at": 4.0, "action": "crash",     "target": "replica:1", "duration": 6.0},
     {"at": 9.5, "action": "link-down", "target": "link:keys-r0", "duration": 2.0},
     {"at": 12.0, "action": "delay",    "target": "link:keys-r2", "value": 0.8,
      "duration": 3.0}]

Actions with a ``duration`` are automatically reverted (crash→recover,
link-down→link-up, delay/jitter→restore) when the window ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.net.link import Link
from repro.sim import Simulation, SimRandom, SimulationError
from repro.cluster.replica import ReplicaGroup

__all__ = ["FaultEvent", "FaultPlan", "FaultInjector", "ACTIONS"]

#: Every action the injector understands.  ``partition`` takes a
#: comma-separated list of link targets and downs them together.
#: ``crash`` is a transient outage (state survives, auto-revert just
#: resumes serving); ``kill`` is process death — the revert runs real
#: audit recovery from the replica's spilled blobs.
ACTIONS = (
    "crash", "recover",
    "kill", "restart",
    "link-down", "link-up", "sever",
    "delay", "jitter",
    "partition",
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``target`` is ``"replica:<index>"`` or ``"link:<name>"``
    (``partition`` allows a comma list mixing ``link:<name>`` and
    ``region:<name>``, the latter expanding to a registered region's
    boundary links).  ``duration`` > 0 makes
    the fault a window that auto-reverts; ``value`` carries the extra
    seconds for ``delay``/``jitter``.
    """

    at: float
    action: str
    target: str
    duration: float = 0.0
    value: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.at < 0 or self.duration < 0 or self.value < 0:
            raise ValueError("fault times must be non-negative")

    def to_dict(self) -> dict:
        d = {"at": self.at, "action": self.action, "target": self.target}
        if self.duration:
            d["duration"] = self.duration
        if self.value:
            d["value"] = self.value
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FaultEvent":
        return cls(
            at=float(d["at"]),
            action=str(d["action"]),
            target=str(d["target"]),
            duration=float(d.get("duration", 0.0)),
            value=float(d.get("value", 0.0)),
        )


@dataclass
class FaultPlan:
    """An ordered fault schedule."""

    events: list[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.events = sorted(self.events, key=lambda e: (e.at, e.target, e.action))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def to_list(self) -> list[dict]:
        return [e.to_dict() for e in self.events]

    @classmethod
    def from_list(cls, items: list[dict]) -> "FaultPlan":
        return cls([FaultEvent.from_dict(d) for d in items])

    # -- generators ----------------------------------------------------------

    @classmethod
    def replica_kill(cls, index: int, at: float, duration: float) -> "FaultPlan":
        """Process death at ``at``; restart + audit recovery after
        ``duration`` seconds."""
        return cls([FaultEvent(at, "kill", f"replica:{index}", duration)])

    @classmethod
    def region_partition(
        cls, region: str, at: float, duration: float
    ) -> "FaultPlan":
        """Sever a whole region from the rest of the federation at
        ``at`` and heal it after ``duration`` seconds.

        The injector expands ``region:<name>`` (via
        :meth:`FaultInjector.register_region`) into every device link
        that crosses the region boundary, into or out of the region,
        and downs them together; intra-region links stay up, so
        devices homed there keep reaching their local replicas.
        """
        return cls([FaultEvent(at, "partition", f"region:{region}", duration)])

    @classmethod
    def random_outages(
        cls,
        rng: SimRandom,
        horizon: float,
        replica_count: int,
        link_names: list[str],
        rate: float = 0.05,
        mean_duration: float = 3.0,
        delay_spike: float = 0.5,
    ) -> "FaultPlan":
        """A seeded random schedule of crashes / outages / delay spikes.

        Fault arrivals are Poisson with the given rate; each picks a
        random kind and target and lasts an exponential duration.  All
        draws come from ``rng``, so a forked stream with the same seed
        reproduces the schedule exactly.
        """
        events: list[FaultEvent] = []
        t = 0.0
        kinds = ["crash", "link-down", "delay", "jitter"]
        while True:
            t += rng.expovariate(rate)
            if t >= horizon:
                break
            kind = rng.choice(kinds)
            duration = min(rng.expovariate(1.0 / mean_duration), horizon - t)
            if duration <= 0:
                continue
            if kind == "crash" and replica_count > 0:
                target = f"replica:{rng.randint(0, replica_count - 1)}"
                events.append(FaultEvent(t, "crash", target, duration))
            elif link_names:
                target = f"link:{rng.choice(link_names)}"
                value = rng.uniform(0.0, delay_spike) if kind in ("delay", "jitter") else 0.0
                action = kind if kind != "crash" else "link-down"
                events.append(FaultEvent(t, action, target, duration, value))
        return cls(events)


class FaultInjector:
    """Replays a :class:`FaultPlan` against links and replicas."""

    def __init__(
        self,
        sim: Simulation,
        links: Optional[dict[str, Link]] = None,
        group: Optional[ReplicaGroup] = None,
        jitter_rng: Optional[SimRandom] = None,
    ):
        self.sim = sim
        self.links = dict(links or {})
        self.group = group
        self._jitter_rng = jitter_rng or SimRandom(0, "fault-jitter")
        #: region name -> boundary links a region partition severs
        self.region_links: dict[str, list[Link]] = {}
        # (time, description) apply/revert trace; same-seed runs must
        # produce identical traces.
        self.trace: list[tuple[float, str]] = []

    # -- wiring --------------------------------------------------------------

    def register_region(self, name: str, boundary_links: list[Link]) -> None:
        """Wire a region for ``partition region:<name>`` events: the
        links that cross the region's boundary (downed and healed as
        one)."""
        self.region_links[name] = list(boundary_links)

    def _link(self, name: str) -> Link:
        try:
            return self.links[name]
        except KeyError:
            raise SimulationError(f"fault plan names unknown link {name!r}") from None

    def _replica_index(self, target: str) -> int:
        index = int(target.split(":", 1)[1])
        if self.group is None:
            raise SimulationError("fault plan crashes a replica but no group is wired")
        if not 0 <= index < len(self.group):
            raise SimulationError(f"fault plan names unknown replica {index}")
        return index

    def _split(self, target: str) -> tuple[str, str]:
        if ":" not in target:
            raise SimulationError(f"malformed fault target {target!r}")
        return tuple(target.split(":", 1))  # type: ignore[return-value]

    def _partition_links(self, target: str) -> list[Link]:
        """Expand a partition target list: ``link:`` parts name one
        link each, ``region:`` parts expand to the region's registered
        boundary links."""
        links: list[Link] = []
        for part in target.split(","):
            kind, name = self._split(part.strip())
            if kind == "region":
                try:
                    links.extend(self.region_links[name])
                except KeyError:
                    raise SimulationError(
                        f"fault plan partitions unknown region {name!r}"
                    ) from None
            else:
                links.append(self._link(name))
        return links

    # -- execution -----------------------------------------------------------
    def run(self, plan: FaultPlan) -> "list":
        """Spawn one sim process per fault event; returns the processes."""
        return [
            self.sim.process(
                self._one(event), name=f"fault-{event.action}@{event.at:g}"
            )
            for event in plan
        ]

    def _one(self, event: FaultEvent) -> Generator:
        if event.at > 0:
            yield self.sim.timeout(event.at)
        self._apply(event)
        if event.duration > 0:
            yield self.sim.timeout(event.duration)
            self._revert(event)

    def _record(self, text: str) -> None:
        self.trace.append((self.sim.now, text))

    def _apply(self, event: FaultEvent) -> None:
        action, target = event.action, event.target
        if action == "crash":
            index = self._replica_index(target)
            self.group.crash(index)
            self._record(f"crash {target}")
        elif action == "recover":
            index = self._replica_index(target)
            self.group.recover(index)
            self._record(f"recover {target}")
        elif action == "kill":
            index = self._replica_index(target)
            entries = self.group.kill(index)
            self._record(f"kill {target} entries={entries}")
        elif action == "restart":
            index = self._replica_index(target)
            stats = self.group.restart(index)
            self._record(
                f"restart {target} "
                f"recovered={stats.get('recovered_entries')} "
                f"lost={stats.get('lost_entries')}"
            )
        elif action == "link-down":
            self._link(self._split(target)[1]).set_down()
            self._record(f"down {target}")
        elif action == "link-up":
            self._link(self._split(target)[1]).set_up()
            self._record(f"up {target}")
        elif action == "sever":
            self._link(self._split(target)[1]).sever()
            self._record(f"sever {target}")
        elif action == "delay":
            link = self._link(self._split(target)[1])
            link.rtt += event.value
            self._record(f"delay {target} +{event.value:g}")
        elif action == "jitter":
            link = self._link(self._split(target)[1])
            link.set_jitter(event.value, self._jitter_rng)
            self._record(f"jitter {target} {event.value:g}")
        elif action == "partition":
            for link in self._partition_links(target):
                link.set_down()
            self._record(f"partition {target}")
        else:  # pragma: no cover - guarded by FaultEvent validation
            raise SimulationError(f"unknown fault action {action!r}")

    def _revert(self, event: FaultEvent) -> None:
        action, target = event.action, event.target
        if action == "crash":
            self.group.recover(self._replica_index(target))
            self._record(f"recover {target}")
        elif action == "kill":
            stats = self.group.restart(self._replica_index(target))
            self._record(
                f"restart {target} "
                f"recovered={stats.get('recovered_entries')} "
                f"lost={stats.get('lost_entries')}"
            )
        elif action == "link-down":
            self._link(self._split(target)[1]).set_up()
            self._record(f"up {target}")
        elif action == "delay":
            link = self._link(self._split(target)[1])
            link.rtt = max(0.0, link.rtt - event.value)
            self._record(f"delay {target} -{event.value:g}")
        elif action == "jitter":
            self._link(self._split(target)[1]).set_jitter(0.0)
            self._record(f"jitter {target} 0")
        elif action == "partition":
            for link in self._partition_links(target):
                link.set_up()
            self._record(f"heal {target}")
        # link-up / recover / sever have no windowed revert.
