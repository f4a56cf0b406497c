"""The declarative shape of a key-service cluster: a :class:`Topology`.

The paper's "multiple key services" extension is one k-of-m
:class:`~repro.cluster.replica.ReplicaGroup` over a topology.  The
whole shape is one frozen value object that checks itself once:

    topo = Topology.symmetric(regions=("us", "eu", "ap"),
                              replicas_per_region=2, threshold=2,
                              rtt_ms=80.0)
    config = KeypadConfig.builder().federation(topology=topo).build()

* :class:`Region` / :class:`Topology` — regions, replicas-per-region,
  the k/m share threshold, and the inter-region RTT matrix.  Hashable
  and comparable, so it rides inside the frozen
  :class:`~repro.core.policy.KeypadConfig` (its one ``cluster`` field).

A flat k-of-m cluster (``builder().replication(k, m)``) is a
one-region topology.  Only a topology with more than one region
(:attr:`Topology.multi_region`) labels its replicas by region and
gives its devices a home region whose client ranks replicas by live
link RTT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.errors import ConfigError

__all__ = ["Region", "Topology"]


@dataclass(frozen=True)
class Region:
    """One region: a name and how many full replicas it hosts."""

    name: str
    replicas: int = 2

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise ConfigError("region name must be a non-empty string")
        if self.replicas < 1:
            raise ConfigError(
                f"region {self.name!r} needs at least one replica"
            )


@dataclass(frozen=True)
class Topology:
    """The declarative shape of a replica cluster.

    ``rtt_ms`` is the symmetric inter-region round-trip matrix in
    milliseconds (zero diagonal), indexed like ``regions``.  Instances
    are immutable and hashable so they can live inside a frozen
    ``KeypadConfig``, and construction checks the whole shape once,
    raising :class:`~repro.errors.ConfigError`.
    """

    regions: Tuple[Region, ...]
    threshold: int = 2
    rtt_ms: Tuple[Tuple[float, ...], ...] = ()

    def __post_init__(self):
        # Coerce sequences so list-built topologies stay hashable.
        object.__setattr__(self, "regions", tuple(self.regions))
        object.__setattr__(
            self,
            "rtt_ms",
            tuple(tuple(float(v) for v in row) for row in self.rtt_ms),
        )
        if not self.regions:
            raise ConfigError("topology needs at least one region")
        names = [r.name for r in self.regions]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate region names: {names}")
        total = self.total_replicas
        if not 1 <= self.threshold <= total:
            raise ConfigError(
                f"need 1 <= threshold <= {total} replicas, "
                f"got threshold={self.threshold}"
            )
        n = len(self.regions)
        if len(self.rtt_ms) != n or any(len(row) != n for row in self.rtt_ms):
            raise ConfigError(
                f"rtt_ms must be a {n}x{n} matrix matching regions"
            )
        for i in range(n):
            if self.rtt_ms[i][i] != 0.0:
                raise ConfigError(
                    f"rtt_ms diagonal must be zero (region {names[i]!r})"
                )
            for j in range(n):
                if self.rtt_ms[i][j] < 0:
                    raise ConfigError("rtt_ms entries cannot be negative")
                if self.rtt_ms[i][j] != self.rtt_ms[j][i]:
                    raise ConfigError(
                        f"rtt_ms must be symmetric "
                        f"({names[i]!r} <-> {names[j]!r})"
                    )

    # -- construction ------------------------------------------------------
    @classmethod
    def symmetric(
        cls,
        regions: Sequence[str] | int = ("us", "eu", "ap"),
        replicas_per_region: int = 2,
        threshold: int = 2,
        rtt_ms: float = 80.0,
    ) -> "Topology":
        """All-pairs-equal RTT topology, the common experiment shape."""
        if isinstance(regions, int):
            names: Tuple[str, ...] = tuple(
                f"r{i}" for i in range(regions)
            )
        else:
            names = tuple(regions)
        n = len(names)
        matrix = tuple(
            tuple(0.0 if i == j else float(rtt_ms) for j in range(n))
            for i in range(n)
        )
        return cls(
            regions=tuple(
                Region(name, replicas_per_region) for name in names
            ),
            threshold=threshold,
            rtt_ms=matrix,
        )

    # -- shape -------------------------------------------------------------
    @property
    def total_replicas(self) -> int:
        return sum(r.replicas for r in self.regions)

    @property
    def multi_region(self) -> bool:
        """Whether replicas carry region labels and devices home regions
        (a one-region topology is the flat k-of-m cluster)."""
        return len(self.regions) > 1

    @property
    def region_names(self) -> Tuple[str, ...]:
        return tuple(r.name for r in self.regions)

    def region_index(self, name: str) -> int:
        for i, region in enumerate(self.regions):
            if region.name == name:
                return i
        raise ValueError(
            f"unknown region {name!r}; topology has {self.region_names}"
        )

    def region_of(self, replica_index: int) -> str:
        """Region name for a flat replica index (regions in order)."""
        i = replica_index
        for region in self.regions:
            if i < region.replicas:
                return region.name
            i -= region.replicas
        raise IndexError(
            f"replica index {replica_index} out of range "
            f"({self.total_replicas} replicas)"
        )

    def replica_indices(self, name: str) -> Tuple[int, ...]:
        start = 0
        for region in self.regions:
            if region.name == name:
                return tuple(range(start, start + region.replicas))
            start += region.replicas
        raise ValueError(f"unknown region {name!r}")

    def rtt_s(self, a: str, b: str) -> float:
        """Inter-region RTT in seconds (zero within a region)."""
        return self.rtt_ms[self.region_index(a)][self.region_index(b)] / 1000.0

    # -- wire --------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "regions": [
                {"name": r.name, "replicas": r.replicas}
                for r in self.regions
            ],
            "threshold": self.threshold,
            "rtt_ms": [list(row) for row in self.rtt_ms],
        }
