"""Directory-key prefetching policies (§3.3, §4 "Key Prefetching").

The prototype's default is *full-directory prefetch on the Nth miss*:
a per-directory miss counter triggers a batched fetch of every key in
the directory once a scanning workload is detected, and the fetch is
non-recursive so "any false positives are triggered by real accesses
to (related) files in the same directory".  The paper also evaluates a
random-prefetch scheme and prefetching on the 1st/3rd/10th miss
(§5.1.1); all of those are expressible here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "PrefetchDecision",
    "PrefetchPolicy",
    "NoPrefetch",
    "DirectoryPrefetch",
    "RandomPrefetch",
    "make_policy",
    "filter_inflight",
    "decision_attrs",
]


@dataclass(frozen=True)
class PrefetchDecision:
    """What to prefetch after a key-cache miss."""

    whole_directory: bool = False
    sample_count: int = 0


class PrefetchPolicy:
    """Interface: consulted on every blocking key-cache miss."""

    name = "abstract"

    def reset(self) -> None:
        """Forget all counters (e.g. across experiment phases)."""


class NoPrefetch(PrefetchPolicy):
    """Baseline: never prefetch (maximum audit precision)."""

    name = "none"

    def on_miss(self, directory: str) -> PrefetchDecision:
        return PrefetchDecision()


@dataclass
class DirectoryPrefetch(PrefetchPolicy):
    """Prefetch the whole directory on the Nth miss inside it.

    The prototype default is ``miss_threshold=3`` ("We adopted a
    prefetch-on-third-miss policy to strike a good balance between
    performance and auditing quality").
    """

    miss_threshold: int = 3
    _miss_counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.miss_threshold < 1:
            raise ValueError("miss threshold must be >= 1")
        self.name = f"dir-on-{self.miss_threshold}rd-miss"

    def on_miss(self, directory: str) -> PrefetchDecision:
        count = self._miss_counts.get(directory, 0) + 1
        self._miss_counts[directory] = count
        if count >= self.miss_threshold:
            # Counter resets after the prefetch completes, so a
            # directory whose keys have expired re-arms naturally once
            # fresh misses accumulate.
            return PrefetchDecision(whole_directory=True)
        return PrefetchDecision()

    def on_directory_prefetched(self, directory: str) -> None:
        self._miss_counts[directory] = 0

    def reset(self) -> None:
        self._miss_counts.clear()


@dataclass
class RandomPrefetch(PrefetchPolicy):
    """Prefetch ``sample_count`` random sibling keys on every miss.

    The scheme the paper evaluated and rejected in favour of
    full-directory prefetch (more false positives for no extra
    performance).
    """

    sample_count: int = 4

    def __post_init__(self) -> None:
        if self.sample_count < 1:
            raise ValueError("sample count must be >= 1")
        self.name = f"random-{self.sample_count}"

    def on_miss(self, directory: str) -> PrefetchDecision:
        return PrefetchDecision(sample_count=self.sample_count)


def make_policy(spec: str) -> PrefetchPolicy:
    """Parse a policy spec: 'none', 'dir:N', or 'random:K'."""
    if spec == "none":
        return NoPrefetch()
    kind, _, arg = spec.partition(":")
    if kind == "dir":
        return DirectoryPrefetch(miss_threshold=int(arg or 3))
    if kind == "random":
        return RandomPrefetch(sample_count=int(arg or 4))
    raise ValueError(f"unknown prefetch policy spec {spec!r}")


def decision_attrs(decision: PrefetchDecision, policy: PrefetchPolicy) -> dict:
    """Span attributes describing a prefetch decision (for tracing)."""
    if decision.whole_directory:
        mode = "directory"
    elif decision.sample_count:
        mode = f"random-{decision.sample_count}"
    else:
        mode = "none"
    return {"policy": policy.name, "mode": mode}


def filter_inflight(candidates: list, inflight_ids: set) -> list:
    """Drop prefetch candidates whose keys are already being fetched.

    ``candidates`` are ``(path, header)`` pairs; a concurrent process's
    in-flight fetch (see :meth:`ServiceSession.inflight_fetch_ids`)
    will populate the cache anyway, so spending a batch slot on the
    same audit ID is pure waste.
    """
    if not inflight_ids:
        return candidates
    return [
        (path, header)
        for path, header in candidates
        if header.audit_id not in inflight_ids
    ]
