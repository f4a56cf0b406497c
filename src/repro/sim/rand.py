"""Deterministic randomness for simulations.

Every experiment in the reproduction must be replayable bit-for-bit, so
all randomness flows through seeded :class:`SimRandom` streams.  A
stream is derived from a seed and a label, so streams with different
labels are independent and stable (e.g. the workload generator and the
thief model never perturb each other's draws even if one is
reconfigured).
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left
from typing import Sequence, TypeVar

T = TypeVar("T")

__all__ = ["SimRandom"]

# Cumulative Zipf weight tables keyed by (n, skew).  Deterministic pure
# functions of their key (no random state), so sharing across streams
# and simulations is safe.  Workloads draw from a handful of working-set
# sizes, so the cache stays tiny even for million-device fleets.
_ZIPF_CUM: dict[tuple[int, float], list[float]] = {}


def _zipf_cum(n: int, skew: float) -> list[float]:
    table = _ZIPF_CUM.get((n, skew))
    if table is None:
        # Sequential accumulation, identical to summing the weights
        # left-to-right — bit-for-bit the totals the inline scan used.
        acc = 0.0
        table = []
        append = table.append
        for i in range(n):
            acc += 1.0 / (i + 1) ** skew
            append(acc)
        _ZIPF_CUM[(n, skew)] = table
    return table


class SimRandom:
    """A labelled deterministic random stream."""

    def __init__(self, seed: int | str | bytes = 0, label: str = "root"):
        self.label = label
        self._rng = random.Random(self._derive(seed, label))

    @staticmethod
    def _derive(seed: int | str | bytes, label: str) -> int:
        if isinstance(seed, int):
            seed_bytes = seed.to_bytes(32, "big", signed=False) if seed >= 0 else str(seed).encode()
        elif isinstance(seed, str):
            seed_bytes = seed.encode()
        else:
            seed_bytes = seed
        digest = hashlib.sha256(seed_bytes + b"|" + label.encode()).digest()
        return int.from_bytes(digest, "big")

    # -- draws --------------------------------------------------------------
    def random(self) -> float:
        return self._rng.random()

    def uniform(self, lo: float, hi: float) -> float:
        return self._rng.uniform(lo, hi)

    def randint(self, lo: int, hi: int) -> int:
        return self._rng.randint(lo, hi)

    def expovariate(self, rate: float) -> float:
        return self._rng.expovariate(rate)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._rng.gauss(mu, sigma)

    def choice(self, seq: Sequence[T]) -> T:
        return self._rng.choice(seq)

    def sample(self, seq: Sequence[T], k: int) -> list[T]:
        return self._rng.sample(seq, k)

    def bytes(self, n: int) -> bytes:
        return self._rng.randbytes(n)

    def zipf_index(self, n: int, skew: float = 1.0) -> int:
        """Draw an index in ``[0, n)`` with a Zipf-like popularity skew.

        Used by workload generators to model file-access locality
        (a few hot files, a long tail of cold ones).
        """
        if n <= 0:
            raise ValueError("zipf_index needs n >= 1")
        # Inverse-transform on the (truncated) Zipf CDF.  bisect_left
        # finds the first i with target <= cum[i] — the same index the
        # original linear scan over per-draw weight lists returned.
        cum = _zipf_cum(n, skew)
        target = self._rng.random() * cum[-1]
        i = bisect_left(cum, target)
        return i if i < n else n - 1
