"""Audit-fidelity analysis: report vs ground truth.

Quantifies the two quantities §5.2 evaluates:

* **false positives** — files the report marks compromised that the
  attacker never actually read (caused by prefetching and by the
  worst-case ``Tloss − Texp`` window);
* **false negatives** — files actually read that the report misses.
  Keypad's central claim is that this set is *empty* whenever the
  attacker's reads go through the key service or through keys that
  were cached during the exposure window (which the report already
  counts as compromised).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Set

from repro.forensics.audit import AuditReport

__all__ = ["FidelityAnalysis", "analyze_fidelity"]


@dataclass(frozen=True)
class FidelityAnalysis:
    """Confusion-set summary of one audit report."""

    reported: Set[bytes]
    truly_accessed: Set[bytes]

    @property
    def true_positives(self) -> Set[bytes]:
        return self.reported & self.truly_accessed

    @property
    def false_positives(self) -> Set[bytes]:
        return self.reported - self.truly_accessed

    @property
    def false_negatives(self) -> Set[bytes]:
        return self.truly_accessed - self.reported

    @property
    def precision(self) -> float:
        if not self.reported:
            return 1.0
        return len(self.true_positives) / len(self.reported)

    @property
    def recall(self) -> float:
        if not self.truly_accessed:
            return 1.0
        return len(self.true_positives) / len(self.truly_accessed)

    @property
    def zero_false_negatives(self) -> bool:
        """The paper's hard requirement."""
        return not self.false_negatives

    def render(self) -> str:
        return (
            f"reported={len(self.reported)} truly_accessed="
            f"{len(self.truly_accessed)} fp={len(self.false_positives)} "
            f"fn={len(self.false_negatives)} precision={self.precision:.2f} "
            f"recall={self.recall:.2f}"
        )


def analyze_fidelity(
    report: AuditReport, truly_accessed: Iterable[bytes]
) -> FidelityAnalysis:
    return FidelityAnalysis(
        reported=set(report.compromised_ids),
        truly_accessed=set(truly_accessed),
    )
