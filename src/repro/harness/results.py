"""Result tables: the rows/series the paper's figures and tables show."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

__all__ = [
    "ResultTable",
    "transport_metrics_row",
]


@dataclass
class ResultTable:
    """A labelled grid of results, renderable for EXPERIMENTS.md."""

    title: str
    columns: Sequence[str]
    rows: list[tuple] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row width {len(values)} != column count {len(self.columns)}"
            )
        self.rows.append(tuple(values))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        widths = [
            max(len(str(col)), *(len(self._cell(r[i])) for r in self.rows))
            if self.rows else len(str(col))
            for i, col in enumerate(self.columns)
        ]
        lines = [self.title, "=" * len(self.title)]
        header = " | ".join(
            str(col).ljust(widths[i]) for i, col in enumerate(self.columns)
        )
        lines.append(header)
        lines.append("-+-".join("-" * w for w in widths))
        for row in self.rows:
            lines.append(
                " | ".join(
                    self._cell(v).ljust(widths[i]) for i, v in enumerate(row)
                )
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def render_markdown(self) -> str:
        lines = [f"### {self.title}", ""]
        lines.append("| " + " | ".join(str(c) for c in self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(self._cell(v) for v in row) + " |")
        for note in self.notes:
            lines.append(f"\n*{note}*")
        return "\n".join(lines)

    @staticmethod
    def _cell(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    def column(self, name: str) -> list:
        idx = list(self.columns).index(name)
        return [row[idx] for row in self.rows]


#: Column order used by :func:`transport_metrics_row` — benches build a
#: ResultTable as ``["label", *TRANSPORT_METRIC_COLUMNS]``.
TRANSPORT_METRIC_COLUMNS = (
    "rpc_calls", "serial", "pipelined", "inflight_hwm",
    "coalesced", "batched", "bytes_sent", "bytes_received",
)


def transport_metrics_row(session) -> tuple:
    """Flatten a :class:`~repro.core.client.ServiceSession`'s transport
    counters into a row matching ``TRANSPORT_METRIC_COLUMNS``."""
    channels = session.channel_metrics()
    coalesced = (
        session.metrics.coalesced_hits + session.metrics.coalesced_batch_hits
    )
    return (
        channels.calls,
        channels.serial_calls,
        channels.pipelined_calls,
        channels.inflight_hwm,
        coalesced,
        session.metrics.batched_messages,
        channels.bytes_sent,
        channels.bytes_received,
    )
