"""Per-operation context: deadline, identity, trace spans.

Every VFS operation mints one :class:`OpContext` (when observability is
enabled) and threads it down through the key cache, the service session,
and the RPC channels to the simulated wire.  The context is the single
seam that carries the concerns which previously lived in different
layers:

* **Deadline** — an *absolute* sim-time budget for the whole operation.
  Any layer may call :meth:`OpContext.check` to fail fast, and
  :class:`~repro.net.rpc.RpcChannel` races in-flight calls against the
  remaining budget, raising
  :class:`~repro.errors.DeadlineExpiredError` uniformly.
* **Trace spans** — a structured span tree (cache hit vs. blocking RPC
  vs. IBE cost) aggregated by :class:`TraceCollector` and rendered by
  ``keypad-audit trace``.  Span accounting never yields to the
  simulator, so enabling tracing cannot change simulated timings.

With no deadline and no collector the context is never
minted at all — the flags-off code paths are structurally identical to
the pre-context tree.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Any, Iterator, Optional

from repro.errors import DeadlineExpiredError

__all__ = ["Span", "OpContext", "TraceCollector", "RPC_SPAN_PREFIX",
           "maybe_span"]

#: spans recording one wire RPC are named ``rpc:<method>``.
RPC_SPAN_PREFIX = "rpc:"

#: the negotiation handshake span (reconciles with ``metrics.handshakes``).
_HELLO_SPAN = "rpc:rpc.hello"


class Span:
    """One timed node in an operation's trace tree."""

    __slots__ = ("name", "start", "end", "attrs", "children", "status")

    def __init__(self, name: str, start: float, **attrs: Any):
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attrs: dict[str, Any] = attrs
        self.children: list["Span"] = []
        self.status = "ok"

    @property
    def duration(self) -> float:
        return (self.start if self.end is None else self.end) - self.start

    def child(self, name: str, start: float, **attrs: Any) -> "Span":
        span = Span(name, start, **attrs)
        self.children.append(span)
        return span

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start": round(self.start, 6),
            "duration": round(self.duration, 6),
            "status": self.status,
            "attrs": dict(self.attrs),
            "children": [c.as_dict() for c in self.children],
        }

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()


class OpContext:
    """Explicit per-operation context threaded from FS ops to the wire."""

    __slots__ = ("sim", "op", "device_id", "path", "op_id", "deadline",
                 "collector", "blocking", "config", "root",
                 "_stack", "_finished")

    def __init__(
        self,
        sim: Any,
        op: str,
        device_id: str = "",
        path: Optional[str] = None,
        deadline: Optional[float] = None,
        collector: Optional["TraceCollector"] = None,
        blocking: bool = True,
        config: Optional[Any] = None,
    ):
        self.sim = sim
        self.op = op
        self.device_id = device_id
        self.path = path
        self.deadline = deadline
        self.collector = collector
        #: the op's policy snapshot (a frozen KeypadConfig from the
        #: mount's PolicyEpoch) — one VFS op never mixes two epochs.
        self.config = config
        #: False for maintenance work (write-behind flushes) whose RPCs
        #: the blocking-RPC counters already exclude.
        self.blocking = blocking
        self.op_id = collector.next_op_id() if collector is not None else 0
        attrs: dict[str, Any] = {}
        if device_id:
            attrs["device"] = device_id
        if path is not None:
            attrs["path"] = path
        if deadline is not None:
            attrs["deadline"] = deadline
        self.root = Span(op, sim.now, **attrs)
        self._stack: list[Span] = [self.root]
        self._finished = False

    # -- spans ---------------------------------------------------------------
    @property
    def traced(self) -> bool:
        return self.collector is not None

    @property
    def current(self) -> Span:
        return self._stack[-1] if self._stack else self.root

    def begin(self, name: str, **attrs: Any) -> Span:
        """Open a nested child span (close with :meth:`end`)."""
        span = self.current.child(name, self.sim.now, **attrs)
        self._stack.append(span)
        return span

    def end(self, span: Span, status: str = "ok") -> None:
        span.end = self.sim.now
        span.status = status
        if span in self._stack:
            self._stack.remove(span)

    @contextmanager
    def span(self, name: str, **attrs: Any):
        """``with ctx.span("key-fetch"): yield from ...`` — safe inside
        sim-process generators; interrupts close the span on the way out."""
        span = self.begin(name, **attrs)
        try:
            yield span
        except BaseException as exc:
            self.end(span, status=f"error:{type(exc).__name__}")
            raise
        self.end(span, status=span.status)

    def attach(self, name: str, **attrs: Any) -> Span:
        """Open a child of the current span *without* pushing it on the
        nesting stack — for work that may interleave with concurrent
        sub-processes of the same operation (e.g. parallel RPCs).
        Close with :meth:`close`."""
        return self.current.child(name, self.sim.now, **attrs)

    def close(self, span: Span, status: str = "ok") -> None:
        span.end = self.sim.now
        span.status = status

    def event(self, name: str, **attrs: Any) -> Span:
        """Record an instantaneous point event (e.g. a cache hit)."""
        span = self.current.child(name, self.sim.now, **attrs)
        span.end = span.start
        return span

    # -- deadline ------------------------------------------------------------
    def remaining(self) -> float:
        """Sim-seconds left before the deadline (``inf`` when unset)."""
        if self.deadline is None:
            return float("inf")
        return self.deadline - self.sim.now

    def expired(self) -> bool:
        return self.deadline is not None and self.sim.now >= self.deadline

    def check(self, where: str = "") -> None:
        """Raise :class:`DeadlineExpiredError` if the budget is spent."""
        if self.expired():
            suffix = f" in {where}" if where else ""
            raise DeadlineExpiredError(
                f"op {self.op}#{self.op_id} exceeded its deadline "
                f"({self.deadline:.3f}s){suffix}"
            )

    # -- completion ----------------------------------------------------------
    def finish(self, error: Optional[BaseException] = None) -> None:
        """Close the root span and hand the tree to the collector.

        Idempotent; spans left open (interrupted sub-processes) are
        closed with status ``unfinished``.
        """
        if self._finished:
            return
        self._finished = True
        for span in self.root.walk():
            if span.end is None and span is not self.root:
                span.end = self.sim.now
                if span.status == "ok":
                    span.status = "unfinished"
        self.root.end = self.sim.now
        if error is not None:
            self.root.status = (
                "deadline-expired"
                if isinstance(error, DeadlineExpiredError)
                else f"error:{type(error).__name__}"
            )
        if self.collector is not None:
            self.collector.add(self)


def maybe_span(ctx: Optional[OpContext], name: str, **attrs: Any):
    """``with maybe_span(ctx, "key-fetch"):`` — a span when tracing is
    on, a no-op context manager otherwise (keeps call sites branch-free)."""
    if ctx is not None and ctx.traced:
        return ctx.span(name, **attrs)
    return nullcontext()


class TraceCollector:
    """Aggregates finished operation traces.

    Keeps exact counters for every span name (the reconciliation
    source of truth) plus up to ``max_ops`` full trees for rendering.
    """

    def __init__(self, max_ops: int = 2000):
        self.max_ops = max_ops
        self.ops: list[OpContext] = []
        self.dropped = 0
        self.op_count = 0
        self.deadline_expiries = 0
        self.span_stats: dict[str, list] = {}  # name -> [count, total_s]
        self.rpc_total = 0
        self.rpc_handshakes = 0
        self.rpc_nonblocking = 0
        self.rpc_by_server: dict[str, int] = {}
        self._next_op_id = 0

    # -- context / span intake ----------------------------------------------
    def next_op_id(self) -> int:
        self._next_op_id += 1
        return self._next_op_id

    def add(self, ctx: OpContext) -> None:
        self.op_count += 1
        if ctx.root.status == "deadline-expired":
            self.deadline_expiries += 1
        for span in ctx.root.walk():
            self._account(span, blocking=ctx.blocking)
        if len(self.ops) < self.max_ops:
            self.ops.append(ctx)
        else:
            self.dropped += 1

    def start_orphan(self, name: str, start: float, **attrs: Any) -> Span:
        """A standalone span for a traced call with no parent context."""
        return Span(name, start, **attrs)

    def finish_orphan(self, span: Span, end: float,
                      status: str = "ok") -> None:
        span.end = end
        span.status = status
        self._account(span, blocking=True)

    def _account(self, span: Span, blocking: bool) -> None:
        stats = self.span_stats.setdefault(span.name, [0, 0.0])
        stats[0] += 1
        stats[1] += span.duration
        if span.name.startswith(RPC_SPAN_PREFIX):
            self.rpc_total += 1
            server = span.attrs.get("server")
            if server:
                self.rpc_by_server[server] = \
                    self.rpc_by_server.get(server, 0) + 1
            if span.name == _HELLO_SPAN:
                self.rpc_handshakes += 1
            elif not blocking:
                self.rpc_nonblocking += 1

    # -- reconciliation ------------------------------------------------------
    def blocking_rpcs(self) -> int:
        """RPC spans minus handshakes minus maintenance traffic — the
        same quantity the benchmarks derive from channel metrics as
        ``calls - handshakes - write_behind_flushes``."""
        return self.rpc_total - self.rpc_handshakes - self.rpc_nonblocking

    def summary(self) -> dict:
        """The ``spans_summary`` block for ``BENCH_*.json`` records."""
        return {
            "ops": self.op_count,
            "deadline_expiries": self.deadline_expiries,
            "rpc_total": self.rpc_total,
            "rpc_handshakes": self.rpc_handshakes,
            "rpc_nonblocking": self.rpc_nonblocking,
            "blocking_rpcs": self.blocking_rpcs(),
            "by_span": {
                name: {"count": count, "total_s": round(total, 6)}
                for name, (count, total) in sorted(self.span_stats.items())
            },
        }

    # -- rendering -----------------------------------------------------------
    @staticmethod
    def _attr_text(span: Span) -> str:
        parts = []
        for key in ("device", "path", "transport", "server",
                    "bytes_out", "bytes_in", "policy", "audit_id"):
            if key in span.attrs:
                parts.append(f"{key}={span.attrs[key]}")
        return (" [" + " ".join(parts) + "]") if parts else ""

    def _render_span(self, span: Span, depth: int, lines: list) -> None:
        status = "" if span.status == "ok" else f" !{span.status}"
        lines.append(
            f"{'  ' * depth}- {span.name} "
            f"({span.duration * 1000:.3f}ms){self._attr_text(span)}{status}"
        )
        for child in span.children:
            self._render_span(child, depth + 1, lines)

    def render(self, max_ops: Optional[int] = None) -> str:
        """Flame-style per-op breakdown plus aggregate totals."""
        lines: list[str] = []
        shown = self.ops if max_ops is None else self.ops[:max_ops]
        for ctx in shown:
            root = ctx.root
            status = "" if root.status == "ok" else f" !{root.status}"
            lines.append(
                f"[{root.start:10.3f}s] {root.name}#{ctx.op_id} "
                f"({root.duration * 1000:.3f}ms)"
                f"{self._attr_text(root)}{status}"
            )
            for child in root.children:
                self._render_span(child, 1, lines)
        hidden = (len(self.ops) - len(shown)) + self.dropped
        if hidden:
            lines.append(f"... {hidden} more op(s) not shown")
        lines.append("")
        lines.append("SPAN TOTALS")
        for name, (count, total) in sorted(self.span_stats.items()):
            lines.append(f"  {name:<28s} x{count:<6d} {total:10.3f}s")
        lines.append(
            f"  rpc_total={self.rpc_total} handshakes={self.rpc_handshakes} "
            f"non-blocking={self.rpc_nonblocking} "
            f"blocking={self.blocking_rpcs()} "
            f"deadline_expiries={self.deadline_expiries}"
        )
        return "\n".join(lines)
