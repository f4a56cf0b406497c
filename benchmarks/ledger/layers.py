"""Layer map and profile attribution for the ledger's traced run.

A *layer* is a group of modules under ``src/repro/`` named by path
prefix.  Files the map does not know land in ``other``, so moving or
adding a module never breaks the benchmark — it only grows ``other``,
which ``test_ledger.py`` keeps under 2 % of traced self time.

``attribute`` turns a ``cProfile`` run into per-layer self time.  A
function defined in a mapped file is charged to that file's layer.  A
function defined anywhere else — a C built-in, the standard library —
has no layer of its own, so each caller edge the profiler recorded for
it is charged to the layer of the *caller* (resolved transitively when
the caller is itself unmapped).  Every profiled second therefore lands
in exactly one layer and the layer values sum to the profiler total.
"""

from __future__ import annotations

import pstats
from pathlib import Path

OTHER = "other"

#: (path prefix relative to ``src/repro/``, layer); first match wins.
RULES = (
    ("sim/", "sim"),
    ("net/wire.py", "net.wire"),
    ("net/link.py", "net.link"),
    ("net/netem.py", "net.link"),
    ("net/", "net.rpc"),
    ("crypto/ibe/", "crypto.ibe"),
    ("crypto/numbers.py", "crypto.ibe"),
    ("crypto/secretshare.py", "crypto.secretshare"),
    ("crypto/", "crypto.sym"),
    ("core/fs.py", "core.fs"),
    ("core/keycache.py", "core.keycache"),
    ("core/services/", "core.services"),
    ("core/", "core.client"),
    ("server/", "server"),
    ("control/", "server"),
    ("auditstore/store.py", "auditstore.store"),
    ("auditstore/codec.py", "auditstore.codec"),
    ("auditstore/views.py", "auditstore.views"),
    ("auditstore/durable.py", "auditstore.durable"),
    ("auditstore/", "auditstore.log"),
    ("forensics/", "auditstore.views"),
    ("cluster/client.py", "cluster.client"),
    ("cluster/merge.py", "cluster.merge"),
    ("cluster/", "cluster.group"),
    ("storage/", "storage"),
    ("nfs/", "storage"),
    ("encfs/", "encfs"),
    ("workloads/", "workloads"),
    ("harness/", "workloads"),
    ("attack/", "workloads"),
    ("util/", "util"),
    # package-level glue: the facade, the CLI, the cost table, the errors
    ("api.py", "util"),
    ("cli.py", "util"),
    ("costmodel.py", "util"),
    ("errors.py", "util"),
    ("__init__.py", "util"),
)

LAYERS = tuple(dict.fromkeys(layer for _, layer in RULES)) + (OTHER,)

#: how many functions per layer the trace file keeps as child spans
TOP_FUNCTIONS = 20

_LEDGER_DIR = str(Path(__file__).resolve().parent)
_REPRO_MARK = "/src/repro/"


def layer_of_path(relative: str) -> str:
    """Layer of a file given its path relative to ``src/repro/``."""
    for prefix, layer in RULES:
        if relative.startswith(prefix):
            return layer
    return OTHER


def _layer_of_file(filename: str) -> str | None:
    """Layer of a profiled function's file; ``None`` when the file has
    no layer of its own (built-ins, standard library)."""
    if filename.startswith(_LEDGER_DIR):
        # the benchmark's own driver loops are workload generators
        return "workloads"
    at = filename.rfind(_REPRO_MARK)
    if at < 0:
        return None
    return layer_of_path(filename[at + len(_REPRO_MARK):])


def _resolve(stats, own, edge_field: int) -> dict:
    """``{func: {layer: fraction}}`` for every profiled function.

    A function with a layer of its own is wholly that layer's.  Any
    other function is split between its callers' layers in proportion
    to ``edge_field`` of each caller edge ``(calls, primitive calls,
    self time, cumulative time)``; a caller still being resolved (a
    cycle among unmapped functions) counts as ``other``.
    """
    resolved: dict = {}
    pending: set = set()

    def visit(func) -> dict:
        if func in resolved:
            return resolved[func]
        layer = own.get(func)
        if layer is not None:
            resolved[func] = {layer: 1.0}
            return resolved[func]
        if func in pending or func not in stats:
            return {OTHER: 1.0}
        pending.add(func)
        weights: dict = {}
        for caller, edge in stats[func][4].items():
            for name, part in visit(caller).items():
                weights[name] = weights.get(name, 0.0) + edge[edge_field] * part
        pending.discard(func)
        whole = sum(weights.values())
        resolved[func] = ({name: w / whole for name, w in weights.items()}
                          if whole > 0 else {OTHER: 1.0})
        return resolved[func]

    for func in stats:
        visit(func)
    return resolved


def attribute(profile) -> dict:
    """Per-layer self seconds and calls from a finished ``cProfile``.

    Returns ``{"total_s", "layers": {layer: {"self_s", "calls",
    "functions": [...]}}}`` with every layer of :data:`LAYERS` present.
    Calls are split by the profiler's exact call counts, so they repeat
    from run to run; seconds are split by measured self time.
    """
    stats = pstats.Stats(profile).stats
    own = {func: _layer_of_file(func[0]) for func in stats}
    by_time = _resolve(stats, own, 2)
    by_calls = _resolve(stats, own, 0)

    layers = {name: {"self_s": 0.0, "calls": 0.0, "functions": []}
              for name in LAYERS}
    total = 0.0
    for func, (_cc, ncalls, tottime, _ct, _callers) in stats.items():
        total += tottime
        for name, part in by_time[func].items():
            layers[name]["self_s"] += tottime * part
        for name, part in by_calls[func].items():
            layers[name]["calls"] += ncalls * part
        if own[func] is not None:
            layers[own[func]]["functions"].append((tottime, ncalls, func))
    for entry in layers.values():
        entry["calls"] = round(entry["calls"])
        entry["functions"].sort(key=lambda item: (-item[0], item[2]))
        entry["functions"] = [
            {"name": f"{Path(func[0]).name}:{func[1]}:{func[2]}",
             "self_s": tottime, "calls": ncalls}
            for tottime, ncalls, func in entry["functions"][:TOP_FUNCTIONS]
        ]
    return {"total_s": total, "layers": layers}
