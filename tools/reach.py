#!/usr/bin/env python3
"""Which ``src/`` functions the program's own traffic runs:
``tools/reach.py [--check]``.

Runs two kinds of traffic under a global ``sys.settrace`` hook and
sorts every function defined under ``src/`` into one bucket:

* **program** -- reached by the program's traffic: the golden-table
  benches at ``KEYPAD_BENCH_SCALE=0.3`` (``--benchmark-disable``, since
  pytest-benchmark clears the trace hook while it times a
  ``benchmark.pedantic`` call), the five ledger ``--smoke`` workloads,
  and the CLI runs pinned in ``tests/integration/
  test_cluster_cli_golden.py`` (its ``DEMOS`` plus ``forensics
  --export-image`` / ``--recover``);
* **test** -- reached only by the tier-1 suite (run with
  ``--hypothesis-seed=0`` so the bucket does not drift between runs);
* **never** -- reached by neither.

The hook reaches every subprocess through a ``sitecustomize`` module
put first on ``PYTHONPATH``; each process writes the code objects it
entered when it exits, and forked workers that leave through
``os._exit`` (fleet shards, the parallel bench runner) write theirs
just before.  Only ``call`` events are traced, never lines.

The run exits 1 naming every never-reached function that ``ALLOWLIST``
does not cover.  Without ``--check`` it also writes the buckets to
``benchmarks/baselines/reach.json``; with ``--check`` it writes nothing.
A traffic command that fails exits 2: its buckets would be wrong.  Run
from anywhere inside the repository; it takes about 7 minutes on two
cores.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BASELINE = ROOT / "benchmarks" / "baselines" / "reach.json"
RESULTS = ROOT / "benchmarks" / "results"
CLI_GOLDEN = ROOT / "tests" / "integration" / "test_cluster_cli_golden.py"
DUMP_ENV = "REACH_DUMP_DIR"
SRC_ENV = "REACH_SRC"

# The benches of CI's golden-tables job.
GOLDEN_BENCHES = (
    "bench_fig6_microbench.py", "bench_fig7_key_expiration.py",
    "bench_fig8_ibe_paired.py", "bench_fig9_app_optimizations.py",
    "bench_fig10_fs_comparison.py", "bench_fig11_key_exposure.py",
    "bench_table1_apps.py", "bench_sec52_false_positives.py",
    "bench_sec514_deployment.py", "bench_prefetch_policy.py",
    "bench_bandwidth.py", "bench_ablations.py",
    "bench_transport_ablation.py", "bench_availability.py",
    "bench_federation.py",
)
LEDGER_WORKLOADS = ("fleet_drr", "compile_3g", "meta_ibe", "audit_durable",
                    "cluster_faulted")

# Never-reached functions that stay, by ``module:qualname`` prefix.
ALLOWLIST = {
    "repro.harness.reportgen:":
        "hand-run generator of EXPERIMENTS.md's full-scale tables",
    "repro.harness.chartify:":
        "hand-run generator of EXPERIMENTS.md's ASCII charts",
    "repro.storage.backend:FsInterface.":
        "abstract FS contract; every concrete file system overrides it",
}

SITECUSTOMIZE = """\
import importlib.util, os
if os.environ.get({dump!r}):
    _spec = importlib.util.spec_from_file_location("_reach", {tool!r})
    _reach = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_reach)
    _reach.install()
"""


# ---------------------------------------------------------------------------
# the collector (runs inside every traced process)
# ---------------------------------------------------------------------------

def install() -> None:
    """Trace every Python call in this process; dump at exit."""
    import atexit
    import threading

    # Keyed by identity: code objects compare equal across files (the
    # filename is not part of code equality), so a set would keep only
    # one of two same-bodied functions on the same line of two modules.
    seen: dict = {}

    def tracer(frame, event, arg):
        code = frame.f_code
        seen[id(code)] = code  # returns None: the frame's lines go untraced

    out = Path(os.environ[DUMP_ENV])
    src = os.path.realpath(os.environ[SRC_ENV]) + os.sep

    def dump() -> None:
        codes = list(seen.values())
        inside = {f for f in {code.co_filename for code in codes}
                  if os.path.realpath(f).startswith(src)}
        keys = {f"{code.co_filename}\t{code.co_firstlineno}\t{code.co_name}"
                for code in codes if code.co_filename in inside}
        name = f"{os.getpid()}-{time.monotonic_ns()}.tsv"
        (out / name).write_text("".join(k + "\n" for k in sorted(keys)))

    real_exit = os._exit

    def exit_after_dump(code):
        dump()
        real_exit(code)

    os._exit = exit_after_dump
    atexit.register(dump)
    threading.settrace(tracer)
    sys.settrace(tracer)


def reached(dump_dir: Path, src: Path = SRC) -> set:
    """The ``(relpath, first line, name)`` of every dumped code object."""
    root = os.path.realpath(src)
    keys = set()
    for path in dump_dir.glob("*.tsv"):
        for line in path.read_text().splitlines():
            filename, first, name = line.split("\t")
            rel = os.path.relpath(os.path.realpath(filename), root)
            keys.add((Path(rel).as_posix(), int(first), name))
    return keys


# ---------------------------------------------------------------------------
# the classifier
# ---------------------------------------------------------------------------

class Function(NamedTuple):
    name: str   # module:qualname
    path: str   # relative to src/
    line: int   # of the def
    lines: int  # decorators through the last line of the body


def functions(src: Path = SRC) -> dict:
    """Every ``def`` under ``src``, keyed as a code object names it."""
    found, names = {}, set()
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        module = rel[:-3].replace("/", ".").removesuffix(".__init__")

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    qualname = f"{prefix}{child.name}"
                    name = f"{module}:{qualname}"
                    while name in names:
                        name += "'"  # a property's setter, an overload
                    names.add(name)
                    found[(rel, first, child.name)] = Function(
                        name, rel, child.lineno,
                        child.end_lineno - first + 1)
                    walk(child, f"{qualname}.<locals>.")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text(), str(path)), "")
    return found


def classify(defined: dict, program: set, tests: set) -> dict:
    """``module:qualname`` -> ``program`` | ``test`` | ``never``."""
    return {fn.name: "program" if key in program
            else "test" if key in tests else "never"
            for key, fn in defined.items()}


def allowed(name: str) -> str | None:
    """The allowlist's reason for keeping ``name`` unreached, if any."""
    for prefix, reason in ALLOWLIST.items():
        if name.startswith(prefix):
            return reason
    return None


def violations(buckets: dict) -> list:
    """Never-reached functions the allowlist does not cover."""
    return sorted(name for name, bucket in buckets.items()
                  if bucket == "never" and allowed(name) is None)


def summary(defined: dict, buckets: dict) -> dict:
    counts = {b: {"functions": 0, "lines": 0}
              for b in ("program", "test", "never")}
    for fn in defined.values():
        counts[buckets[fn.name]]["functions"] += 1
        counts[buckets[fn.name]]["lines"] += fn.lines
    return counts


# ---------------------------------------------------------------------------
# the traffic
# ---------------------------------------------------------------------------

def _cli_runs(out_dir: str) -> list:
    spec = importlib.util.spec_from_file_location("_cli_golden", CLI_GOLDEN)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    cli = [sys.executable, "-m", "repro.cli"]
    runs = [cli + golden.demo_argv(name, out_dir)
            for name in sorted(golden.DEMOS)]
    image = os.path.join(out_dir, "image")
    return runs + [cli + ["forensics", "--export-image", image],
                   cli + ["forensics", "--recover", image,
                          "--segment-entries", "4"]]


def traffic(kind: str, scratch: str) -> list:
    """``(argv, extra env)`` of every run of one kind of traffic."""
    if kind == "test":
        return [([sys.executable, "-m", "pytest", "-q", "-p",
                  "no:cacheprovider", "--hypothesis-seed=0", "tests"], {})]
    benches = [str(Path("benchmarks") / b) for b in GOLDEN_BENCHES]
    runs = [([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
              "--benchmark-disable", *benches],
             {"KEYPAD_BENCH_SCALE": "0.3"})]
    runs += [([sys.executable, "benchmarks/ledger/run.py", "--smoke",
               "--repeats", "1", "--workload", w], {})
             for w in LEDGER_WORKLOADS]
    return runs + [(argv, {}) for argv in _cli_runs(scratch)]


def traced_env(work: Path, dumps: Path, src: Path = SRC) -> dict:
    """This environment with the collector on, dumping into ``dumps``."""
    site = work / "site"
    site.mkdir(exist_ok=True)
    (site / "sitecustomize.py").write_text(SITECUSTOMIZE.format(
        dump=DUMP_ENV, tool=str(Path(__file__).resolve())))
    env = dict(os.environ)
    env.pop("KEYPAD_FLEET_SHARDS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(site), str(src), env.get("PYTHONPATH")) if p)
    env[DUMP_ENV] = str(dumps)
    env[SRC_ENV] = str(src)
    return env


def run_traffic(kind: str, work: Path) -> set:
    """Run one kind of traffic traced; the keys of what it reached."""
    dumps = work / f"dumps-{kind}"
    dumps.mkdir()
    env = traced_env(work, dumps)
    scratch = work / f"scratch-{kind}"
    scratch.mkdir()
    for argv, extra in traffic(kind, str(scratch)):
        started = time.monotonic()
        done = subprocess.run(argv, cwd=ROOT, env={**env, **extra},
                              capture_output=True, text=True)
        label = " ".join(argv[1:]).replace(str(scratch), "$TMP")
        print(f"{kind}: {label} ({time.monotonic() - started:.0f} s)",
              flush=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-3000:] + done.stderr[-3000:])
            print(f"traffic failed (exit {done.returncode}): "
                  f"{' '.join(argv)}", file=sys.stderr)
            raise SystemExit(2)
    return reached(dumps)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="only check; do not write the baseline")
    args = parser.parse_args(argv)
    kept = {p: p.read_bytes() for p in RESULTS.glob("BENCH_*.json")}
    try:
        with tempfile.TemporaryDirectory(prefix="reach-") as work:
            program = run_traffic("program", Path(work))
            tests = run_traffic("test", Path(work))
    finally:
        for path, data in kept.items():  # the benches rewrite these
            path.write_bytes(data)
    defined = functions()
    buckets = classify(defined, program, tests)
    counts = summary(defined, buckets)
    for bucket, count in counts.items():
        print(f"{bucket}: {count['functions']} functions, "
              f"{count['lines']} lines")
    if not args.check:
        BASELINE.write_text(json.dumps(
            {"counts": counts,
             "allowlist": ALLOWLIST,
             "functions": dict(sorted(buckets.items()))},
            indent=1) + "\n")
        print(f"wrote {BASELINE.relative_to(ROOT)}")
    return check(defined, buckets)


def check(defined: dict, buckets: dict) -> int:
    """Name every unallowed never-reached function; 1 if there is one."""
    where = {fn.name: fn for fn in defined.values()}
    bad = violations(buckets)
    for name in bad:
        print(f"NEVER REACHED {name} (src/{where[name].path}:"
              f"{where[name].line})")
    print("every never-reached function is allowlisted" if not bad
          else f"{len(bad)} never-reached functions not on the allowlist")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
