"""The reach report (``tools/reach.py``) on a small source tree: the
collector sees calls in subprocesses and in forked workers that leave
through ``os._exit``, and ``--check`` names an uncalled function."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "reach.py"

MODULE = '''\
import multiprocessing
import os


def used():
    return 1


def unused():
    return 2


def in_child():
    return 3


class Shape:
    @property
    def area(self):
        return 0

    def scale(self):
        def inner():
            return 4
        return inner()


def fork_and_call():
    def child():
        in_child()
        os._exit(0)
    worker = multiprocessing.get_context("fork").Process(target=child)
    worker.start()
    worker.join()
'''


def _load_tool():
    spec = importlib.util.spec_from_file_location("reach", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(tmp_path, reach, script: str) -> set:
    """Run ``script`` traced over the tree; the keys it reached."""
    src = tmp_path / "src"
    (src / "pkg").mkdir(parents=True, exist_ok=True)
    (src / "pkg" / "__init__.py").write_text("")
    (src / "pkg" / "mod.py").write_text(MODULE)
    dumps = tmp_path / "dumps"
    dumps.mkdir()
    env = reach.traced_env(tmp_path, dumps, src)
    subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                   env=env, check=True, timeout=60)
    return reach.reached(dumps, src)


def test_buckets_follow_the_traffic(tmp_path):
    reach = _load_tool()
    program = _traced(tmp_path, reach, """
        import pkg.mod as m
        m.used()
        m.Shape().scale()
        m.fork_and_call()
    """)
    src = tmp_path / "src"
    defined = reach.functions(src)
    tests = {key for key, fn in defined.items()
             if fn.name == "pkg.mod:Shape.area"}
    buckets = reach.classify(defined, program, tests)
    assert buckets == {
        "pkg.mod:used": "program",
        "pkg.mod:unused": "never",
        "pkg.mod:in_child": "program",  # dumped by the forked worker
        "pkg.mod:Shape.area": "test",
        "pkg.mod:Shape.scale": "program",
        "pkg.mod:Shape.scale.<locals>.inner": "program",
        "pkg.mod:fork_and_call": "program",
        "pkg.mod:fork_and_call.<locals>.child": "program",
    }


def test_same_bodied_functions_of_two_modules_stay_apart(tmp_path):
    # Equal code objects compare equal whatever their file: both calls
    # must be seen, not just the first.
    reach = _load_tool()
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "twin.py").write_text(MODULE)
    program = _traced(tmp_path, reach, """
        import pkg.mod, pkg.twin
        pkg.mod.used()
        pkg.twin.used()
    """)
    buckets = reach.classify(reach.functions(tmp_path / "src"), program,
                             set())
    assert buckets["pkg.mod:used"] == buckets["pkg.twin:used"] == "program"


def test_check_names_an_uncalled_function(tmp_path, capsys):
    reach = _load_tool()
    program = _traced(tmp_path, reach, """
        import pkg.mod as m
        m.used()
    """)
    defined = reach.functions(tmp_path / "src")
    buckets = reach.classify(defined, program, set())
    assert reach.check(defined, buckets) == 1
    out = capsys.readouterr().out
    assert "NEVER REACHED pkg.mod:unused (src/pkg/mod.py:9)" in out
    assert "pkg.mod:used " not in out
    only_used = {"pkg.mod:used": "program"}
    assert reach.check(defined, only_used) == 0


def test_allowlist_covers_only_its_prefixes():
    reach = _load_tool()
    assert reach.allowed("repro.harness.reportgen:generate")
    assert reach.allowed("repro.storage.backend:FsInterface.rmdir")
    assert reach.allowed("repro.storage.backend:BlobStore.put") is None
    assert reach.violations({
        "repro.harness.chartify:main": "never",
        "repro.cli:main": "never",
        "repro.api:open_control": "program",
    }) == ["repro.cli:main"]
