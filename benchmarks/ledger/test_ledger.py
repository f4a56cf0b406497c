"""Checks on the ledger itself (not part of tier-1; about a minute):

    python -m pytest benchmarks/ledger/test_ledger.py -q

The names ``run.py`` prints must be exactly the names ``BENCHMARK.json``
promises, the layer map must cover the source tree, and a failed
correctness check must fail the run.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
E2E_NAMES = [m["name"] for m in SPEC["end_to_end"]]
LAYER_NAMES = [m["name"] for m in SPEC["per_layer"]]
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def test_spec_names_are_well_formed():
    for name in E2E_NAMES + LAYER_NAMES + WORKLOAD_NAMES:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(E2E_NAMES + LAYER_NAMES + WORKLOAD_NAMES)) \
        == len(E2E_NAMES + LAYER_NAMES + WORKLOAD_NAMES)
    assert SPEC["paths"] == ["benchmarks/ledger"]
    assert "setup_s" in E2E_NAMES
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_spec_agrees_with_the_tables_in_run_py():
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    expected = ([f"{layer}.{part}" for layer in layers.LAYERS
                 for part in ("self_s", "self_share", "calls")]
                + list(run.COUNT_METRICS) + ["trace.overhead_x"])
    assert LAYER_NAMES == expected


def test_every_source_file_has_a_named_layer():
    source = ROOT / "src" / "repro"
    files = sorted(path.relative_to(source).as_posix()
                   for path in source.rglob("*.py"))
    assert len(files) > 100
    unmapped = [f for f in files if layers.layer_of_path(f) == layers.OTHER]
    assert unmapped == []
    assert layers.layer_of_path("brand_new/module.py") == layers.OTHER


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace",
         "--repeats", "1", "--seed", "ledger-test", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    return out, json.loads(out.read_text())


def test_smoke_carries_exactly_the_promised_names(smoke):
    out, result = smoke
    assert list(result["workloads"]) == WORKLOAD_NAMES
    for workload, entry in result["workloads"].items():
        assert list(entry["metrics"]) == E2E_NAMES, workload
        assert sorted(entry["per_layer"]) == sorted(LAYER_NAMES), workload
        assert entry["problems"] == []
        assert all(m["median"] != 0 for m in entry["metrics"].values())
        trace = json.loads((out.parent / f"trace_{workload}.json").read_text())
        assert {span["parent"] for span in trace["spans"][1:]} \
            <= {span["id"] for span in trace["spans"]}
    env = result["env"]
    assert env["nproc"] and env["python"] and env["seed"] == "ledger-test"


def test_smoke_leaves_little_unattributed(smoke):
    _, result = smoke
    for workload, entry in result["workloads"].items():
        layer = entry["per_layer"]
        assert layer["other.self_share"]["value"] < 0.02, workload
        shares = sum(layer[f"{name}.self_share"]["value"]
                     for name in layers.LAYERS)
        assert abs(shares - 1.0) < 0.01, workload


def test_smoke_compares_equal_to_itself(smoke):
    import compare

    _, result = smoke
    rows = compare.compare(result, result)
    assert len(rows) == len(WORKLOAD_NAMES) * len(E2E_NAMES)
    assert {row[-1] for row in rows} == {"ok"}
    # a sim number is exact for a seed: any worsening of it is a regression
    slower = json.loads(json.dumps(result))
    slower["workloads"]["meta_ibe"]["metrics"]["goodput_per_s"]["median"] \
        *= 0.999
    worse = [row[:2] for row in compare.compare(result, slower)
             if row[-1] == "worse"]
    assert worse == [("meta_ibe", "goodput_per_s")]


def _one_run(*extra: str, patch: str = "pass") -> subprocess.CompletedProcess:
    """The contract's command on the quickest workload; ``patch`` is
    run against the ``workloads`` module first."""
    argv = ["run.py", "--workload", "audit_durable", "--seed", "7",
            "--seconds", "2.5", "--smoke", *extra]
    code = (f"import sys; sys.argv = {argv!r}; "
            f"sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]; "
            f"import workloads; {patch}; import run; "
            "raise SystemExit(run.main())")
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("KEYPAD_")}
    env["PYTHONHASHSEED"] = "0"     # as run.py would re-exec itself with
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace, names", [("0", E2E_NAMES),
                                          ("1", LAYER_NAMES)])
def test_one_run_prints_the_contract_object(trace, names):
    done = _one_run("--trace", trace)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    assert sorted(last["metrics"]) == sorted(names)
    units = {m["name"]: m["unit"]
             for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name, metric in last["metrics"].items():
        assert sorted(metric) == ["unit", "value"]
        assert metric["unit"] == units[name], name


def test_a_failed_check_fails_the_run():
    done = _one_run("--trace", "0", patch="workloads.AUDIT_UNFLUSHED = 0")
    assert done.returncode != 0
    assert "lost" in done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is False
