"""The cluster CLI demos' stdout, pinned byte for byte.

Each demo runs in a fresh interpreter (as a user would run it) and its
stdout must equal the file under ``tests/golden/``.  The demos cover
the flat k-of-m cluster (``cluster-demo``, a replicated ``fleet``), the
multi-region one (``ctl region-status``, ``ctl partition-report``) and
a rig mounted with the config's server frontend (``ctl drain``) and
the per-op span trees of ``trace``, over the paper's transport and
over the fast one (``trace --fast``) and under a per-op deadline that
expires (``trace --deadline 0.05``), and the forensic read side: the
stolen-device ``demo --steal`` report, the three ``forensics`` views and
``forensics --recover`` over the blobs ``forensics --export-image``
writes;
simulated time makes their output deterministic, so any difference is
a behaviour change.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "tests" / "golden"

DEMOS = {
    "cli_cluster_demo.txt": ["cluster-demo", "--crash", "0", "--steal"],
    "cli_fleet_replicas.txt": ["fleet", "--devices", "200", "--duration",
                               "5", "--replicas", "3", "--threshold", "2"],
    "cli_ctl_region_status.txt": ["ctl", "region-status"],
    "cli_ctl_partition_report.txt": ["ctl", "partition-report",
                                     "--duration", "10"],
    "cli_ctl_drain.txt": ["ctl", "drain"],
    "cli_trace.txt": ["trace"],
    "cli_trace_fast.txt": ["trace", "--fast"],
    "cli_trace_deadline.txt": ["trace", "--deadline", "0.05"],
    "cli_demo_steal.txt": ["demo", "--steal"],
    "cli_forensics_post_theft.txt": ["forensics", "--view", "post-theft"],
    "cli_forensics_timeline.txt": ["forensics", "--view", "timeline"],
    "cli_forensics_file_set.txt": ["forensics", "--view", "file-set"],
}


def _run_cli(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.pop("KEYPAD_FLEET_SHARDS", None)
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        cwd=ROOT, env=env, capture_output=True, timeout=300,
    )


@pytest.mark.parametrize("golden", sorted(DEMOS))
def test_cluster_demo_output_is_pinned(golden):
    proc = _run_cli(*DEMOS[golden])
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / golden).read_bytes()


def test_forensics_recover_output_is_pinned(tmp_path):
    image = tmp_path / "image"
    proc = _run_cli("forensics", "--export-image", str(image))
    assert proc.returncode == 0, proc.stderr.decode()
    proc = _run_cli("forensics", "--recover", str(image),
                    "--segment-entries", "4")
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / "cli_forensics_recover.txt").read_bytes()
