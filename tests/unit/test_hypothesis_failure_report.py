"""A failing hypothesis property is reported as a failure, not an
INTERNALERROR, under the suite's ``error::DeprecationWarning`` filter
(see ``tests/conftest.py``)."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(x):
    assert x < 5
'''


def test_failing_property_reports_a_falsifying_example(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "tests.conftest",
         "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    output = done.stdout + done.stderr
    assert "INTERNALERROR" not in output
    assert done.returncode == 1, output[-3000:]
    assert "Falsifying example" in output
