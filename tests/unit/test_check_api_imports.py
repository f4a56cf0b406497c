"""The facade import linter (``tools/check_api_imports.py``) on docs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "check_api_imports.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("check_api_imports", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_markdown_python_blocks_are_checked(tmp_path, capsys):
    tool = _load_tool()
    doc = tmp_path / "guide.md"
    doc.write_text(
        "# Guide\n"
        "\n"
        "```python\n"
        "from repro.api import KeypadConfig, THREE_G\n"
        "```\n"
        "\n"
        "```python\n"
        "config = KeypadConfig.builder().build()\n"
        "from repro.net import LAN\n"
        "```\n"
        "\n"
        "```bash\n"
        "python -c 'from repro.core import KeypadFS'\n"
        "```\n",
        encoding="utf-8",
    )
    assert tool.violations(doc) == [(9, "from repro.net import LAN")]
    assert tool.main([str(doc)]) == 1
    assert "guide.md:9:" in capsys.readouterr().out
