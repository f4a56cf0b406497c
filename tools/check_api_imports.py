#!/usr/bin/env python3
"""Import linter for the stable facade (docs/API.md).

First-party entry points — ``src/repro/cli.py``, ``benchmarks/``,
``examples/`` — and the ```` ```python ```` blocks of ``README.md`` and
``docs/*.md`` must not import from the internal packages ``repro.core``
and ``repro.net``; the supported names all live in ``repro.api``.
Those packages are internal layout, free to move between releases, so
neither our own entry points nor the samples readers copy may lean on
them.  This check fails CI on any such import.

Dependency-free by design (stdlib ``ast`` only): it runs in the lint
job before the package is installed.

Usage::

    python tools/check_api_imports.py            # check the default set
    python tools/check_api_imports.py FILE...    # check specific files
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: internal packages; anything under them is layout that entry points
#: and documentation samples must reach through repro.api.
INTERNAL_PACKAGES = ("repro.core", "repro.net")

DEFAULT_TARGETS = (
    "src/repro/cli.py",
    "benchmarks",
    "examples",
    "README.md",
    "docs",
)

#: a fenced python block: its opening fence, its body, its closing fence.
_PYTHON_BLOCK = re.compile(r"^```python[ \t]*\n(.*?)^```", re.M | re.S)


def _is_internal(module: str) -> bool:
    return any(
        module == pkg or module.startswith(pkg + ".")
        for pkg in INTERNAL_PACKAGES
    )


def _python_sources(path: Path) -> list[str]:
    """The whole file for ``.py``; each fenced python block for ``.md``,
    padded with blank lines so parse positions are file line numbers."""
    text = path.read_text(encoding="utf-8")
    if path.suffix != ".md":
        return [text]
    return [
        "\n" * text.count("\n", 0, match.start(1)) + match.group(1)
        for match in _PYTHON_BLOCK.finditer(text)
    ]


def violations(path: Path) -> list[tuple[int, str]]:
    bad: list[tuple[int, str]] = []
    for source in _python_sources(path):
        tree = ast.parse(source, filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if _is_internal(alias.name):
                        bad.append((node.lineno, f"import {alias.name}"))
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module and _is_internal(node.module):
                    names = ", ".join(alias.name for alias in node.names)
                    bad.append((node.lineno, f"from {node.module} import {names}"))
    return bad


def main(argv: list[str]) -> int:
    targets = argv or list(DEFAULT_TARGETS)
    files: list[Path] = []
    for target in targets:
        path = (REPO / target) if not Path(target).is_absolute() else Path(target)
        if path.is_dir():
            files.extend(sorted(path.glob("*.py")))
            files.extend(sorted(path.glob("*.md")))
        elif path.exists():
            files.append(path)
        else:
            print(f"check_api_imports: no such target: {target}",
                  file=sys.stderr)
            return 2

    failed = False
    for path in files:
        for lineno, stmt in violations(path):
            failed = True
            rel = path.relative_to(REPO) if path.is_relative_to(REPO) else path
            print(f"{rel}:{lineno}: import of internal package "
                  f"({stmt}) — import from repro.api instead")
    if failed:
        return 1
    print(f"check_api_imports: {len(files)} files clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
