"""Session set-up shared by every suite under ``tests/``.

pytest runs with ``DeprecationWarning`` as an error (pyproject.toml).
When a hypothesis property fails, hypothesis imports its patch writer,
which imports ``libcst``, which subclasses the deprecated
``mypy_extensions.TypedDict`` at import time: under the error filter
that third-party warning aborted the whole session with an
INTERNALERROR instead of the failure report.  The patch writer is
imported once here with the warning silenced; the filter stays in force
for everything else.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: hypothesis writes no patches
        pass
