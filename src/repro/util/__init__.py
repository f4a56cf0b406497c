"""Small shared utilities (path handling, formatting)."""

from repro.util.paths import (
    basename,
    is_ancestor,
    normalize,
    parent_of,
    split,
)

__all__ = ["normalize", "split", "parent_of", "basename", "is_ancestor"]
