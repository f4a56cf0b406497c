"""Path normalization helpers shared by every FS layer."""

from __future__ import annotations

from repro.errors import InvalidArgument

__all__ = ["normalize", "split", "parent_of", "basename", "is_ancestor"]


def normalize(path: str) -> str:
    """Canonical absolute form: leading slash, no empty/dot components."""
    if (type(path) is str and path[:1] == "/" and "//" not in path
            and "/./" not in path and "/../" not in path
            and "\x00" not in path
            and (path == "/" or not path.endswith(("/", "/.", "/..")))):
        return path  # already canonical
    if not isinstance(path, str):
        raise InvalidArgument(f"path must be str, got {type(path).__name__}")
    parts = [p for p in path.split("/") if p not in ("", ".")]
    for part in parts:
        if part == "..":
            raise InvalidArgument("'..' components are not supported")
        if "\x00" in part:
            raise InvalidArgument("NUL byte in path component")
    return "/" + "/".join(parts)


def split(path: str) -> list[str]:
    """Components of a normalized path ('/' → [])."""
    norm = normalize(path)
    return [] if norm == "/" else norm[1:].split("/")


def parent_of(path: str) -> str:
    comps = split(path)
    if not comps:
        raise InvalidArgument("the root directory has no parent")
    return "/" + "/".join(comps[:-1])


def basename(path: str) -> str:
    comps = split(path)
    if not comps:
        raise InvalidArgument("the root directory has no name")
    return comps[-1]


def is_ancestor(ancestor: str, descendant: str) -> bool:
    """True if ``ancestor`` is a strict prefix directory of ``descendant``."""
    a = split(ancestor)
    d = split(descendant)
    return len(a) < len(d) and d[: len(a)] == a
