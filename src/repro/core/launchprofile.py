"""Application-launch key profiling (§5.1.2 extension).

The paper observes that "application launches are particularly
expensive over 3G networks, as they often encounter a cold cache and
many file system interactions. Keypad could optimize launch by
profiling applications and prefetching needed keys; other file
systems, such as NTFS, perform similar special-case optimizations."

This module implements that optimization: record the set of protected
files an application touches during a launch, then — on later launches
— batch-prefetch all of their keys in a single request before the app
starts faulting them in one by one.

Audit impact: profile prefetches are logged like any other prefetch
(kind="profile-prefetch"); false positives are bounded by the profile
(files the app touched on *some* launch), mirroring the directory
prefetcher's locality argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["LaunchProfiler"]


@dataclass
class LaunchProfiler:
    """Records per-application launch working sets (by path)."""

    max_profile_size: int = 512
    _profiles: dict[str, list[str]] = field(default_factory=dict)
    _recording: Optional[str] = None
    _current: list[str] = field(default_factory=list)

    # -- recording ---------------------------------------------------------
    def begin(self, app: str) -> None:
        if self._recording is not None:
            raise ValueError(
                f"already recording a profile for {self._recording!r}"
            )
        self._recording = app
        self._current = []

    def note_access(self, path: str) -> None:
        """Called by the FS on every protected content-key resolution."""
        if self._recording is None:
            return
        if path not in self._current and len(self._current) < self.max_profile_size:
            self._current.append(path)

    def end(self) -> list[str]:
        if self._recording is None:
            raise ValueError("no profile recording in progress")
        app, self._recording = self._recording, None
        profile, self._current = self._current, []
        self._profiles[app] = profile
        return profile

    # -- lookup ------------------------------------------------------------
    def profile_for(self, app: str) -> list[str]:
        return list(self._profiles.get(app, ()))
