"""Office-application task models (Table 1, Figure 9).

Each task reproduces the file-system *operation stream* of one
interactive action (launching OpenOffice, saving a page in Firefox,
reading an email in Thunderbird, …) plus the application CPU time that
dominates its baseline latency.  Op patterns are anchored to numbers
the paper gives explicitly — e.g. "an OpenOffice file save invokes 11
file system operations, of which 7 are metadata operations that create
and then rename temporary files" — and to the Table 1 / Figure 9
latencies.

The application trees live under ``/apps/<app>`` (binaries, resources)
and ``/home/user`` (profiles, documents); all are Keypad-protected in
the evaluation setup, mirroring the authors' "$HOME and /tmp" policy
plus tracked application directories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

from repro.sim import SimRandom, Simulation
from repro.storage.backend import FsInterface
from repro.workloads.fsops import (
    OpCounter,
    TreeSpec,
    build_tree,
    read_file_chunked,
    write_file_chunked,
)

__all__ = ["OfficeTask", "OFFICE_TASKS", "prepare_office_environment",
           "task_by_name"]

_KB = 1024


def prepare_office_environment(fs: FsInterface, seed: int = 11) -> Generator:
    """Materialize application and profile trees (untimed setup)."""
    rand = SimRandom(seed, "office-env")
    specs = [
        # OpenOffice: 3 dirs x 15 files x 80 KB (launch reads these).
        TreeSpec("/apps/openoffice/program", 15, 80 * _KB, "lib{:03d}.so"),
        TreeSpec("/apps/openoffice/share", 15, 80 * _KB, "res{:03d}.dat"),
        TreeSpec("/apps/openoffice/config", 15, 80 * _KB, "cfg{:03d}.xcu"),
        # Firefox: app + profile + cache.
        TreeSpec("/apps/firefox/lib", 12, 48 * _KB, "xul{:03d}.so"),
        TreeSpec("/apps/firefox/chrome", 12, 48 * _KB, "omni{:03d}.ja"),
        TreeSpec("/home/user/.mozilla/profile", 12, 64 * _KB, "db{:02d}.sqlite"),
        TreeSpec("/home/user/.mozilla/cache", 40, 16 * _KB, "cache{:03d}.bin"),
        # Thunderbird: app + mail store.
        TreeSpec("/apps/thunderbird/lib", 12, 48 * _KB, "tb{:03d}.so"),
        TreeSpec("/home/user/.thunderbird/mail", 24, 64 * _KB, "folder{:02d}.mbox"),
        TreeSpec("/home/user/.thunderbird/index", 8, 16 * _KB, "idx{:02d}.msf"),
        # Evince + documents.
        TreeSpec("/apps/evince", 8, 32 * _KB, "ev{:02d}.so"),
        TreeSpec("/home/user/docs", 20, 48 * _KB, "report{:02d}.odt"),
    ]
    yield from build_tree(fs, specs, rand=rand)
    return None


@dataclass
class OfficeTask:
    """One Table-1 row: an interactive action with CPU + FS ops."""

    app: str
    name: str
    cpu_s: float
    body: Callable[[FsInterface, OpCounter], Generator]

    def run(
        self, fs: FsInterface, sim: Optional[Simulation] = None
    ) -> Generator:
        """Sim-process: perform the task; returns the op counter."""
        counter = OpCounter()
        if sim is not None and self.cpu_s > 0:
            yield sim.timeout(self.cpu_s)
        yield from self.body(fs, counter)
        return counter


# ---------------------------------------------------------------------------
# Task bodies.
# ---------------------------------------------------------------------------

def _read_tree_files(
    fs: FsInterface, counter: OpCounter, directory: str, limit: int = 10**9
) -> Generator:
    """mmap-style loading: each library/resource is one whole read.

    Application launches map their files rather than streaming them,
    which is why the paper's launch latencies scale with the *number*
    of files (one key fetch each) rather than their size.
    """
    names = yield from fs.readdir(directory)
    for name in names[:limit]:
        path = f"{directory}/{name}"
        attr = yield from fs.getattr(path)
        counter.getattrs += 1
        yield from fs.read(path, 0, attr.size)
        counter.reads += 1
    return None


def _oo_launch(fs: FsInterface, counter: OpCounter) -> Generator:
    for sub in ("program", "share", "config"):
        yield from _read_tree_files(fs, counter, f"/apps/openoffice/{sub}")
    return None


def _oo_new_document(fs: FsInterface, counter: OpCounter) -> Generator:
    path = "/home/user/docs/.~new_document.odt"
    exists = yield from fs.exists(path)
    if exists:
        yield from fs.unlink(path)
        counter.unlinks += 1
    yield from fs.create(path)
    counter.creates += 1
    yield from fs.write(path, 0, b"<office:document/>")
    counter.writes += 1
    return None


def _oo_save_as(fs: FsInterface, counter: OpCounter) -> Generator:
    """The paper's 11-op save: 7 metadata + 4 content operations."""
    doc = "/home/user/docs/report00.odt"
    tmp = "/home/user/docs/.~lock.tmp0000.odt"
    lock = "/home/user/docs/.~lock.report00.odt#"
    backup = "/home/user/docs/report00.odt.bak"
    for path in (tmp, lock, backup):
        exists = yield from fs.exists(path)
        if exists:
            yield from fs.unlink(path)
    # 1 create (tmp) + 3 writes
    yield from fs.create(tmp)
    counter.creates += 1
    body = b"ODF" * (40 * _KB // 3)
    yield from write_file_chunked(fs, tmp, body[:36 * _KB], counter)
    # backup old version: create + rename
    yield from fs.create(backup)
    counter.creates += 1
    yield from fs.rename(doc, backup)
    counter.renames += 1
    # move tmp into place: rename
    yield from fs.rename(tmp, doc)
    counter.renames += 1
    # lock file: create + unlink
    yield from fs.create(lock)
    counter.creates += 1
    yield from fs.unlink(lock)
    counter.unlinks += 1
    # final read-back (1 content op)
    yield from fs.read(doc, 0, 4096)
    counter.reads += 1
    return None


def _oo_open(fs: FsInterface, counter: OpCounter) -> Generator:
    yield from read_file_chunked(fs, "/home/user/docs/report01.odt", counter)
    yield from read_file_chunked(
        fs, "/apps/openoffice/config/cfg000.xcu", counter
    )
    return None


def _oo_quit(fs: FsInterface, counter: OpCounter) -> Generator:
    yield from fs.write("/apps/openoffice/config/cfg001.xcu", 0, b"<state/>")
    counter.writes += 1
    return None


def _ff_launch(fs: FsInterface, counter: OpCounter) -> Generator:
    yield from _read_tree_files(fs, counter, "/apps/firefox/lib")
    yield from _read_tree_files(fs, counter, "/apps/firefox/chrome")
    yield from _read_tree_files(fs, counter, "/home/user/.mozilla/profile")
    return None


def _ff_save_page(fs: FsInterface, counter: OpCounter) -> Generator:
    page = "/home/user/docs/saved_page.html"
    exists = yield from fs.exists(page)
    if exists:
        yield from fs.unlink(page)
    yield from fs.create(page)
    counter.creates += 1
    yield from write_file_chunked(fs, page, b"<html>" * 2000, counter)
    return None


def _ff_load_bookmark(fs: FsInterface, counter: OpCounter) -> Generator:
    yield from read_file_chunked(
        fs, "/home/user/.mozilla/profile/db00.sqlite", counter
    )
    # Page resources land in the cache directory.
    for i in range(4):
        path = f"/home/user/.mozilla/cache/cache{i:03d}.bin"
        yield from fs.write(path, 0, b"HTTP" * 1024)
        counter.writes += 1
    return None


def _ff_open_tab(fs: FsInterface, counter: OpCounter) -> Generator:
    yield from fs.read("/home/user/.mozilla/profile/db01.sqlite", 0, 4096)
    counter.reads += 1
    yield from fs.write("/home/user/.mozilla/profile/db02.sqlite", 0, b"session")
    counter.writes += 1
    return None


def _ff_close_tab(fs: FsInterface, counter: OpCounter) -> Generator:
    yield from fs.write("/home/user/.mozilla/profile/db02.sqlite", 0, b"session2")
    counter.writes += 1
    return None


def _tb_launch(fs: FsInterface, counter: OpCounter) -> Generator:
    yield from _read_tree_files(fs, counter, "/apps/thunderbird/lib")
    yield from _read_tree_files(fs, counter, "/home/user/.thunderbird/index")
    return None


def _tb_read_email(fs: FsInterface, counter: OpCounter) -> Generator:
    yield from read_file_chunked(
        fs, "/home/user/.thunderbird/mail/folder00.mbox", counter
    )
    yield from fs.write("/home/user/.thunderbird/index/idx00.msf", 0, b"read-flag")
    counter.writes += 1
    return None


def _tb_quit(fs: FsInterface, counter: OpCounter) -> Generator:
    for i in range(4):
        yield from fs.write(
            f"/home/user/.thunderbird/index/idx{i:02d}.msf", 0, b"flush"
        )
        counter.writes += 1
    return None


def _ev_launch(fs: FsInterface, counter: OpCounter) -> Generator:
    yield from read_file_chunked(fs, "/apps/evince/ev00.so", counter)
    yield from read_file_chunked(fs, "/apps/evince/ev01.so", counter)
    return None


def _ev_open(fs: FsInterface, counter: OpCounter) -> Generator:
    yield from read_file_chunked(fs, "/home/user/docs/report02.odt", counter)
    return None


def _ev_quit(fs: FsInterface, counter: OpCounter) -> Generator:
    return None
    yield  # pragma: no cover


OFFICE_TASKS: list[OfficeTask] = [
    OfficeTask("OpenOffice", "Launch", 0.45, _oo_launch),
    OfficeTask("OpenOffice", "New document", 0.0, _oo_new_document),
    OfficeTask("OpenOffice", "Save as", 1.35, _oo_save_as),
    OfficeTask("OpenOffice", "Open", 1.65, _oo_open),
    OfficeTask("OpenOffice", "Quit", 0.08, _oo_quit),
    OfficeTask("Firefox", "Launch", 3.35, _ff_launch),
    OfficeTask("Firefox", "Save a page", 0.65, _ff_save_page),
    OfficeTask("Firefox", "Load bookmark", 4.45, _ff_load_bookmark),
    OfficeTask("Firefox", "Open tab", 0.18, _ff_open_tab),
    OfficeTask("Firefox", "Close tab", 0.02, _ff_close_tab),
    OfficeTask("Thunderbird", "Launch", 1.15, _tb_launch),
    OfficeTask("Thunderbird", "Read email", 0.27, _tb_read_email),
    OfficeTask("Thunderbird", "Quit", 0.17, _tb_quit),
    OfficeTask("Evince", "Launch", 0.08, _ev_launch),
    OfficeTask("Evince", "Open document", 0.08, _ev_open),
    OfficeTask("Evince", "Quit", 0.02, _ev_quit),
]


def task_by_name(app: str, name: str) -> OfficeTask:
    for task in OFFICE_TASKS:
        if task.app == app and task.name == name:
            return task
    raise KeyError(f"no office task {app}/{name}")
