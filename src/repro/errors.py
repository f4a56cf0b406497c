"""Exception hierarchy shared across the reproduction."""

from __future__ import annotations

__all__ = [
    "ReproError",
    "FileSystemError",
    "FileNotFound",
    "FileExists",
    "NotADirectory",
    "IsADirectory",
    "DirectoryNotEmpty",
    "InvalidArgument",
    "DiskError",
    "IntegrityError",
    "CryptoError",
    "KeypadError",
    "NetworkUnavailableError",
    "RpcError",
    "ServiceUnavailableError",
    "DeadlineExpiredError",
    "OverloadSheddedError",
    "RevokedError",
    "AuthorizationError",
    "LockedFileError",
    "ConfigError",
    "ControlError",
    "AuditRecoveryError",
]


class ReproError(Exception):
    """Base class for all errors raised by this package."""


# --- file-system errors (mirror POSIX errno semantics) -------------------


class FileSystemError(ReproError):
    """Base class for file-system level failures."""


class FileNotFound(FileSystemError):
    """ENOENT: path component or file does not exist."""


class FileExists(FileSystemError):
    """EEXIST: exclusive create of an existing name."""


class NotADirectory(FileSystemError):
    """ENOTDIR: a non-directory appeared where a directory was needed."""


class IsADirectory(FileSystemError):
    """EISDIR: file operation attempted on a directory."""


class DirectoryNotEmpty(FileSystemError):
    """ENOTEMPTY: rmdir of a non-empty directory."""


class InvalidArgument(FileSystemError):
    """EINVAL: malformed path, offset, or flag combination."""


class DiskError(FileSystemError):
    """EIO: the simulated block device failed the request."""


# --- crypto ----------------------------------------------------------------


class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class IntegrityError(CryptoError):
    """Authentication tag / MAC verification failed."""


# --- Keypad / services -------------------------------------------------------


class KeypadError(ReproError):
    """Base class for Keypad protocol failures."""


class NetworkUnavailableError(KeypadError):
    """The link to the audit services (or paired device) is down."""


class RpcError(KeypadError):
    """Remote call failed (malformed request, server fault)."""


class ServiceUnavailableError(KeypadError):
    """The remote service refused or could not serve the request."""


class DeadlineExpiredError(ServiceUnavailableError):
    """A deadline elapsed before the service answered.

    Raised uniformly by every layer that enforces time budgets: the
    RPC channel racing a call against an operation's
    :class:`~repro.core.context.OpContext` deadline, and the cluster
    client's per-replica guard.  It subclasses
    :class:`ServiceUnavailableError` so generic availability handling
    still applies, but retry loops treat it as terminal — a spent
    deadline must surface to the caller, never burn more attempts.
    """


class OverloadSheddedError(ServiceUnavailableError):
    """Admission control dropped the request before serving it.

    Raised by the server-side frontend (:mod:`repro.server`) when a
    per-device queue is full or the scheduler's backlog estimate says
    the request cannot meet its deadline.  The request was *never
    admitted*: no key material was disclosed and no audit entry exists
    for it, so shedding preserves the zero-false-negative audit
    invariant by construction.  It subclasses
    :class:`ServiceUnavailableError` so generic availability handling
    (cluster failover, retry policies) applies unchanged, but — like a
    spent deadline — it is load feedback: callers should back off, not
    hammer the same service.
    """


class RevokedError(KeypadError):
    """The device's keys were disabled via Keypad remote control."""


class AuthorizationError(KeypadError):
    """Device/service authentication failed."""


class LockedFileError(KeypadError):
    """File is IBE-locked pending metadata registration confirmation."""


class ConfigError(KeypadError, ValueError):
    """A configuration bundle is contradictory or out of range.

    The one uniform type for every constraint the policy layer checks:
    :meth:`KeypadConfigBuilder.build` cross-validates feature bundles
    through it, mount (:func:`build_keypad_rig`) re-checks directly
    constructed configs, and :meth:`PolicyEpoch.update` raises it for
    attempts to change a mount-frozen knob at runtime (or to pass a
    runtime-only control verb as a mount-time knob).  Subclasses
    :class:`ValueError` too so historical ``except ValueError`` callers
    keep working.
    """


class ControlError(KeypadError):
    """A control-channel command failed (unknown verb, bad target,
    or a precondition like "volume must be empty" not met).

    Maps to CLI exit code 6 — distinct from deadline (3), unavailable
    (4), and shed (5) so fleet tooling can tell a broken admin action
    from a data-plane failure.
    """


class AuditRecoveryError(KeypadError):
    """Recovering a durable audit store from its spilled blobs, or an
    exported bundle's forensic views, failed.

    Raised on mount/restart when the serialized segments are corrupt,
    a sealed segment is missing, the seal chain does not verify, or a
    blob decodes to something inconsistent with its neighbours — i.e.
    when the recovered log would *not* be the tamper-evident record the
    paper promises.  A service whose restart hits this refuses to serve
    (its RPC server stays unavailable) rather than answer forensic
    queries from an untrustworthy log.  Maps to CLI exit code 2 (the
    integrity code) in ``keypad-audit forensics --recover``.
    """
