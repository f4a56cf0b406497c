"""Keypad: an auditing file system for theft-prone devices (EuroSys 2011).

A full-system Python reproduction.  The package is organised bottom-up:

* :mod:`repro.sim` — discrete-event kernel everything runs on.
* :mod:`repro.crypto` — from-scratch primitives (SHA-256, HMAC, AES,
  AEAD, PBKDF2/HKDF, HMAC-DRBG) and Boneh-Franklin IBE with a real
  Tate pairing.
* :mod:`repro.net` — links, netem presets, wire marshalling, RPC.
* :mod:`repro.storage` — block device, buffer cache, local (ext3-like)
  file system, the pluggable backends, and the calibrated cost model.
* :mod:`repro.encfs` — the EncFS-style encrypted stacked FS baseline.
* :mod:`repro.core` — **Keypad itself**: the auditing FS, key cache,
  prefetcher, IBE metadata locking, key/metadata services, the paired
  device, and revocation.
* :mod:`repro.nfs` — NFSv3-style networked FS baseline.
* :mod:`repro.forensics` — post-theft audit report tooling.
* :mod:`repro.attack` — thief and offline-attacker models.
* :mod:`repro.workloads` — Apache-compile, office-application, scan,
  and long-horizon trace generators.
* :mod:`repro.harness` — experiment rigs reproducing every table and
  figure of the paper's evaluation.
"""

__version__ = "1.0.0"

from repro.errors import (
    AuthorizationError,
    DiskError,
    FileSystemError,
    IntegrityError,
    KeypadError,
    NetworkUnavailableError,
    ReproError,
    RevokedError,
)

__all__ = [
    "ReproError",
    "FileSystemError",
    "DiskError",
    "IntegrityError",
    "KeypadError",
    "NetworkUnavailableError",
    "RevokedError",
    "AuthorizationError",
    "__version__",
]
