"""Keypad — the paper's primary contribution.

The auditing file system (:mod:`repro.core.fs`), its key cache and
prefetcher, the remote audit services, the paired-device extension, and
the client configuration.  The public names are in :mod:`repro.api`;
internals are imported from their defining submodule.
"""
