"""Simulated network substrate: links, presets, wire format, RPC.

The public names are in :mod:`repro.api`; internals are imported from
their defining submodule.
"""
