"""The wire walk's oracle: the two walks ``wire_form`` replaced.

``repro.net.wire.wire_form`` walks a value once and returns both the
value the peer's parse would yield and the encoded length.  Before it,
transports walked every message twice: ``normalize_value`` for the
value and ``_encoded_len`` for the size (plus ``marshal_*_len`` around
the latter).  Those walks are kept here, unchanged, so the tests can
demand the same pair from ``wire_form`` for any payload, and hold both
oracles to the real byte codec.
"""

from __future__ import annotations

from typing import Any

from repro.errors import RpcError
from repro.net.wire import _escaped_len, marshal_request, marshal_response


def normalize_value(value: Any) -> Any:
    """Exactly ``unmarshal(marshal(value))`` without touching bytes:
    tuples become lists, non-str dict keys become strings, subclasses
    collapse to builtins, strings that tokenize away (whitespace-only)
    come back empty."""
    if value is None or value is True or value is False:
        return value
    cls = type(value)
    if cls is int or cls is float or cls is bytes:
        return value
    if cls is str:
        # The tokenizer drops whitespace-only text nodes, so a blank
        # string unmarshals as empty.
        return value if not value or value.strip() else ""
    if isinstance(value, bool):
        return bool(value)
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    if isinstance(value, str):
        return value if not value or value.strip() else ""
    if isinstance(value, (bytes, bytearray)):
        return bytes(value)
    if isinstance(value, (list, tuple)):
        return [normalize_value(v) for v in value]
    if isinstance(value, dict):
        # Member names tokenize away exactly like string bodies, so
        # whitespace-only keys also come back empty.
        return {
            ("" if key and not key.strip() else key): normalize_value(v)
            for k, v in value.items()
            for key in (str(k),)
        }
    raise RpcError(f"cannot marshal value of type {type(value).__name__}")


def encoded_len(value: Any) -> int:
    """Byte length of the codec's encoding of ``value``, tag for tag."""
    if value is None:
        return 6                                    # <nil/>
    if isinstance(value, bool):
        return 20                                   # <boolean>x</boolean>
    if isinstance(value, int):
        return 11 + len(format(value))              # <int>..</int>
    if isinstance(value, float):
        return 17 + len(repr(value))                # <double>..</double>
    if isinstance(value, str):
        return 17 + _escaped_len(value)             # <string>..</string>
    if isinstance(value, (bytes, bytearray)):
        return 17 + 4 * ((len(value) + 2) // 3)     # <base64>..</base64>
    if isinstance(value, (list, tuple)):
        n = 28                                      # <array><data>..</data></array>
        for v in value:
            n += 15 + encoded_len(v)                # <value>..</value>
        return n
    if isinstance(value, dict):
        n = 17                                      # <struct>..</struct>
        for k, v in value.items():
            # <member><name>k</name><value>v</value></member>
            n += 45 + _escaped_len(str(k)) + encoded_len(v)
        return n
    raise RpcError(f"cannot marshal value of type {type(value).__name__}")


_REQUEST_FIXED_LEN = len(marshal_request("", {})) - encoded_len({})
_RESPONSE_FIXED_LEN = len(marshal_response(None)) - encoded_len(None)


def marshal_request_len(method: str, params: dict[str, Any]) -> int:
    """Exactly ``len(marshal_request(method, params))``."""
    return _REQUEST_FIXED_LEN + _escaped_len(method) + encoded_len(params)


def marshal_response_len(payload: Any) -> int:
    """Exactly ``len(marshal_response(payload))``."""
    return _RESPONSE_FIXED_LEN + encoded_len(payload)
