"""XML-RPC-style wire marshalling and the versioned transport envelope.

The paper's components "communicate using encrypted XML-RPC with
persistent connections", and its Figure 6 attributes the client-side
overhead of a key fetch chiefly to "XML-RPC marshalling overhead".  The
codec here marshals to real XML-RPC bytes (a faithful subset: struct,
array, int, string, base64, boolean, double, nil) so that byte counts —
which feed both the bandwidth experiment and the link transfer times —
are honest.

Both wire peers share one simulation process, so transports never
build those bytes: :func:`request_wire_len` and :func:`response_wire_len`
are the one place a message's wire size is computed (sealed body, auth
tag, headers, optional v2 frame), from the tag-for-tag length mirrors
``marshal_*_len``, and :func:`normalize_value` replays a round-trip's
effect on values.  The byte codec (``marshal_*``, :func:`unmarshal`,
:func:`pack_envelope` / :func:`unpack_envelope`) stays as the reference
those mirrors are derived from and property-tested against
(``tests/property/test_wire_fastpath.py``).

Protocol versions
-----------------

* **v1** (the paper's prototype): one message per connection turn, no
  framing — the sealed XML-RPC body *is* the envelope.  Responses are
  implicitly matched to requests because only one may be outstanding.
* **v2** (pipelined): each sealed body is wrapped in a fixed 13-byte
  frame (``FRAME_OVERHEAD``) — magic ``KPAD``, a version byte, and a
  64-bit request ID — so multiple requests can share one connection and
  responses can complete out of order.  :func:`unpack_envelope`
  transparently recognises bare v1 bodies, which is what lets a v2 peer
  interoperate with (and degrade to) a v1 peer.
"""

from __future__ import annotations

import base64
import re
from typing import Any, Optional

from repro.crypto.aead import StreamHmacAead
from repro.errors import RpcError

__all__ = [
    "marshal_request",
    "marshal_request_len",
    "marshal_response",
    "marshal_response_len",
    "request_wire_len",
    "response_wire_len",
    "normalize_value",
    "unmarshal",
    "WireMessage",
    "PROTOCOL_V1",
    "PROTOCOL_V2",
    "PROTOCOL_LATEST",
    "FRAME_OVERHEAD",
    "pack_envelope",
    "unpack_envelope",
]

PROTOCOL_V1 = 1
PROTOCOL_V2 = 2
PROTOCOL_LATEST = PROTOCOL_V2

_FRAME_MAGIC = b"KPAD"
#: bytes a v2 frame adds on top of the sealed body (magic + ver + id).
FRAME_OVERHEAD = len(_FRAME_MAGIC) + 1 + 8


def pack_envelope(version: int, request_id: Optional[int], body: bytes) -> bytes:
    """Wrap a sealed message body for the wire.

    v1 envelopes are the bare body (byte-compatible with the original
    prototype); v2 envelopes carry the version and request ID so a
    pipelined peer can match out-of-order responses.
    """
    if version <= PROTOCOL_V1:
        return body
    if request_id is None or request_id < 0:
        raise RpcError("v2 envelopes require a non-negative request ID")
    return (
        _FRAME_MAGIC
        + version.to_bytes(1, "big")
        + request_id.to_bytes(8, "big")
        + body
    )


def unpack_envelope(data: bytes) -> tuple[int, Optional[int], bytes]:
    """Split an envelope into ``(version, request_id, body)``.

    Bare bodies (no frame magic) parse as v1 with ``request_id=None``,
    which is how a v2 peer recognises a v1 peer's traffic.
    """
    if not data.startswith(_FRAME_MAGIC):
        return PROTOCOL_V1, None, data
    if len(data) < FRAME_OVERHEAD:
        raise RpcError("truncated v2 envelope")
    version = data[len(_FRAME_MAGIC)]
    if version < PROTOCOL_V2:
        raise RpcError(f"framed envelope claims pre-framing version {version}")
    request_id = int.from_bytes(data[len(_FRAME_MAGIC) + 1:FRAME_OVERHEAD], "big")
    return version, request_id, data[FRAME_OVERHEAD:]


class WireMessage:
    """A parsed wire message: method name (requests only) + payload."""

    def __init__(self, method: str | None, payload: Any):
        self.method = method
        self.payload = payload


def _encode_into(out: list, value: Any) -> None:
    """Append ``value``'s XML-RPC encoding fragments to ``out``.

    One flat fragment list for the whole message instead of a nested
    string per sub-value — marshalling is a top-5 fleet-simulation cost
    and the join-per-level version spent most of it on intermediates.
    """
    append = out.append
    if value is None:
        append("<nil/>")
    elif isinstance(value, bool):
        append("<boolean>1</boolean>" if value else "<boolean>0</boolean>")
    elif isinstance(value, int):
        append(f"<int>{value}</int>")
    elif isinstance(value, float):
        append(f"<double>{value!r}</double>")
    elif isinstance(value, str):
        append("<string>")
        append(_escape(value))
        append("</string>")
    elif isinstance(value, (bytes, bytearray)):
        append("<base64>")
        append(base64.b64encode(bytes(value)).decode())
        append("</base64>")
    elif isinstance(value, (list, tuple)):
        append("<array><data>")
        for v in value:
            append("<value>")
            _encode_into(out, v)
            append("</value>")
        append("</data></array>")
    elif isinstance(value, dict):
        append("<struct>")
        for k, v in value.items():
            append("<member><name>")
            append(_escape(str(k)))
            append("</name><value>")
            _encode_into(out, v)
            append("</value></member>")
        append("</struct>")
    else:
        raise RpcError(f"cannot marshal value of type {type(value).__name__}")


def _encode_value(value: Any) -> str:
    out: list[str] = []
    _encode_into(out, value)
    return "".join(out)


def normalize_value(value: Any) -> Any:
    """Exactly ``unmarshal(marshal(value))`` without touching bytes.

    Both wire peers live in one simulation process, so the bytes a
    channel marshals (for sizes, MACs, and sealing) would be parsed
    straight back into the values it started from.  This replays the
    round-trip's *semantic* effects — tuples become lists, non-str dict
    keys become strings, subclasses collapse to builtins, strings that
    tokenize away (whitespace-only) come back empty — so transports can
    skip the redundant parse.  ``tests/property`` holds this function to
    the real round-trip under randomized payloads.
    """
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


def _escaped_len(text: str) -> int:
    """UTF-8 byte length of ``_escape(text)`` without building it."""
    n = len(text)
    if not text.isascii():
        n = len(text.encode())
    if "&" in text or "<" in text or ">" in text:
        # &amp; adds 4 bytes per '&'; &lt;/&gt; add 3 per '<'/'>'.
        n += 4 * text.count("&") + 3 * text.count("<") + 3 * text.count(">")
    return n


def _encoded_len(value: Any) -> int:
    """Byte length of ``_encode_value(value).encode()`` without encoding.

    Wire *sizes* drive the simulation (transfer times, marshal CPU,
    bandwidth tables); the bytes themselves are only needed when both
    peers do not share a process.  This mirrors :func:`_encode_into`
    tag for tag so transports can charge exact sizes lazily.
    """
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
            n += 15 + _encoded_len(v)               # <value>..</value>
        return n
    if isinstance(value, dict):
        n = 17                                      # <struct>..</struct>
        for k, v in value.items():
            # <member><name>k</name><value>v</value></member>
            n += 45 + _escaped_len(str(k)) + _encoded_len(v)
        return n
    raise RpcError(f"cannot marshal value of type {type(value).__name__}")


def _escape(text: str) -> str:
    if "&" not in text and "<" not in text and ">" not in text:
        return text
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def _unescape(text: str) -> str:
    if "&" not in text:  # every escape sequence contains an ampersand
        return text
    return (
        text.replace("&lt;", "<").replace("&gt;", ">").replace("&amp;", "&")
    )


def marshal_request(method: str, params: dict[str, Any]) -> bytes:
    body = (
        "<?xml version='1.0'?><methodCall>"
        f"<methodName>{_escape(method)}</methodName>"
        f"<params><param><value>{_encode_value(params)}</value></param></params>"
        "</methodCall>"
    )
    return body.encode()


def marshal_response(payload: Any) -> bytes:
    body = (
        "<?xml version='1.0'?><methodResponse>"
        f"<params><param><value>{_encode_value(payload)}</value></param></params>"
        "</methodResponse>"
    )
    return body.encode()


#: fixed framing bytes around the method name and payload in
#: marshal_request / marshal_response (prologue, tags, params wrapper).
_REQUEST_FIXED_LEN = len(marshal_request("", {})) - _encoded_len({})
_RESPONSE_FIXED_LEN = len(marshal_response(None)) - _encoded_len(None)


def marshal_request_len(method: str, params: dict[str, Any]) -> int:
    """Exactly ``len(marshal_request(method, params))``, lazily."""
    return _REQUEST_FIXED_LEN + _escaped_len(method) + _encoded_len(params)


def marshal_response_len(payload: Any) -> int:
    """Exactly ``len(marshal_response(payload))``, lazily."""
    return _RESPONSE_FIXED_LEN + _encoded_len(payload)


#: HMAC-SHA256 tag authenticating a request to the device secret.
_AUTH_TAG_LEN = 32
#: transport header bytes beside a request's and a response's body.
_REQUEST_HEADER_LEN = 24
_RESPONSE_HEADER_LEN = 16


def request_wire_len(method: str, params: dict[str, Any], device_id: str,
                     framed: bool = False) -> int:
    """Bytes a request occupies on the wire: the sealed
    ``marshal_request`` body, its auth tag, the device id and the
    header, plus a v2 frame when ``framed``."""
    n = (StreamHmacAead.sealed_len(marshal_request_len(method, params))
         + _AUTH_TAG_LEN + len(device_id) + _REQUEST_HEADER_LEN)
    return n + FRAME_OVERHEAD if framed else n


def response_wire_len(payload: Any, framed: bool = False) -> int:
    """Bytes a response occupies on the wire: the sealed
    ``marshal_response`` body and the header, plus a v2 frame when
    ``framed``."""
    n = (StreamHmacAead.sealed_len(marshal_response_len(payload))
         + _RESPONSE_HEADER_LEN)
    return n + FRAME_OVERHEAD if framed else n


# A tiny recursive-descent parser over a tokenized tag stream.  We parse
# only what we emit; anything else is a protocol error.  The parser is a
# pair of functions threading an integer position through a token list —
# unmarshalling is ~20% of fleet-simulation CPU, so per-token method
# calls (peek/next/expect) are deliberately inlined into index math.

_TOKEN = re.compile(r"<[^>]+>|[^<]+")


def _expected(tokens: list[str], pos: int, tag: str) -> RpcError:
    if pos >= len(tokens):
        return RpcError("truncated wire message")
    return RpcError(f"expected {tag}, got {tokens[pos]}")


def _parse_value(tokens: list[str], pos: int) -> tuple[Any, int]:
    """Parse ``<value>...</value>`` at ``pos``; return (value, new pos)."""
    if tokens[pos] != "<value>":
        raise _expected(tokens, pos, "<value>")
    value, pos = _parse_typed(tokens, pos + 1)
    if tokens[pos] != "</value>":
        raise _expected(tokens, pos, "</value>")
    return value, pos + 1


def _parse_typed(tokens: list[str], pos: int) -> tuple[Any, int]:
    token = tokens[pos]
    pos += 1
    if token == "<struct>":
        result: dict[str, Any] = {}
        while tokens[pos] != "</struct>":
            if tokens[pos] != "<member>":
                raise _expected(tokens, pos, "<member>")
            if tokens[pos + 1] != "<name>":
                raise _expected(tokens, pos + 1, "<name>")
            if tokens[pos + 2] == "</name>":
                # Empty/whitespace-only member names tokenize away,
                # exactly like empty <string> bodies.
                name = ""
                pos += 3
            else:
                name = _unescape(tokens[pos + 2])
                if tokens[pos + 3] != "</name>":
                    raise _expected(tokens, pos + 3, "</name>")
                pos += 4
            result[name], pos = _parse_value(tokens, pos)
            if tokens[pos] != "</member>":
                raise _expected(tokens, pos, "</member>")
            pos += 1
        return result, pos + 1
    if token == "<string>":
        raw = tokens[pos]
        if raw == "</string>":
            return "", pos + 1
        if tokens[pos + 1] != "</string>":
            raise _expected(tokens, pos + 1, "</string>")
        return _unescape(raw), pos + 2
    if token == "<base64>":
        raw = tokens[pos]
        if raw == "</base64>":
            return b"", pos + 1
        if tokens[pos + 1] != "</base64>":
            raise _expected(tokens, pos + 1, "</base64>")
        return base64.b64decode(raw.strip()), pos + 2
    if token == "<int>":
        raw = tokens[pos]
        if tokens[pos + 1] != "</int>":
            raise _expected(tokens, pos + 1, "</int>")
        return int(raw), pos + 2
    if token == "<double>":
        raw = tokens[pos]
        if tokens[pos + 1] != "</double>":
            raise _expected(tokens, pos + 1, "</double>")
        return float(raw), pos + 2
    if token == "<nil/>":
        return None, pos
    if token == "<boolean>":
        raw = tokens[pos]
        if tokens[pos + 1] != "</boolean>":
            raise _expected(tokens, pos + 1, "</boolean>")
        return raw.strip() == "1", pos + 2
    if token == "<array>":
        if tokens[pos] != "<data>":
            raise _expected(tokens, pos, "<data>")
        pos += 1
        items = []
        append = items.append
        while tokens[pos] != "</data>":
            item, pos = _parse_value(tokens, pos)
            append(item)
        if tokens[pos + 1] != "</array>":
            raise _expected(tokens, pos + 1, "</array>")
        return items, pos + 2
    raise RpcError(f"unexpected wire token {token}")


def unmarshal(data: bytes) -> WireMessage:
    """Parse a request or response produced by the marshal functions."""
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise RpcError("wire message is not valid UTF-8") from exc
    tokens = [t for t in _TOKEN.findall(text) if t.strip()]
    try:
        if not tokens[0].startswith("<?xml"):
            raise RpcError("missing XML prologue")
        kind = tokens[1]
        if kind == "<methodCall>":
            if tokens[2] != "<methodName>":
                raise _expected(tokens, 2, "<methodName>")
            method = _unescape(tokens[3])
            for i, tag in ((4, "</methodName>"), (5, "<params>"), (6, "<param>")):
                if tokens[i] != tag:
                    raise _expected(tokens, i, tag)
            payload, pos = _parse_value(tokens, 7)
            for off, tag in ((0, "</param>"), (1, "</params>"), (2, "</methodCall>")):
                if tokens[pos + off] != tag:
                    raise _expected(tokens, pos + off, tag)
            return WireMessage(method, payload)
        if kind == "<methodResponse>":
            for i, tag in ((2, "<params>"), (3, "<param>")):
                if tokens[i] != tag:
                    raise _expected(tokens, i, tag)
            payload, pos = _parse_value(tokens, 4)
            for off, tag in ((0, "</param>"), (1, "</params>"), (2, "</methodResponse>")):
                if tokens[pos + off] != tag:
                    raise _expected(tokens, pos + off, tag)
            return WireMessage(None, payload)
        raise RpcError(f"unknown wire message kind {kind}")
    except IndexError:
        raise RpcError("truncated wire message") from None
