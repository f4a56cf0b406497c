"""Wire-size and value mirrors, held to the real codec under random
payloads.

RPC channels never build wire bytes; they rely on exact mirrors of the
codec:

* ``marshal_request_len`` / ``marshal_response_len`` — the byte length
  of the message the codec *would* produce, computed tag-for-tag;
* ``request_wire_len`` / ``response_wire_len`` — the whole message on
  the wire: the marshalled body HMAC-authenticated, sealed, and (v2)
  framed, plus the transport headers;
* ``normalize_value`` — the semantic effect of a marshal/unmarshal
  round-trip (tuples→lists, dict keys→str, whitespace-only→empty).

If a mirror drifts from the codec, wire sizes (and so every latency and
byte counter in the tables) silently stop describing the bytes the
protocol would send — these properties pin them together.
"""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aead import NONCE_LEN, StreamHmacAead
from repro.crypto.hmac import hmac_sha256
from repro.net.wire import (
    PROTOCOL_V2,
    marshal_request,
    marshal_request_len,
    marshal_response,
    marshal_response_len,
    normalize_value,
    pack_envelope,
    request_wire_len,
    response_wire_len,
    unmarshal,
)

_TEXT = st.text(alphabet=st.characters(codec="utf-8"), max_size=40)

_SCALAR = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 80), max_value=2 ** 80),
    st.floats(allow_nan=False, allow_infinity=False),
    _TEXT,
    st.binary(max_size=64),
)

_VALUE = st.recursive(
    _SCALAR,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
        st.dictionaries(st.integers(-99, 99), children, max_size=3),
    ),
    max_leaves=14,
)

_PARAMS = st.dictionaries(_TEXT, _VALUE, max_size=4)

_DEVICE_ID = st.text(alphabet=string.ascii_letters + string.digits + "-_.",
                     min_size=1, max_size=24)
_REQUEST_ID = st.integers(min_value=0, max_value=2 ** 64 - 1)

#: transport header bytes beside a request's / a response's body.
_REQUEST_HEADER = 24
_RESPONSE_HEADER = 16

_SUITE = StreamHmacAead(b"s" * 32)
_NONCE = b"\x00" * NONCE_LEN


def _sealed_request(method, params, device_id) -> tuple[bytes, bytes]:
    """The real request bytes: (sealed body, auth tag)."""
    plain = marshal_request(method, params)
    tag = hmac_sha256(b"d" * 32, device_id.encode() + plain)
    return _SUITE.seal(_NONCE, plain, aad=device_id.encode() + tag), tag


@settings(max_examples=150, deadline=None)
@given(method=_TEXT, params=_PARAMS)
def test_request_len_matches_codec(method, params):
    assert marshal_request_len(method, params) == \
        len(marshal_request(method, params))


@settings(max_examples=150, deadline=None)
@given(payload=_VALUE)
def test_response_len_matches_codec(payload):
    assert marshal_response_len(payload) == len(marshal_response(payload))


@settings(max_examples=150, deadline=None)
@given(payload=_VALUE)
def test_normalize_matches_roundtrip(payload):
    assert normalize_value(payload) == \
        unmarshal(marshal_response(payload)).payload


@settings(max_examples=150, deadline=None)
@given(method=_TEXT, params=_PARAMS, device_id=_DEVICE_ID,
       request_id=_REQUEST_ID)
def test_request_wire_len_matches_real_bytes(method, params, device_id,
                                             request_id):
    body, tag = _sealed_request(method, params, device_id)
    extra = len(tag) + len(device_id) + _REQUEST_HEADER
    assert request_wire_len(method, params, device_id) == len(body) + extra
    frame = pack_envelope(PROTOCOL_V2, request_id, body)
    assert request_wire_len(method, params, device_id, framed=True) == \
        len(frame) + extra


@settings(max_examples=150, deadline=None)
@given(payload=_VALUE, request_id=_REQUEST_ID)
def test_response_wire_len_matches_real_bytes(payload, request_id):
    body = _SUITE.seal(_NONCE, marshal_response(payload))
    assert response_wire_len(payload) == len(body) + _RESPONSE_HEADER
    frame = pack_envelope(PROTOCOL_V2, request_id, body)
    assert response_wire_len(payload, framed=True) == \
        len(frame) + _RESPONSE_HEADER
