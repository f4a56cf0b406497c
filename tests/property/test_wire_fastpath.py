"""The one-walk wire form, held to the real codec and to the two-walk
oracle under random payloads.

RPC channels never build wire bytes; they rely on one walk of each
message:

* ``wire_form`` — the value the peer's parse would yield (tuples→lists,
  dict keys→str, whitespace-only→empty) and the byte length of the
  encoding, computed tag-for-tag;
* ``request_wire_form`` / ``response_wire_form`` — the same pair for the
  whole message on the wire: the marshalled body HMAC-authenticated,
  sealed, and (v2) framed, plus the transport headers.

``tests/wire_oracle.py`` keeps the two walks ``wire_form`` replaced
(``normalize_value`` and ``encoded_len``), held to the codec here too.
If the walk drifts from the codec, wire sizes (and so every latency and
byte counter in the tables) silently stop describing the bytes the
protocol would send — these properties pin them together.
"""

import enum
import string
from collections import OrderedDict, namedtuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aead import NONCE_LEN, StreamHmacAead
from repro.crypto.hmac import hmac_sha256
from repro.net.wire import (
    PROTOCOL_V2,
    marshal_request,
    marshal_response,
    pack_envelope,
    request_wire_form,
    response_wire_form,
    unmarshal,
    wire_form,
)
from tests.wire_oracle import (
    encoded_len,
    marshal_request_len,
    marshal_response_len,
    normalize_value,
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


class _Kind(enum.IntEnum):
    FETCH = 3


class _Tag(str):
    pass


_Pair = namedtuple("_Pair", "a b")

# Subclasses of the wire types travel as their builtin base.
_SUBCLASSED = st.recursive(
    st.one_of(
        _SCALAR,
        st.just(_Kind.FETCH),
        _TEXT.map(_Tag),
        st.binary(max_size=16).map(bytearray),
    ),
    lambda children: st.one_of(
        st.tuples(children, children).map(lambda t: _Pair(*t)),
        st.dictionaries(_TEXT, children, max_size=3).map(OrderedDict),
        st.lists(children, max_size=3),
    ),
    max_leaves=10,
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
    roundtrip = unmarshal(marshal_response(payload)).payload
    assert normalize_value(payload) == roundtrip
    assert wire_form(payload)[0] == roundtrip


@settings(max_examples=150, deadline=None)
@given(payload=st.one_of(_VALUE, _SUBCLASSED))
def test_wire_form_matches_oracle(payload):
    value, size = wire_form(payload)
    assert size == encoded_len(payload)
    expected = normalize_value(payload)
    assert value == expected
    assert repr(value) == repr(expected)    # same builtin types throughout


@settings(max_examples=150, deadline=None)
@given(method=_TEXT, params=_PARAMS, device_id=_DEVICE_ID,
       request_id=_REQUEST_ID)
def test_request_wire_len_matches_real_bytes(method, params, device_id,
                                             request_id):
    body, tag = _sealed_request(method, params, device_id)
    extra = len(tag) + len(device_id) + _REQUEST_HEADER
    payload, size = request_wire_form(method, params, device_id)
    assert size == len(body) + extra
    assert payload == normalize_value(params)
    frame = pack_envelope(PROTOCOL_V2, request_id, body)
    assert request_wire_form(method, params, device_id, framed=True) == \
        (payload, len(frame) + extra)


@settings(max_examples=150, deadline=None)
@given(payload=_VALUE, request_id=_REQUEST_ID)
def test_response_wire_len_matches_real_bytes(payload, request_id):
    body = _SUITE.seal(_NONCE, marshal_response(payload))
    value, size = response_wire_form(payload)
    assert size == len(body) + _RESPONSE_HEADER
    assert value == unmarshal(marshal_response(payload)).payload
    frame = pack_envelope(PROTOCOL_V2, request_id, body)
    assert response_wire_form(payload, framed=True) == \
        (value, len(frame) + _RESPONSE_HEADER)
