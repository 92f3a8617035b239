"""Tag-exhaustive round-trip property tests for the wire codec.

The sample table below is checked against :func:`repro.smc.wire.
tag_registry` -- the codec's own list of ``TAG_*`` constants -- so
adding a new wire tag fails this module until a round-trip sample for
it is added. Every sample must encode with its tag as the first byte
and survive encode -> decode -> encode byte-identically.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.beaver import BeaverTriple
from repro.crypto.rand import fresh_rng
from repro.crypto.secret_sharing import AdditiveShare
from repro.smc import wire
from repro.smc.wire import WireCodec

_MOD = 1 << 64


def _triple(a, b, c, modulus=_MOD):
    return BeaverTriple(
        AdditiveShare(a, modulus),
        AdditiveShare(b, modulus),
        AdditiveShare(c, modulus),
    )

#: Top-level payload samples per tag name. Ciphertext tags hold
#: callables taking the session key fixtures, since building a sample
#: needs a public key.
SAMPLES_BY_TAG = {
    "TAG_NONE": [None],
    "TAG_FALSE": [False],
    "TAG_TRUE": [True],
    "TAG_INT": [0, 1, -1, 255, -256, (1 << 80) + 7, -(1 << 80) - 7],
    "TAG_FLOAT": [0.0, -0.0, 1.5, -2.25, float("inf"), float("-inf")],
    "TAG_BYTES": [b"", b"\x00\xff", b"x" * 300],
    "TAG_STR": ["", "ascii", "unicode ✓"],
    "TAG_LIST": [[], [1, "two", None], [[b"nested"], 3.5]],
    "TAG_TUPLE": [(), (1,), (1, (2, b"x"), [3])],
    "TAG_DICT": [{}, {"a": 1, "b": [True, None]}, {1: {2: (3,)}}],
    "TAG_PAILLIER": [
        lambda keys: keys["paillier"].public_key.encrypt(
            1234, rng=fresh_rng(51)
        ),
    ],
    "TAG_DGK": [
        lambda keys: keys["dgk"].public_key.encrypt(7, rng=fresh_rng(52)),
    ],
    # Share elements need no key material: the modulus rides along in
    # the fixed-width body, so even a keyless codec round-trips them.
    "TAG_SHARE": [
        AdditiveShare(0, _MOD),
        AdditiveShare(_MOD - 1, _MOD),
        AdditiveShare(12345, 1 << 96),
        AdditiveShare(1, 2),
    ],
    "TAG_TRIPLE": [
        _triple(0, 0, 0),
        _triple(_MOD - 1, 2, _MOD - 2),
        _triple(3, 5, 15, modulus=1 << 96),
    ],
}


@pytest.fixture(scope="module")
def keyring(paillier_keys, dgk_keys):
    return {
        "paillier": paillier_keys,
        "dgk": dgk_keys,
    }


@pytest.fixture(scope="module")
def codec(keyring):
    return WireCodec(
        paillier=keyring["paillier"].public_key,
        dgk=keyring["dgk"].public_key,
    )


def materialise(sample, keyring):
    return sample(keyring) if callable(sample) else sample


def test_sample_table_covers_the_codec_registry():
    """Adding a TAG_* constant without a round-trip sample fails here."""
    assert set(SAMPLES_BY_TAG) == set(wire.tag_registry())


def test_registry_values_are_distinct_bytes():
    registry = wire.tag_registry()
    assert len(set(registry.values())) == len(registry)
    assert all(0 <= value <= 0xFF for value in registry.values())
    kinds = wire.kind_registry()
    assert len(set(kinds.values())) == len(kinds)


@pytest.mark.parametrize("tag_name", sorted(SAMPLES_BY_TAG))
def test_every_tag_round_trips_byte_identically(tag_name, keyring, codec):
    tag_value = wire.tag_registry()[tag_name]
    for sample in SAMPLES_BY_TAG[tag_name]:
        payload = materialise(sample, keyring)
        blob = wire.encode(payload)
        assert blob[0] == tag_value, (
            f"{tag_name} sample {payload!r} encoded with tag "
            f"{blob[0]:#04x}, expected {tag_value:#04x}"
        )
        reencoded = wire.encode(codec.decode(blob))
        assert reencoded == blob


# -- property-based sweep over nested plain payloads ----------------------

_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(1 << 130), max_value=1 << 130)
    | st.floats(allow_nan=False)
    | st.binary(max_size=48)
    | st.text(max_size=24)
)

_payloads = st.recursive(
    _scalars,
    lambda child: (
        st.lists(child, max_size=4)
        | st.lists(child, max_size=3).map(tuple)
        | st.dictionaries(
            st.integers(min_value=-8, max_value=8) | st.text(max_size=6),
            child,
            max_size=4,
        )
    ),
    max_leaves=24,
)


@settings(max_examples=150, deadline=None)
@given(payload=_payloads)
def test_arbitrary_plain_payload_round_trips(payload):
    blob = wire.encode(payload)
    decoded = WireCodec().decode(blob)
    assert wire.encode(decoded) == blob


# -- property-based sweep over share/triple elements ----------------------

_modulus_bits = st.integers(min_value=1, max_value=300)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_share_round_trips_through_keyless_codec(data):
    """Any ring element survives encode -> keyless decode -> encode,
    and its wire size depends only on the modulus width."""
    modulus = 1 << data.draw(_modulus_bits)
    value = data.draw(st.integers(min_value=0, max_value=modulus - 1))
    share = AdditiveShare(value, modulus)
    blob = wire.encode(share)
    decoded = WireCodec().decode(blob)
    assert decoded == share
    assert wire.encode(decoded) == blob
    zero = AdditiveShare(0, modulus)
    assert len(wire.encode(zero)) == len(blob)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_triple_round_trips_through_keyless_codec(data):
    modulus = 1 << data.draw(_modulus_bits)
    ints = st.integers(min_value=0, max_value=modulus - 1)
    triple = _triple(
        data.draw(ints), data.draw(ints), data.draw(ints), modulus=modulus
    )
    blob = wire.encode(triple)
    decoded = WireCodec().decode(blob)
    assert decoded == triple
    assert wire.encode(decoded) == blob
