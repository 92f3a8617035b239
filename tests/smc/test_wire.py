"""Tests for the canonical wire codec."""

import socket

import numpy as np
import pytest

from repro.crypto.dgk import DgkKeyPair
from repro.crypto.paillier import PaillierKeyPair
from repro.crypto.rand import fresh_rng
from repro.smc import wire
from repro.smc.network import Channel
from repro.smc.wire import WireCodec, WireError


@pytest.fixture(scope="module")
def paillier():
    return PaillierKeyPair.generate(key_bits=384, rng=fresh_rng(31))


@pytest.fixture(scope="module")
def dgk():
    return DgkKeyPair.generate(key_bits=192, plaintext_bits=12,
                               rng=fresh_rng(32))


PLAIN_PAYLOADS = [
    None,
    True,
    False,
    0,
    1,
    -1,
    255,
    -255,
    128,
    -128,
    (1 << 80) + 7,
    -(1 << 80) - 7,
    1.5,
    -0.0,
    b"",
    b"\x00\xffbytes",
    "",
    "unicode ✓",
    [],
    [1, -2, "three", None],
    (4, 5.0, b"six"),
    {"a": 1, "b": [True, None]},
    {1: {2: (3,)}},
]


class TestRoundTrip:
    @pytest.mark.parametrize("payload", PLAIN_PAYLOADS,
                             ids=[repr(p)[:40] for p in PLAIN_PAYLOADS])
    def test_plain_payloads(self, payload):
        assert WireCodec().decode(wire.encode(payload)) == payload

    def test_types_survive(self):
        decoded = WireCodec().decode(wire.encode([(1, 2), [3, 4], {5: 6}]))
        assert isinstance(decoded[0], tuple)
        assert isinstance(decoded[1], list)
        assert isinstance(decoded[2], dict)
        assert isinstance(WireCodec().decode(wire.encode(True)), bool)
        assert isinstance(WireCodec().decode(wire.encode(1)), int)

    def test_numpy_scalars_canonicalised(self):
        assert wire.encode(np.int64(5)) == wire.encode(5)
        assert wire.encode(np.int32(-255)) == wire.encode(-255)
        assert wire.encode(np.bool_(True)) == wire.encode(True)
        assert wire.encode(np.float64(1.5)) == wire.encode(1.5)
        decoded = WireCodec().decode(wire.encode(np.int64(5)))
        assert decoded == 5 and isinstance(decoded, int)

    def test_paillier_ciphertext(self, paillier):
        ct = paillier.public_key.encrypt(1234, rng=fresh_rng(5))
        codec = WireCodec(paillier=paillier.public_key)
        decoded = codec.decode(wire.encode(ct))
        assert decoded.value == ct.value
        assert paillier.private_key.decrypt(decoded) == 1234

    def test_dgk_ciphertext(self, dgk):
        ct = dgk.public_key.encrypt(77, rng=fresh_rng(6))
        codec = WireCodec(dgk=dgk.public_key)
        decoded = codec.decode(wire.encode(ct))
        assert decoded.value == ct.value
        assert dgk.private_key.decrypt(decoded) == 77

    def test_nested_mixed_with_ciphertexts(self, paillier, dgk):
        payload = {
            "cts": [paillier.public_key.encrypt(9, rng=fresh_rng(7)),
                    dgk.public_key.encrypt(3, rng=fresh_rng(8))],
            "meta": (True, -42, "x"),
        }
        codec = WireCodec(paillier=paillier.public_key, dgk=dgk.public_key)
        decoded = codec.decode(wire.encode(payload))
        assert paillier.private_key.decrypt(decoded["cts"][0]) == 9
        assert dgk.private_key.decrypt(decoded["cts"][1]) == 3
        assert decoded["meta"] == (True, -42, "x")


class TestCanonicality:
    @pytest.mark.parametrize("payload", PLAIN_PAYLOADS,
                             ids=[repr(p)[:40] for p in PLAIN_PAYLOADS])
    def test_encoded_size_is_exact(self, payload):
        # The channel charges one frame around the payload's encoding.
        channel = Channel()
        assert channel.client_sends(payload) is payload
        assert channel.trace.total_bytes == (
            wire.FRAME_OVERHEAD + len(wire.encode(payload))
        )

    def test_reencoding_is_identity(self, paillier):
        payload = [1, -255, "x", (None, True),
                   paillier.public_key.encrypt(5, rng=fresh_rng(9))]
        codec = WireCodec(paillier=paillier.public_key)
        body = wire.encode(payload)
        assert wire.encode(codec.decode(body)) == body

    def test_negative_and_positive_encode_differently(self):
        assert wire.encode(-255) != wire.encode(255)
        assert len(wire.encode(-255)) == len(wire.encode(255))


class TestErrors:
    def test_unencodable_payload(self):
        with pytest.raises(WireError):
            wire.encode(object())

    def test_trailing_garbage_rejected(self):
        with pytest.raises(WireError):
            WireCodec().decode(wire.encode(1) + b"\x00")

    def test_truncated_payload_rejected(self):
        body = wire.encode([1, 2, 3])
        with pytest.raises(WireError):
            WireCodec().decode(body[:-1])

    def test_unknown_tag_rejected(self):
        with pytest.raises(WireError):
            WireCodec().decode(b"\xfe")

    def test_ciphertext_needs_key(self, paillier):
        ct = paillier.public_key.encrypt(5, rng=fresh_rng(10))
        with pytest.raises(WireError):
            WireCodec().decode(wire.encode(ct))

    def test_deep_nesting_is_a_wire_error(self):
        """~25 KB of nested one-element lists used to exhaust the
        interpreter stack (RecursionError) instead of failing typed."""
        hostile = b"\x07\x00\x00\x00\x01" * 5000 + b"\x00"
        with pytest.raises(WireError):
            WireCodec().decode(hostile)

    @pytest.mark.parametrize("container", [list, tuple, dict])
    def test_nesting_cap_is_exact(self, container):
        def nest(depth):
            payload = None
            for _ in range(depth):
                payload = (
                    {0: payload} if container is dict else container([payload])
                )
            return payload

        cap = wire.MAX_NESTING_DEPTH
        assert WireCodec().decode(wire.encode(nest(cap))) == nest(cap)
        with pytest.raises(WireError):
            WireCodec().decode(wire.encode(nest(cap + 1)))

    def test_element_cap_is_exact(self):
        cap = wire.MAX_DECODE_ELEMENTS
        at_cap = [None] * (cap - 1)  # the list itself is one element
        assert WireCodec().decode(wire.encode(at_cap)) == at_cap
        with pytest.raises(WireError, match="more elements"):
            WireCodec().decode(wire.encode(at_cap + [None]))

    def test_element_cap_counts_every_container(self):
        payload = {"a": [1, 2], "b": (3,), "c": {}}
        # root + 3 keys + 3 values + 3 items
        assert WireCodec().decode(wire.encode(payload), max_elements=10) \
            == payload
        with pytest.raises(WireError, match="more elements"):
            WireCodec().decode(wire.encode(payload), max_elements=9)

    def test_element_cap_refuses_before_building_items(self):
        # A header declaring 2^32-1 items is refused on the count alone.
        hostile = b"\x07\xff\xff\xff\xff" + b"\x00" * 64
        with pytest.raises(WireError, match="more elements"):
            WireCodec().decode(hostile)

    def test_element_cap_can_be_lifted(self):
        payload = [None] * 16
        with pytest.raises(WireError):
            WireCodec().decode(wire.encode(payload), max_elements=16)
        assert WireCodec().decode(
            wire.encode(payload), max_elements=None
        ) == payload


class TestKeyring:
    def test_roundtrip(self, paillier, dgk):
        payload = wire.keyring_payload(
            paillier=paillier.public_key, dgk=dgk.public_key
        )
        # The keyring itself crosses the wire as a plain payload.
        payload = WireCodec().decode(wire.encode(payload))
        codec = wire.codec_from_keyring(payload)
        assert codec.paillier.n == paillier.public_key.n
        assert codec.dgk.n == dgk.public_key.n
        assert codec.dgk.u == dgk.public_key.u

    def test_version_checked(self):
        with pytest.raises(WireError):
            wire.codec_from_keyring({"wire_version": 999})


class TestFraming:
    def test_frame_layout(self):
        body = wire.encode([1, 2])
        frame = wire.pack_frame(wire.KIND_MSG, body)
        assert frame[0] == wire.KIND_MSG
        assert int.from_bytes(frame[1:5], "big") == len(body)
        assert frame[5:] == body
        assert len(frame) == wire.FRAME_OVERHEAD + len(body)

    def test_oversized_frame_refused_before_its_body(self):
        """A declared length above the cap raises at once: the peer
        here never sends a body, so reading one would block."""
        reader, writer = socket.socketpair()
        with reader, writer:
            writer.sendall(
                bytes((wire.KIND_REQUEST,))
                + (wire.MAX_FRAME_BYTES + 1).to_bytes(4, "big")
            )
            reader.settimeout(5)
            with pytest.raises(wire.FrameTooLarge):
                wire.recv_frame(reader)

    def test_frame_cap_is_exact(self):
        reader, writer = socket.socketpair()
        with reader, writer:
            reader.settimeout(5)
            for size in (16, 17):
                writer.sendall(wire.pack_frame(wire.KIND_MSG, b"x" * size))
            assert wire.recv_frame(reader, max_bytes=16) == (
                wire.KIND_MSG, b"x" * 16
            )
            with pytest.raises(WireError):
                wire.recv_frame(reader, max_bytes=16)

    def test_uncapped_read_for_own_processes(self):
        reader, writer = socket.socketpair()
        with reader, writer:
            reader.settimeout(5)
            writer.sendall(wire.pack_frame(wire.KIND_HEALTH, b"x" * 17))
            assert wire.recv_frame(reader, max_bytes=None) == (
                wire.KIND_HEALTH, b"x" * 17
            )
