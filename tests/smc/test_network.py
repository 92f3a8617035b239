"""Tests for the accounted channel and network models."""

import numpy as np
import pytest

from repro.crypto.paillier import PaillierKeyPair
from repro.crypto.rand import fresh_rng
from repro.smc import wire
from repro.smc.network import (
    FRAME_OVERHEAD,
    Channel,
    ChannelError,
    Direction,
    NetworkModel,
    NetworkProfile,
)

# Wire element overhead: tag byte + u32 length prefix.
_E = wire.ELEMENT_OVERHEAD


def _size(payload):
    """Wire size of ``payload``: the length of its one encoding."""
    return len(wire.encode(payload))


class TestWireSize:
    def test_int_sizes(self):
        assert _size(0) == _E + 1
        assert _size(255) == _E + 2       # sign bit needs a second byte
        assert _size(1 << 16) == _E + 3

    def test_sizes_match_real_encoding(self):
        # The channel charges the frame around the real encoding.
        for value in (0, 1, 127, 128, 255, 1 << 16, (1 << 64) - 1):
            channel = Channel()
            channel.client_sends(value)
            assert channel.trace.total_bytes == FRAME_OVERHEAD + _size(value)

    def test_negative_ints_sized_by_twos_complement(self):
        # Regression: the old magnitude-only sizing conflated -255 and
        # 255. Two's-complement encoding gives each a distinct canonical
        # body of well-defined length.
        assert wire.encode(-255) != wire.encode(255)
        assert _size(-1) == _E + 1            # body 0xFF
        assert _size(-255) == _E + 2          # body 0xFF01
        for value in (-1, -127, -128, -255, -(1 << 16)):
            assert _size(value) == _size(-value)
            assert wire.encode(value) != wire.encode(-value)

    def test_numpy_scalars(self):
        # Regression: sizing crashed on numpy scalar types.
        assert wire.encode(np.int64(5)) == wire.encode(5)
        assert wire.encode(np.int32(-255)) == wire.encode(-255)
        assert _size(np.bool_(True)) == _size(True) == 1
        assert wire.encode(np.float64(1.5)) == wire.encode(1.5)

    def test_bytes_and_str(self):
        assert _size(b"abc") == _E + 3
        assert _size("abc") == _E + 3

    def test_none_and_bool(self):
        assert _size(None) == 1
        assert _size(True) == 1

    def test_float(self):
        assert _size(1.5) == 1 + 8

    def test_list_recursion(self):
        assert _size([0, 0]) == _E + 2 * (_E + 1)

    def test_dict_recursion(self):
        assert _size({1: 2}) == _E + 2 * (_E + 1)

    def test_ciphertext_uses_declared_size(self):
        keys = PaillierKeyPair.generate(key_bits=256, rng=fresh_rng(1))
        ct = keys.public_key.encrypt(5, rng=fresh_rng(2))
        assert _size(ct) == _E + ct.serialized_size_bytes()

    def test_unknown_type_rejected(self):
        # A payload the codec cannot encode cannot cross the wire, and
        # nothing is charged for it.
        channel = Channel()
        with pytest.raises(ChannelError):
            channel.send(Direction.CLIENT_TO_SERVER, object())
        assert channel.trace.total_bytes == 0
        assert channel.trace.messages == 0
        assert channel.trace.rounds == 0


class TestChannel:
    def test_byte_accounting_by_direction(self):
        channel = Channel()
        channel.client_sends(b"1234")
        channel.server_sends(b"12345678")
        assert channel.trace.bytes_client_to_server == FRAME_OVERHEAD + _E + 4
        assert channel.trace.bytes_server_to_client == FRAME_OVERHEAD + _E + 8
        assert channel.trace.total_bytes == 2 * (FRAME_OVERHEAD + _E) + 12

    def test_round_counting(self):
        channel = Channel()
        channel.client_sends(1)
        channel.client_sends(2)  # same direction: same round
        channel.server_sends(3)  # flip: new round
        channel.client_sends(4)  # flip: new round
        assert channel.trace.rounds == 3
        assert channel.trace.messages == 4

    def test_reset_direction_opens_new_round(self):
        channel = Channel()
        channel.client_sends(1)
        channel.reset_direction()
        channel.client_sends(2)
        assert channel.trace.rounds == 2

    def test_payload_passthrough(self):
        channel = Channel()
        payload = [1, 2, 3]
        assert channel.send(Direction.CLIENT_TO_SERVER, payload) is payload


class TestNetworkModel:
    def test_transfer_time(self):
        model = NetworkModel("test", latency_seconds=0.01,
                             bandwidth_bytes_per_second=1000)
        assert model.transfer_seconds(500, 2) == pytest.approx(0.02 + 0.5)

    def test_negative_rejected(self):
        model = NetworkProfile.LAN
        with pytest.raises(ValueError):
            model.transfer_seconds(-1, 0)

    def test_price_uses_trace(self):
        channel = Channel()
        channel.client_sends(b"x" * 96)
        price = NetworkProfile.LAN.price(channel.trace)
        assert price > 0

    def test_profiles_ordering(self):
        # WAN must be strictly slower than LAN than loopback.
        for total_bytes, rounds in ((10_000, 4), (1, 1)):
            loopback = NetworkProfile.LOOPBACK.transfer_seconds(total_bytes, rounds)
            lan = NetworkProfile.LAN.transfer_seconds(total_bytes, rounds)
            wan = NetworkProfile.WAN.transfer_seconds(total_bytes, rounds)
            assert loopback < lan < wan


class TestTransportFailureAccounting:
    # Regression: a frame that never crosses the wire must not be
    # charged. Delivery (the transport exchange) happens before the
    # trace is touched.

    class _ExplodingTransport:
        def exchange(self, direction, body):
            raise ChannelError("link down")

    def test_failed_delivery_leaves_trace_unchanged(self):
        channel = Channel()
        channel.transport = self._ExplodingTransport()
        with pytest.raises(ChannelError):
            channel.send(Direction.CLIENT_TO_SERVER, 42)
        assert channel.trace.total_bytes == 0
        assert channel.trace.messages == 0
        assert channel.trace.rounds == 0

    def test_failed_delivery_records_no_telemetry(self):
        import repro.telemetry as telemetry

        telemetry.configure(True, reset=True)
        try:
            channel = Channel()
            channel.transport = self._ExplodingTransport()
            with pytest.raises(ChannelError):
                channel.send(Direction.CLIENT_TO_SERVER, 42)
            counters = telemetry.snapshot()["counters"]
        finally:
            telemetry.configure(False, reset=True)
        assert "wire.frames" not in counters
