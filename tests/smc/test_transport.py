"""Tests for the transports: parity, byte accounting, faults.

The parity tests run the same composed protocol (DGK comparison,
encrypted comparison, secure argmax) from the same seed over the bare
channel, the in-process codec transport and a socket transport whose
far end runs the shared mirror loop, and require identical results and
byte-identical traces.
"""

import socket
import threading
import time

import pytest

from repro.core.session import SessionConfig
from repro.smc.argmax import secure_argmax
from repro.smc.comparison import compare_values_encrypted, dgk_compare
from repro.smc.context import make_context
from repro.smc import wire
from repro.smc.network import ChannelError, Direction
from repro.smc.transport import (
    InProcessTransport,
    TcpTransport,
    TransportConfig,
    TransportError,
    mirror_frames,
    request_classification,
)

from tests.conftest import TEST_DGK_BITS, TEST_PAILLIER_BITS

_SEED = 21


def _fresh_ctx():
    return make_context(config=SessionConfig(
        seed=_SEED,
        paillier_bits=TEST_PAILLIER_BITS,
        dgk_bits=TEST_DGK_BITS,
        dgk_plaintext_bits=16,
    ))


def _run_protocols(ctx):
    """A composed workload touching every payload family."""
    results = []
    results.append(dgk_compare(ctx, 3, 5, 4).value)
    bit_enc = compare_values_encrypted(
        ctx, ctx.server_encrypt(9), ctx.server_encrypt(4), 5
    )
    results.append(ctx.client_decrypt(bit_enc))
    results.append(
        secure_argmax(ctx, [ctx.server_encrypt(v) for v in (5, 9, 3)], 5)
    )
    return results, ctx.trace.summary()


class _Mirror(threading.Thread):
    """The far end of a socket pair, running :func:`mirror_frames`."""

    def __init__(self, sock):
        super().__init__(daemon=True)
        self.sock = sock
        self.result = self.stats = self.error = None

    def run(self):
        with self.sock:
            try:
                self.result, self.stats = mirror_frames(self.sock)
            except TransportError as error:
                self.error = error


class TestParity:
    def test_all_backends_agree(self):
        # Bare channel (accounting only).
        bare_ctx = _fresh_ctx()
        bare_results, bare_summary = _run_protocols(bare_ctx)
        assert bare_results == [1, 1, 1]

        # In-process transport: every payload is encoded and decoded.
        inproc_ctx = _fresh_ctx()
        inproc = InProcessTransport(wire.codec_for_context(inproc_ctx))
        inproc_ctx.channel.transport = inproc
        inproc_results, inproc_summary = _run_protocols(inproc_ctx)

        # Socket transport: every payload crosses a real socket to the
        # mirror loop and back; a KIND_RESULT frame ends the session.
        near, far = socket.socketpair()
        mirror = _Mirror(far)
        mirror.start()
        tcp_ctx = _fresh_ctx()
        tcp = TcpTransport(near, wire.codec_for_context(tcp_ctx), 30.0)
        tcp_ctx.channel.transport = tcp
        try:
            tcp_results, tcp_summary = _run_protocols(tcp_ctx)
            wire.send_frame(near, wire.KIND_RESULT, wire.encode("done"))
        finally:
            tcp.close()
            mirror.join(timeout=10)
        assert mirror.error is None
        assert mirror.result == "done"

        assert inproc_results == bare_results
        assert tcp_results == bare_results
        assert inproc_summary == bare_summary
        assert tcp_summary == bare_summary

        # The far end measured exactly the accounted bytes: the near
        # end's channel charges the bytes it ships.
        trace = tcp_ctx.trace
        assert mirror.stats["frames"] == trace.messages
        assert mirror.stats["bytes_received"] == trace.total_bytes
        assert mirror.stats["bytes_sent"] == trace.total_bytes

    def test_channel_charges_the_shipped_bytes(self):
        # The channel encodes each message once: the transport ships
        # exactly the bytes the trace is charged for.
        ctx = _fresh_ctx()
        inner = InProcessTransport(wire.codec_for_context(ctx))
        shipped = []

        class RecordingTransport:
            def exchange(self, direction, body):
                shipped.append((direction, body))
                return inner.exchange(direction, body)

        ctx.channel.transport = RecordingTransport()
        results, _ = _run_protocols(ctx)
        assert results == [1, 1, 1]
        trace = ctx.trace
        assert len(shipped) == trace.messages
        for direction, charged in (
            (Direction.CLIENT_TO_SERVER, trace.bytes_client_to_server),
            (Direction.SERVER_TO_CLIENT, trace.bytes_server_to_client),
        ):
            assert charged == sum(
                wire.FRAME_OVERHEAD + len(body)
                for sent, body in shipped if sent is direction
            )
        with pytest.raises(ChannelError):
            ctx.channel.client_sends(object())
        assert len(shipped) == trace.messages


def _free_port():
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class TestFaultInjection:
    def test_peer_closing_mid_protocol_fails_at_once(self):
        # The peer echoes three frames, reads the fourth and hangs up:
        # that exchange raises, the trace keeps only the three delivered
        # messages, and nothing is sent again.
        near, far = socket.socketpair()
        received = []

        def echo_then_close(echoed=3):
            with far:
                wire.recv_frame(far)  # the keyring
                while True:
                    try:
                        kind, body = wire.recv_frame(far)
                    except wire.WireError:
                        return
                    received.append(kind)
                    if len(received) > echoed:
                        return
                    wire.send_frame(far, kind, body)

        peer = threading.Thread(target=echo_then_close, daemon=True)
        peer.start()
        ctx = _fresh_ctx()
        tcp = TcpTransport(near, wire.codec_for_context(ctx), 30.0)
        ctx.channel.transport = tcp
        started = time.monotonic()
        with pytest.raises(TransportError, match="connection to the peer"):
            _run_protocols(ctx)
        assert time.monotonic() - started < 10.0
        peer.join(timeout=10)
        assert received == [wire.KIND_MSG] * 4
        assert ctx.trace.messages == 3
        with pytest.raises(TransportError, match="closed"):
            tcp.exchange(Direction.CLIENT_TO_SERVER, wire.encode(1))

    def test_unresponsive_peer_times_out_cleanly(self):
        # A peer that never answers: the exchange must fail with a
        # TransportError chained from the socket timeout (the serving
        # runtime maps that chain to its "deadline" error), not hang.
        near, far = socket.socketpair()
        tcp = TcpTransport(near, wire.WireCodec(), io_timeout=0.5)
        started = time.monotonic()
        try:
            with pytest.raises(TransportError, match="timed out") as info:
                tcp.exchange(
                    Direction.CLIENT_TO_SERVER, wire.encode([1, 2, 3])
                )
        finally:
            tcp.close()
            far.close()
        assert isinstance(info.value.__cause__, socket.timeout)
        assert time.monotonic() - started < 5.0

    def test_connection_refused_is_bounded(self):
        # Nothing listens on the port: the client retries its connect,
        # then fails loudly.
        with pytest.raises(TransportError, match="could not reach"):
            request_classification(
                "127.0.0.1", _free_port(), row=[1], seed=0,
                config=TransportConfig(connect_timeout=0.5, retries=1,
                                       backoff_seconds=0.01),
            )


class TestBackoffJitter:
    def test_backoff_sleep_draws_full_jitter(self, monkeypatch):
        """Each retry sleeps a uniform draw from [0, window], not the
        window itself -- lockstep redials are the thundering herd."""
        from repro.smc import transport as transport_mod

        slept = []
        monkeypatch.setattr(transport_mod.time, "sleep", slept.append)
        for _ in range(64):
            transport_mod._backoff_sleep(0.05)
        assert all(0.0 <= s <= 0.05 for s in slept)
        assert len(set(slept)) > 1  # actually jittered, not constant

    def test_jittered_retries_keep_the_attempt_budget(self, monkeypatch):
        """Jitter must not change how many times we try: retries=2 means
        exactly 3 connect attempts and 2 backoff sleeps, each bounded by
        its doubling window."""
        from repro.smc import transport as transport_mod

        slept = []
        monkeypatch.setattr(transport_mod.time, "sleep", slept.append)
        attempts = []

        def refusing(address, timeout=None):
            attempts.append(address)
            raise ConnectionRefusedError("test: nothing listening")

        monkeypatch.setattr(socket, "create_connection", refusing)
        with pytest.raises(TransportError, match="after 3 attempts"):
            request_classification(
                "127.0.0.1", 1, row=[1], seed=0,
                config=TransportConfig(connect_timeout=0.1, retries=2,
                                       backoff_seconds=0.01),
            )
        assert len(attempts) == 3  # initial + retries, jitter or not
        assert len(slept) == 2
        # Full jitter: every sleep fits inside its doubled window.
        assert 0.0 <= slept[0] <= 0.01 and 0.0 <= slept[1] <= 0.02
