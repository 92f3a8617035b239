"""Tests for the pluggable transports: parity, byte accounting, faults.

The parity tests run the same composed protocol (DGK comparison,
encrypted comparison, secure argmax) from the same seed over the bare
channel, the in-process codec transport and the real TCP mirror-peer
transport, and require identical results and byte-identical traces.
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
    make_transport,
    start_wire_peer,
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
    summary = {k: v for k, v in ctx.trace.summary().items()
               if k != "wall_seconds"}
    return results, summary


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

        # TCP transport: every payload crosses a real localhost socket
        # to a peer process.
        peer, port = start_wire_peer()
        tcp_ctx = _fresh_ctx()
        tcp = TcpTransport(port=port, codec=wire.codec_for_context(tcp_ctx))
        tcp_ctx.channel.transport = tcp
        try:
            tcp_results, tcp_summary = _run_protocols(tcp_ctx)
            peer_counts = tcp.peer_stats()
        finally:
            tcp.close(shutdown_peer=True)
            peer.join(timeout=10)

        assert inproc_results == bare_results
        assert tcp_results == bare_results
        assert inproc_summary == bare_summary
        assert tcp_summary == bare_summary

        # Both endpoints measured exactly the accounted bytes.
        trace = tcp_ctx.trace
        assert tcp.stats.bytes_client_to_server == trace.bytes_client_to_server
        assert tcp.stats.bytes_server_to_client == trace.bytes_server_to_client
        assert tcp.stats.frames == trace.messages
        assert peer_counts["frames"] == trace.messages
        assert peer_counts["bytes_received"] == trace.total_bytes
        assert peer_counts["bytes_sent"] == trace.total_bytes
        assert inproc.stats.total_bytes == trace.total_bytes

    def test_channel_asserts_frame_size(self):
        ctx = _fresh_ctx()

        class LyingTransport:
            last_frame_bytes = 0

            def exchange(self, direction, payload):
                self.last_frame_bytes = 1  # deliberately wrong
                return payload

        ctx.channel.transport = LyingTransport()
        with pytest.raises(ChannelError, match="disagree"):
            ctx.channel.client_sends([1, 2, 3])


class TestMakeTransport:
    def test_backend_names(self):
        codec = wire.WireCodec()
        assert isinstance(make_transport("inproc", codec), InProcessTransport)
        with pytest.raises(TransportError, match="unknown transport"):
            make_transport("carrier-pigeon", codec)


class TestFaultInjection:
    def test_dropped_connection_is_retried(self):
        # The peer kills the connection once, mid-protocol, after the
        # third mirrored frame; the transport reconnects and resends.
        peer, port = start_wire_peer(drop_after=3)
        ctx = _fresh_ctx()
        tcp = TcpTransport(
            port=port,
            codec=wire.codec_for_context(ctx),
            config=TransportConfig(retries=3, backoff_seconds=0.01),
        )
        ctx.channel.transport = tcp
        try:
            results, _ = _run_protocols(ctx)
            peer_counts = tcp.peer_stats()
        finally:
            tcp.close(shutdown_peer=True)
            peer.join(timeout=10)
        assert results == [1, 1, 1]
        assert peer_counts["dropped"] == 1
        # The dropped frame was re-sent, so the peer saw one extra frame.
        assert peer_counts["frames"] == ctx.trace.messages + 1

    def test_unresponsive_peer_times_out_cleanly(self):
        # A listener that accepts and then never answers: the exchange
        # must fail with TransportError within the io timeout, not hang.
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        stop = threading.Event()

        def black_hole():
            listener.settimeout(5.0)
            try:
                sock, _ = listener.accept()
            except OSError:
                return
            with sock:
                stop.wait(5.0)

        thread = threading.Thread(target=black_hole, daemon=True)
        thread.start()
        tcp = TcpTransport(
            port=port,
            codec=wire.WireCodec(),
            config=TransportConfig(io_timeout=0.5, retries=1,
                                   backoff_seconds=0.01),
        )
        started = time.monotonic()
        try:
            with pytest.raises(TransportError, match="timed out"):
                tcp.exchange(Direction.CLIENT_TO_SERVER, [1, 2, 3])
        finally:
            stop.set()
            tcp.close()
            listener.close()
            thread.join(timeout=5)
        assert time.monotonic() - started < 5.0

    def test_connection_refused_is_bounded(self):
        # Nothing listens on the port: connect retries then fails loudly.
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
        probe.close()
        tcp = TcpTransport(
            port=free_port,
            codec=wire.WireCodec(),
            config=TransportConfig(connect_timeout=0.5, retries=1,
                                   backoff_seconds=0.01),
        )
        with pytest.raises(TransportError, match="could not connect"):
            tcp.exchange(Direction.CLIENT_TO_SERVER, 1)


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
        real_create = socket.create_connection

        def refusing(address, timeout=None):
            attempts.append(address)
            raise ConnectionRefusedError("test: nothing listening")

        monkeypatch.setattr(socket, "create_connection", refusing)
        try:
            tcp = TcpTransport(
                port=1, codec=wire.WireCodec(),
                config=TransportConfig(connect_timeout=0.1, retries=2,
                                       backoff_seconds=0.01),
            )
            with pytest.raises(TransportError, match="after 3 attempts"):
                tcp.exchange(Direction.CLIENT_TO_SERVER, 1)
        finally:
            monkeypatch.setattr(socket, "create_connection", real_create)
        assert len(attempts) == 3  # initial + retries, jitter or not
        backoffs = [s for s in slept if s >= 0.0]
        assert len(backoffs) >= 2
        # Full jitter: every sleep fits inside its doubled window.
        assert backoffs[0] <= 0.01 and backoffs[1] <= 0.02
