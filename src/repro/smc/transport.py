"""Two-party transports: in-process and over a TCP socket.

The protocols in this library are written as straight-line two-party
computations driven through an accounted :class:`~repro.smc.network.Channel`.
This module makes the *wire* under that channel real. Each transport
takes the bytes the channel encoded -- the same bytes it charged to the
trace -- and returns the payload the other party decodes from them:

* :class:`InProcessTransport` -- the bytes are decoded with the
  canonical codec (:mod:`repro.smc.wire`) in the same address space.
  No sockets, but every message is genuinely encoded and decoded, so
  codec fidelity is load-bearing even in-process.
* :class:`TcpTransport` -- every channel message is framed and shipped
  over a connected TCP socket whose far end runs
  :func:`mirror_frames`: it decodes the frame, re-encodes it
  canonically and returns it. The protocol then computes on data that
  physically crossed the socket; the echo must equal the sent bytes,
  and the far end's own frame counts equal the trace accounting.

On top of the message transports sits the deployment serving path:
:class:`repro.serving.ClassificationServer` (``python -m repro
serve``) drives a :class:`TcpTransport` on every socket it accepts,
and :func:`request_classification` is the matching *client process*
side, which runs :func:`mirror_frames`. Each query's protocol messages
all cross the socket between the two processes, and the client gets
back the label plus the server's trace accounting together with its
own independent byte counts.

Failure semantics: connects and reads are bounded by timeouts. The
client retries a refused or failed connect with jittered exponential
backoff up to a bounded attempt budget; once connected, any socket or
wire failure raises :class:`TransportError` at once and nothing is
resent -- no hung processes, no silent corruption. A server that
*rejects* a request (overload, bad request, deadline, an internal
handler failure) answers a ``KIND_ERROR`` frame, which the client
raises as a typed :class:`ServerError` carrying the machine-readable
code.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.crypto.rand import secure_rng
from repro.smc import wire
from repro.smc.network import Direction

class TransportError(Exception):
    """Raised when a transport cannot deliver a message."""


class ServerError(TransportError):
    """A classification server answered with a ``KIND_ERROR`` frame.

    The server reported a request-level failure instead of a result.
    ``code`` is machine-readable and stable for retry policy:
    ``"overloaded"`` (shed at admission; :func:`request_classification`
    does not retry it -- a caller may back off and send again),
    ``"bad-request"`` (malformed payload -- do not retry),
    ``"deadline"`` (the request exceeded the server's per-request
    timeout) and ``"internal"`` (a handler fault; the server itself
    kept serving). ``message`` is a sanitized human-readable sentence
    and ``request_id`` the server-assigned id of the failed request.

    Example::

        try:
            request_classification(host, port, row=[1, 2], seed=7)
        except ServerError as error:
            if error.code == "overloaded":
                ...  # back off and retry
    """

    def __init__(self, code: str, message: str, request_id: str = "") -> None:
        super().__init__(f"server error [{code}] {message}")
        self.code = code
        self.message = message
        self.request_id = request_id


@dataclass(frozen=True)
class TransportConfig:
    """Timeout and connect-retry policy of :func:`request_classification`.

    Attributes
    ----------
    connect_timeout:
        Seconds allowed for one TCP connect attempt.
    io_timeout:
        Seconds allowed for one blocking send/receive. A timeout is
        not retried: the peer is alive-but-stuck, and retrying would
        just hang for longer.
    retries:
        Additional connect attempts after the first.
    backoff_seconds:
        Initial retry delay window; doubles per retry. Each connect
        retry actually sleeps a uniform *full jitter* draw from
        ``[0, window]`` so clients that failed to connect at the same
        moment do not re-dial in lockstep. Only connects are retried:
        a shed request raises :class:`ServerError` (``"overloaded"``).
    """

    connect_timeout: float = 5.0
    io_timeout: float = 30.0
    retries: int = 3
    backoff_seconds: float = 0.05


#: Non-secret randomness for retry jitter. OS-entropy backed so client
#: processes forked from a common parent still desynchronise, but never
#: used for anything cryptographic.
_BACKOFF_RNG = secure_rng()


def _backoff_sleep(delay: float) -> None:
    """Sleep a *full-jitter* backoff: uniform in ``[0, delay]``.

    Called between failed connect attempts. Clients refused at the same
    instant (a server restarting, a full listen backlog) would, without
    jitter, all re-dial in lockstep after exactly ``delay`` seconds.
    Full jitter spreads the redials across the whole window while the
    caller keeps doubling ``delay``, so the attempt budget and the
    worst-case wait both stand.
    """
    time.sleep(_BACKOFF_RNG.uniform(0.0, delay))


class InProcessTransport:
    """Codec round-trip in the same address space.

    The cheapest backend that still exercises the canonical encoding on
    every message: the decode of the channel's encoded bytes replaces
    the payload, so any codec infidelity breaks classification rather
    than hiding behind object identity.
    """

    def __init__(self, codec: wire.WireCodec) -> None:
        self.codec = codec

    def exchange(self, direction: Direction, body: bytes) -> Any:
        """"Ship" one encoded message in-process: decode and return it."""
        return self.codec.decode(body)

    def close(self) -> None:
        """Nothing to release."""


class TcpTransport:
    """Channel transport over a connected TCP socket.

    The far end of the socket runs :func:`mirror_frames`: it decodes
    each protocol frame and answers with its canonical re-encoding. The
    serving runtime drives one of these on every socket it accepts.

    Parameters
    ----------
    sock:
        A connected socket. The transport sends the codec's keyring on
        it at construction, so both ends decode identically.
    codec:
        Codec holding the session's public keys.
    io_timeout:
        Seconds allowed for one blocking send/receive.
    """

    def __init__(
        self, sock: socket.socket, codec: wire.WireCodec, io_timeout: float
    ) -> None:
        self.codec = codec
        self.io_timeout = io_timeout
        self._sock: Optional[socket.socket] = sock
        sock.settimeout(io_timeout)
        keyring = wire.keyring_payload(paillier=codec.paillier, dgk=codec.dgk)
        wire.send_frame(sock, wire.KIND_KEYS, wire.encode(keyring))

    def exchange(self, direction: Direction, body: bytes) -> Any:
        """Ship one encoded protocol message across the socket and back.

        The peer decodes the frame and answers with its canonical
        re-encoding, which must equal ``body`` byte for byte; the
        returned payload is the decode of that reply, so every value
        the protocol computes on has survived a real
        encode -> wire -> decode -> encode -> wire -> decode cycle.
        A socket or wire failure closes the transport and raises
        :class:`TransportError`; nothing is resent.
        """
        if self._sock is None:
            raise TransportError("transport is closed")
        try:
            wire.send_frame(self._sock, wire.KIND_MSG, body)
            kind, reply = wire.recv_frame(self._sock)
        except socket.timeout as error:
            self.close()
            raise TransportError(
                f"timed out after {self.io_timeout}s waiting for the peer"
            ) from error
        except (wire.WireError, OSError) as error:
            self.close()
            raise TransportError(
                f"connection to the peer failed: {error}"
            ) from error
        if kind != wire.KIND_MSG:
            raise TransportError(
                f"peer answered frame kind 0x{kind:02X}, "
                f"expected a mirrored message"
            )
        if reply != body:
            raise TransportError(
                "peer's canonical re-encoding differs from the sent "
                "frame; codec is not canonical"
            )
        return self.codec.decode(reply)

    def close(self) -> None:
        """Close the socket; later exchanges raise."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            self._sock = None


def mirror_frames(
    sock: socket.socket, pace_seconds: float = 0.0
) -> Tuple[Any, Dict[str, int]]:
    """The far end of a :class:`TcpTransport`: echo frames until a result.

    A ``KIND_KEYS`` frame sets the codec; each ``KIND_MSG`` frame is
    decoded and answered with its canonical re-encoding; ``KIND_RESULT``
    ends the loop and returns its decoded payload together with this
    end's own frame counts (``frames``, ``bytes_received``,
    ``bytes_sent``). A ``KIND_ERROR`` frame raises :class:`ServerError`;
    a timeout, a dropped connection or any other frame kind raises
    :class:`TransportError`. ``pace_seconds`` sleeps before echoing
    each frame, to simulate a remote peer's per-round latency.
    """
    stats: Dict[str, int] = {
        "frames": 0, "bytes_received": 0, "bytes_sent": 0
    }
    codec: Optional[wire.WireCodec] = None
    while True:
        try:
            kind, body = wire.recv_frame(sock)
        except socket.timeout as error:
            raise TransportError(
                f"peer timed out after {sock.gettimeout()}s"
            ) from error
        except wire.WireError as error:
            raise TransportError(
                f"peer dropped the connection: {error}"
            ) from error
        if kind == wire.KIND_KEYS:
            codec = wire.codec_from_keyring(wire.WireCodec().decode(body))
            continue
        if kind == wire.KIND_MSG:
            if codec is None:
                raise TransportError(
                    "peer sent protocol frames before its keyring"
                )
            stats["frames"] += 1
            stats["bytes_received"] += wire.FRAME_OVERHEAD + len(body)
            payload = codec.decode(body)
            if pace_seconds > 0.0:
                time.sleep(pace_seconds)
            stats["bytes_sent"] += wire.send_frame(
                sock, wire.KIND_MSG, wire.encode(payload)
            )
            continue
        if kind == wire.KIND_ERROR:
            report = wire.WireCodec().decode(body)
            raise ServerError(
                code=str(report.get("code", "internal")),
                message=str(report.get("message", "")),
                request_id=str(report.get("request_id", "")),
            )
        if kind == wire.KIND_RESULT:
            return wire.WireCodec().decode(body), stats
        raise TransportError(
            f"unexpected frame kind 0x{kind:02X} from the peer"
        )


# -- the client side of a served query ---------------------------------------


@dataclass
class ClassificationResult:
    """What the client process gets back from one served query.

    ``label`` is the classification; ``server_trace`` the server's full
    execution-trace summary (bytes, rounds, messages, op counts);
    ``client_stats`` the client's own independently measured frame and
    byte counts, which must agree with the server's accounting
    byte-for-byte; ``request_id`` the server-assigned id, matching the
    ``serve.request`` telemetry span on the server side.

    Example::

        result = request_classification("127.0.0.1", port, [2, 0, 1],
                                        seed=7)
        assert result.client_stats["bytes_received"] == \\
            result.server_trace["bytes_total"]
    """

    label: int
    server_trace: Dict[str, float]
    client_stats: Dict[str, int] = field(default_factory=dict)
    request_id: str = ""
    #: Budget-enforcement outcome, present only when the server runs a
    #: privacy-budget ledger: identity, granted/dropped disclosure,
    #: spent-before/after, mode (``full`` / ``degraded`` / ``smc``).
    budget: Optional[Dict] = None


def request_classification(
    host: str,
    port: int,
    row: Sequence[int],
    seed: int,
    disclosure: Optional[Sequence[int]] = None,
    config: TransportConfig = TransportConfig(),
    pace_seconds: float = 0.0,
) -> ClassificationResult:
    """Client-process side of one served query.

    Connects to a :class:`repro.serving.ClassificationServer` (or a
    fleet frontend), submits the query, mirrors every protocol frame
    through :func:`mirror_frames` (each crosses the socket physically),
    and returns the label plus both endpoints' byte accounting.

    ``pace_seconds`` sleeps before mirroring each protocol frame,
    simulating a remote client's per-round network latency (localhost
    round trips are otherwise unrealistically instant); the concurrency
    benchmark uses it to model WAN clients. A ``KIND_ERROR`` reply at
    any point raises :class:`ServerError` with the server's code.

    Example::

        result = request_classification("127.0.0.1", port, row=[3, 1],
                                        seed=11)
        print(result.label, result.server_trace["total_bytes"])
    """
    delay = config.backoff_seconds
    last_error: Optional[Exception] = None
    sock = None
    for attempt in range(config.retries + 1):
        if attempt:
            _backoff_sleep(delay)
            delay *= 2
        try:
            sock = socket.create_connection(
                (host, port), timeout=config.connect_timeout
            )
            break
        except (ConnectionError, socket.timeout, OSError) as error:
            last_error = error
    if sock is None:
        raise TransportError(
            f"could not reach classification server at {host}:{port} "
            f"after {config.retries + 1} attempts: {last_error}"
        )
    sock.settimeout(config.io_timeout)
    request = {
        "row": [int(v) for v in row],
        "seed": int(seed),
        "disclosure": (
            [int(i) for i in disclosure] if disclosure is not None else None
        ),
    }
    with sock:
        wire.send_frame(sock, wire.KIND_REQUEST, wire.encode(request))
        result, stats = mirror_frames(sock, pace_seconds)
    return ClassificationResult(
        label=int(result["label"]),
        server_trace=result["trace"],
        client_stats=stats,
        request_id=str(result.get("request_id", "")),
        budget=result.get("budget"),
    )
