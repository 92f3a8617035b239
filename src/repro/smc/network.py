"""Two-party network layer with byte and round accounting.

Every logical wire crossing goes through a :class:`Channel`, which

* encodes each payload once with the wire codec
  (:mod:`repro.smc.wire`) and charges the frame those bytes make, so the
  accounting is the bytes a real socket carries,
* counts messages, and
* counts *rounds* -- maximal runs of messages flowing in one direction,
  the quantity that multiplies network latency in the cost model.

A channel optionally carries a *transport* (see
:mod:`repro.smc.transport`): when attached, the encoded bytes are
shipped across the transport (e.g. a TCP socket whose far end mirrors
each frame), decoded on the far side and handed back -- the protocol
then runs on data that genuinely crossed the wire.

:class:`NetworkModel` prices a transcript under a latency/bandwidth
profile. Three standard profiles mirror the setups secure-classification
papers evaluate on: loopback, LAN and WAN.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

import repro.telemetry as telemetry
from repro.smc import wire
from repro.smc.protocol import ExecutionTrace

#: Per-message framing overhead (frame kind byte + u32 body length).
FRAME_OVERHEAD = wire.FRAME_OVERHEAD


class ChannelError(Exception):
    """Raised on malformed channel usage (unknown direction, bad payload)."""


class Direction(enum.Enum):
    """Who is sending the current message."""

    CLIENT_TO_SERVER = "client->server"
    SERVER_TO_CLIENT = "server->client"


#: Telemetry name of each wire-codec type tag (``0x0A`` -> ``"paillier"``),
#: read off the first byte of an encoded payload.
_NAME_BY_TAG = {
    value: name[len("TAG_"):].lower()
    for name, value in wire.tag_registry().items()
}


@dataclass
class Channel:
    """An accounted bidirectional link between client and server.

    Protocols call :meth:`send` at every logical wire crossing; the
    payload is returned to the other party after one frame (header plus
    canonical encoding) has been charged to the attached trace. Without
    a transport the payload is handed over in-process; with one, the
    encoded frame physically crosses the transport and the decoded copy
    is returned.
    """

    trace: ExecutionTrace = field(default_factory=ExecutionTrace)
    transport: Optional[Any] = None
    _last_direction: Optional[Direction] = None

    def send(self, direction: Direction, payload: Any) -> Any:
        """Record a message and hand the payload to the other party.

        The payload is encoded exactly once; the trace and the telemetry
        are charged one frame around those bytes, and a transport ships
        the same bytes. Delivery happens *before* accounting: an
        unencodable payload or a transport failure leaves the trace
        unchanged, so the trace never claims bytes for frames that did
        not cross the wire.
        """
        if direction not in (
            Direction.CLIENT_TO_SERVER, Direction.SERVER_TO_CLIENT
        ):  # pragma: no cover - enum exhausts the cases
            raise ChannelError(f"unknown direction {direction!r}")
        try:
            body = wire.encode(payload)
        except wire.WireError:
            raise ChannelError(
                f"cannot encode payload of type {type(payload).__name__}"
            ) from None
        if self.transport is not None:
            payload = self.transport.exchange(direction, body)
        size = FRAME_OVERHEAD + len(body)
        if direction is Direction.CLIENT_TO_SERVER:
            self.trace.bytes_client_to_server += size
        else:
            self.trace.bytes_server_to_client += size
        self.trace.messages += 1
        if direction is not self._last_direction:
            self.trace.rounds += 1
            self._last_direction = direction
        if telemetry.enabled():
            telemetry.record_wire(
                "client_to_server"
                if direction is Direction.CLIENT_TO_SERVER
                else "server_to_client",
                size,
                _NAME_BY_TAG[body[0]],
            )
        return payload

    def client_sends(self, payload: Any) -> Any:
        """Shorthand for a client-to-server message."""
        return self.send(Direction.CLIENT_TO_SERVER, payload)

    def server_sends(self, payload: Any) -> Any:
        """Shorthand for a server-to-client message."""
        return self.send(Direction.SERVER_TO_CLIENT, payload)

    def reset_direction(self) -> None:
        """Start a fresh protocol phase (next message opens a new round)."""
        self._last_direction = None


@dataclass(frozen=True)
class NetworkModel:
    """Latency/bandwidth pricing of a transcript.

    Attributes
    ----------
    name:
        Human-readable profile name.
    latency_seconds:
        One-way message latency.
    bandwidth_bytes_per_second:
        Link throughput.
    """

    name: str
    latency_seconds: float
    bandwidth_bytes_per_second: float

    def transfer_seconds(self, total_bytes: int, rounds: int) -> float:
        """Time to push ``total_bytes`` over ``rounds`` latency-bound
        round trips."""
        if total_bytes < 0 or rounds < 0:
            raise ValueError("bytes and rounds must be non-negative")
        return rounds * self.latency_seconds + total_bytes / self.bandwidth_bytes_per_second

    def price(self, trace: ExecutionTrace) -> float:
        """Network seconds implied by a trace under this model."""
        return self.transfer_seconds(trace.total_bytes, trace.rounds)


class NetworkProfile:
    """Standard network profiles used across benchmarks."""

    LOOPBACK = NetworkModel(
        name="loopback",
        latency_seconds=10e-6,
        bandwidth_bytes_per_second=5e9,
    )
    LAN = NetworkModel(
        name="lan",
        latency_seconds=0.25e-3,
        bandwidth_bytes_per_second=125e6,  # 1 Gbit/s
    )
    WAN = NetworkModel(
        name="wan",
        latency_seconds=40e-3,
        bandwidth_bytes_per_second=6.25e6,  # 50 Mbit/s
    )
