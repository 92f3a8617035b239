"""Two-party secure-computation runtime and protocol building blocks.

This package is the SMC substrate the secure classifiers run on:

* :mod:`repro.smc.wire` -- the canonical wire codec: every payload shape
  that crosses the two-party link has one deterministic tagged encoding;
  the channel charges and ships the bytes of that one encoding.
* :mod:`repro.smc.network` -- the accounted message channel (bytes per
  direction, messages, rounds), plus latency/bandwidth network profiles
  (LAN / WAN / loopback). A channel optionally routes every payload
  through a transport.
* :mod:`repro.smc.transport` -- transports: in-process codec round-trip
  and a TCP socket backend whose far end mirrors every frame, with
  timeouts; plus the client side of a served query (serving itself
  lives in :mod:`repro.serving`).
* :mod:`repro.smc.protocol` -- execution traces: operation counters and
  transfer statistics shared by all protocols.
* :mod:`repro.smc.comparison` -- the DGK private-input comparison and the
  Veugen/Bost encrypted-value comparison built on it.
* :mod:`repro.smc.argmax` -- Bost-style encrypted argmax with a blinded
  refresh step and an OT-based permutation reveal.
* :mod:`repro.smc.dotproduct` -- Paillier encrypted dot products (also
  the server side of the naive-Bayes table lookup).
* :mod:`repro.smc.lookup` -- the client's encrypted indicator vector for
  private table lookup.
* :mod:`repro.smc.shares` -- the share protocol layer: additively shared
  values, batched Beaver multiplication and client-only reveal over
  dealer-provided triples (the ``shares`` backend's online phase).
* :mod:`repro.smc.cost_model` -- the analytic cost model that converts an
  execution trace into estimated seconds under a hardware/network
  profile (production key sizes, LAN/WAN links).
"""

from repro.smc.network import Channel, NetworkModel, NetworkProfile
from repro.smc.protocol import ExecutionTrace, Op
from repro.smc.wire import WireCodec, WireError

#: Transport names are re-exported lazily (PEP 562): the transport
#: module carries the socket/multiprocessing machinery, and importing
#: :mod:`repro.smc` (e.g. via the pipeline or the repro.api facade)
#: must not drag it in.
_TRANSPORT_EXPORTS = frozenset({
    "InProcessTransport",
    "TcpTransport",
    "TransportConfig",
    "TransportError",
})


def __getattr__(name: str):
    if name in _TRANSPORT_EXPORTS:
        import importlib

        value = getattr(
            importlib.import_module("repro.smc.transport"), name
        )
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Channel",
    "ExecutionTrace",
    "InProcessTransport",
    "NetworkModel",
    "NetworkProfile",
    "Op",
    "TcpTransport",
    "TransportConfig",
    "TransportError",
    "WireCodec",
    "WireError",
]
