"""Two-party share-protocol session: the shares backend's online layer.

This is the one share layer of the library: the ``shares``
:class:`~repro.secure.backends.SharesBackend` runs on it, following the
trusted-initializer model (a dealer pre-distributes Beaver triples and
comparison masks offline; the two parties compute online). Values live
as :class:`SharedValue` additive shares; every sharing and opening
crosses the accounted channel as tagged wire elements (``TAG_SHARE``),
openings are batched so a whole bank of Beaver multiplications costs
two messages, and every triple is drained from the offline
:class:`~repro.crypto.triples.TripleStore` -- the online phase itself
performs integer ring arithmetic only.

Conventions: party 0 is the client, party 1 the server; public
constants fold into the client's share. Input sharing is dealer-free:
the owner draws the other party's share uniformly from its own session
rng and keeps the difference, so a single corrupted party learns
nothing about the input.

The ring modulus is sized per session by :func:`modulus_bits_for`:
``magnitude_bits + kappa + 8`` bits, leaving statistical headroom for
the masked comparison openings of :mod:`repro.smc.comparison` (the
``+8`` margin keeps every opened ``m = t + r`` strictly inside the
ring).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.crypto.secret_sharing import AdditiveShare
from repro.crypto.triples import TripleStore
from repro.smc.context import TwoPartyContext
from repro.smc.protocol import Op, protocol_entry


class ShareProtocolError(Exception):
    """Raised on invalid share-protocol usage or corrupted openings."""


@dataclass
class SharedValue:
    """A value additively shared between client (0) and server (1)."""

    share0: AdditiveShare
    share1: AdditiveShare

    def __add__(self, other) -> "SharedValue":
        if isinstance(other, SharedValue):
            return SharedValue(self.share0 + other.share0, self.share1 + other.share1)
        if isinstance(other, int):
            # Public constants fold into party 0's share by convention.
            return SharedValue(self.share0 + other, self.share1)
        return NotImplemented

    def __radd__(self, other) -> "SharedValue":
        return self.__add__(other)

    def __sub__(self, other) -> "SharedValue":
        if isinstance(other, SharedValue):
            return SharedValue(self.share0 - other.share0, self.share1 - other.share1)
        if isinstance(other, int):
            return SharedValue(self.share0 - other, self.share1)
        return NotImplemented

    def __mul__(self, scalar) -> "SharedValue":
        if not isinstance(scalar, int):
            return NotImplemented
        return SharedValue(self.share0 * scalar, self.share1 * scalar)

    def __rmul__(self, scalar) -> "SharedValue":
        return self.__mul__(scalar)


#: Extra ring headroom beyond ``magnitude + kappa`` (see module doc).
MODULUS_MARGIN_BITS = 8


def modulus_bits_for(magnitude_bits: int, kappa: int) -> int:
    """Ring width for a session comparing ``magnitude_bits`` values at
    statistical security ``kappa``."""
    return magnitude_bits + kappa + MODULUS_MARGIN_BITS


class ShareSession:
    """One classification query's view of the share protocol.

    Wraps the session context (channel + rngs + trace) and the offline
    triple store; every method that crosses the wire does so through
    ``ctx.channel`` so bytes, messages and rounds are accounted -- and,
    with a transport attached, the shares genuinely cross a socket as
    ``TAG_SHARE`` elements.
    """

    def __init__(self, ctx: TwoPartyContext, store: TripleStore) -> None:
        self.ctx = ctx
        self.store = store
        self.modulus = store.modulus

    # -- local helpers -------------------------------------------------------

    def constant(self, value: int) -> SharedValue:
        """A public constant as a (deterministic) shared value."""
        modulus = self.modulus
        return SharedValue(
            share0=AdditiveShare(value % modulus, modulus),
            share1=AdditiveShare(0, modulus),
        )

    def _split(self, value: int, rng) -> tuple:
        """(own, other) uniform share pair of ``value`` drawn from the
        owner's rng."""
        modulus = self.modulus
        other = rng.randbelow(modulus)
        own = (value - other) % modulus
        return (
            AdditiveShare(own, modulus),
            AdditiveShare(other, modulus),
        )

    # -- input sharing -------------------------------------------------------

    def input_client(self, values: Sequence[int]) -> List[SharedValue]:
        """Client secret-shares its inputs; the server's share vector
        crosses the wire as one ``TAG_SHARE`` list."""
        pairs = [self._split(int(v), self.ctx.client_rng) for v in values]
        if pairs:
            delivered = self.ctx.channel.client_sends(
                [other for _, other in pairs]
            )
        else:
            delivered = []
        return [
            SharedValue(share0=own, share1=other)
            for (own, _), other in zip(pairs, delivered)
        ]

    def input_server(self, values: Sequence[int]) -> List[SharedValue]:
        """Server secret-shares its inputs (weights); the client's share
        vector crosses the wire as one ``TAG_SHARE`` list."""
        pairs = [self._split(int(v), self.ctx.server_rng) for v in values]
        if pairs:
            delivered = self.ctx.channel.server_sends(
                [other for _, other in pairs]
            )
        else:
            delivered = []
        return [
            SharedValue(share0=other, share1=own)
            for (own, _), other in zip(pairs, delivered)
        ]

    # -- openings ------------------------------------------------------------

    def open_batch(self, values: Sequence[SharedValue]) -> List[int]:
        """Open shared values to both parties (raw ring elements).

        Two messages for the whole batch: each party announces its
        share vector. Only values that are *designed* to be public
        (Beaver ``e``/``d`` differences, statistically masked
        comparison openings) may be opened this way.
        """
        if not values:
            return []
        client_half = self.ctx.channel.client_sends(
            [v.share0 for v in values]
        )
        server_half = self.ctx.channel.server_sends(
            [v.share1 for v in values]
        )
        modulus = self.modulus
        return [
            (c.value + s.value) % modulus
            for c, s in zip(client_half, server_half)
        ]

    def reveal_to_client(self, value: SharedValue, *, signed: bool = True) -> int:
        """Open a shared value to the client only.

        The server announces its share (one message); the client
        recombines locally, so the server learns nothing. ``signed``
        applies the centred decoding used for scores that may be
        negative.
        """
        server_share = self.ctx.channel.server_sends(value.share1)
        modulus = self.modulus
        raw = (value.share0.value + server_share.value) % modulus
        if signed and raw > modulus // 2:
            return raw - modulus
        return raw

    # -- multiplication ------------------------------------------------------

    def multiply_batch(
        self, xs: Sequence[SharedValue], ys: Sequence[SharedValue]
    ) -> List[SharedValue]:
        """Beaver-multiply componentwise, one opening round per batch.

        Drains ``len(xs)`` precomputed triples from the store (inline
        dealing surfaces as ``triples.misses``); all ``e = x - a`` and
        ``d = y - b`` differences are opened in a single two-message
        exchange regardless of batch size.
        """
        if len(xs) != len(ys):
            raise ShareProtocolError(
                f"length mismatch: {len(xs)} vs {len(ys)}"
            )
        if not xs:
            return []
        count = len(xs)
        firsts, seconds = self.store.take_triples(count, fallback=True)
        self.ctx.trace.count(Op.SHARE_MUL_TRIPLE, count)

        masked: List[SharedValue] = []
        for x, y, t0, t1 in zip(xs, ys, firsts, seconds):
            masked.append(SharedValue(x.share0 - t0.a, x.share1 - t1.a))
            masked.append(SharedValue(y.share0 - t0.b, y.share1 - t1.b))
        opened = self.open_batch(masked)

        modulus = self.modulus
        products: List[SharedValue] = []
        for i, (t0, t1) in enumerate(zip(firsts, seconds)):
            e, d = opened[2 * i], opened[2 * i + 1]
            z0 = (
                t0.c.value + e * t0.b.value + d * t0.a.value + e * d
            ) % modulus
            z1 = (t1.c.value + e * t1.b.value + d * t1.a.value) % modulus
            products.append(SharedValue(
                share0=AdditiveShare(z0, modulus),
                share1=AdditiveShare(z1, modulus),
            ))
        return products


@protocol_entry(span="shares.reveal")
def share_reveal_to_client(
    session: ShareSession, value: SharedValue, *, signed: bool = True
) -> int:
    """Protocol phase revealing one shared result to the client.

    The shares backend's ``reveal_score_to_client``: it hands one raw
    score to the client. The server only ever sends its own uniformly
    random share, so nothing about the client's features leaks back.
    """
    session.ctx.channel.reset_direction()
    return session.reveal_to_client(value, signed=signed)
