"""Offline precomputation for share-based protocols: the triple store.

The share backend's online phase costs integer adds/muls only because
every Beaver multiplication consumes *precomputed* correlated
randomness: one :class:`~repro.crypto.beaver.BeaverTriple` pair per
product and one :class:`~repro.crypto.beaver.ComparisonMask` pair per
comparison. :class:`TripleStore` is the stockpile -- the share-protocol
counterpart of :class:`repro.crypto.precompute.PrecomputedEncryptionPool`
-- filled by an explicit offline step (:meth:`TripleStore.refill`, which
the shares backend's ``prepare_offline`` calls) and drained by live
queries.

Accounting honesty mirrors the encryption pool: a strict ``take`` on an
empty store raises :class:`TripleStoreExhaustedError` rather than
silently dealing inline, so benchmarks separate setup cost from
per-query cost; callers that must not fail online (the serving path)
opt into ``fallback=True`` and the inline dealing is surfaced as a
``triples.misses`` / ``masks.misses`` telemetry counter.

An optional ``distribute`` hook receives every freshly dealt party-1
bundle and returns what "arrived" -- the shares backend uses it to push
each refill through the wire codec (and charge an offline trace), so
triple distribution exercises the same tagged wire elements as the
online openings.

Each stock (the triples, and the masks at each comparison magnitude)
is a :class:`~repro.crypto.stockpile.Stockpile`: dealing runs outside
its lock, so a refill never blocks the handler threads that share the
store and drain it.
"""

from __future__ import annotations

import functools
import threading
from typing import Callable, Dict, List, Optional, Tuple

import repro.telemetry as telemetry
from repro.crypto.beaver import BeaverTriple, ComparisonMask, TrustedDealer
from repro.crypto.stockpile import Stockpile

TriplePair = Tuple[BeaverTriple, BeaverTriple]
MaskPair = Tuple[ComparisonMask, ComparisonMask]


class TripleStoreExhaustedError(Exception):
    """Raised when a strict online take finds no precomputed material."""


class TripleStore:
    """A stock of ready Beaver triples and comparison masks.

    Parameters
    ----------
    dealer:
        The :class:`~repro.crypto.beaver.TrustedDealer` producing the
        correlated randomness; its modulus is the store's modulus.
    kappa:
        Statistical-security parameter passed through to comparison-mask
        dealing.
    distribute:
        Optional hook ``(kind, bundles) -> bundles`` applied to every
        freshly dealt party-1 list (``kind`` is ``"triples"`` or
        ``"masks"``); the returned bundles are what the store keeps.

    Thread safety: ``remaining_triples``, ``remaining_masks``,
    ``refill``, ``take_triples`` and ``take_masks`` may be called
    concurrently; every dealt pair is handed out exactly once.
    """

    def __init__(
        self,
        dealer: TrustedDealer,
        *,
        kappa: int = 40,
        distribute: Optional[Callable[[str, list], list]] = None,
    ) -> None:
        self._dealer = dealer
        self._kappa = kappa
        self._distribute = distribute
        self._triples: Stockpile[TriplePair] = Stockpile(
            self._deal_triples, metric="triples"
        )
        self._masks: Dict[int, Stockpile[MaskPair]] = {}
        self._masks_lock = threading.Lock()

    @property
    def modulus(self) -> int:
        """The ring every stored share lives in."""
        return self._dealer.modulus

    @property
    def remaining_triples(self) -> int:
        """Beaver multiplications the store can still serve."""
        return self._triples.remaining

    def remaining_masks(self, bit_length: int) -> int:
        """Comparisons at ``bit_length`` the store can still serve."""
        return self._mask_stock(bit_length).remaining

    @property
    def total_dealt(self) -> Tuple[int, int]:
        """(triples, masks) ever dealt -- offline-work accounting."""
        with self._masks_lock:
            mask_stocks = list(self._masks.values())
        return (
            self._triples.total_produced,
            sum(stock.total_produced for stock in mask_stocks),
        )

    # -- production ----------------------------------------------------------

    def _deal_triples(self, count: int) -> List[TriplePair]:
        firsts, seconds = self._dealer.triples(count)
        return list(zip(firsts, self._ship("triples", seconds)))

    def _deal_masks(self, bit_length: int, count: int) -> List[MaskPair]:
        firsts, seconds = self._dealer.comparison_masks(
            count, bit_length, self._kappa
        )
        return list(zip(firsts, self._ship("masks", seconds)))

    def _mask_stock(self, bit_length: int) -> Stockpile[MaskPair]:
        """The (lazily created) mask stock for one comparison magnitude."""
        with self._masks_lock:
            stock = self._masks.get(bit_length)
            if stock is None:
                stock = Stockpile(
                    functools.partial(self._deal_masks, bit_length),
                    metric="masks",
                )
                self._masks[bit_length] = stock
            return stock

    def _ship(self, kind: str, bundles: list) -> list:
        """Run freshly dealt party-1 bundles through the distribute hook."""
        if self._distribute is None:
            return bundles
        return self._distribute(kind, bundles)

    # -- offline phase -------------------------------------------------------

    def refill(self, triples: int = 0, masks: int = 0,
               mask_bits: Optional[int] = None) -> None:
        """Offline phase: deal more correlated randomness.

        ``mask_bits`` is the comparison magnitude the masks are dealt
        for and is required whenever ``masks > 0``.
        """
        if triples < 0 or masks < 0:
            raise ValueError(
                f"refill counts must be non-negative, got "
                f"triples={triples} masks={masks}"
            )
        if masks and mask_bits is None:
            raise ValueError("mask refill needs an explicit mask_bits")
        self._triples.refill(triples)
        if masks:
            self._mask_stock(mask_bits).refill(masks)

    # -- online phase --------------------------------------------------------

    def take_triples(
        self, count: int, *, fallback: bool = False
    ) -> Tuple[List[BeaverTriple], List[BeaverTriple]]:
        """Pop ``count`` triple pairs, as two per-party lists.

        With ``fallback=False`` (the strict default) an insufficient
        stock raises :class:`TripleStoreExhaustedError` and keeps what
        it has; with ``fallback=True`` the deficit is dealt inline and
        counted as ``triples.misses`` so the skipped offline work stays
        visible.
        """
        return self._take(
            self._triples, "triples", count, fallback,
            f"asked for {count} triples",
            "call refill() for more offline work or pass fallback=True "
            "to deal inline (counted as misses)",
        )

    def take_masks(
        self, count: int, bit_length: int, *, fallback: bool = False
    ) -> Tuple[List[ComparisonMask], List[ComparisonMask]]:
        """Pop ``count`` comparison-mask pairs for ``bit_length``.

        Strict/fallback semantics match :meth:`take_triples`, with
        misses surfacing as ``masks.misses``.
        """
        return self._take(
            self._mask_stock(bit_length), "masks", count, fallback,
            f"asked for {count} comparison masks at {bit_length} bits",
            f"call refill(masks=..., mask_bits={bit_length}) for more "
            f"offline work or pass fallback=True",
        )

    @staticmethod
    def _take(stock: Stockpile, kind: str, count: int, fallback: bool,
              asked: str, hint: str) -> Tuple[list, list]:
        pairs = stock.take(count, partial=fallback)
        deficit = count - len(pairs)
        if deficit and not fallback:
            raise TripleStoreExhaustedError(
                f"triple store exhausted: {asked} but only "
                f"{stock.remaining} of {stock.total_produced} dealt "
                f"remain; {hint}"
            )
        if deficit:
            telemetry.count(f"{kind}.misses", deficit)
            pairs = pairs + stock.produce(deficit)
        return [pair[0] for pair in pairs], [pair[1] for pair in pairs]
