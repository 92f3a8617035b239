"""One stockpile of precomputed material.

Both offline phases in this package have the same shape: material that
is expensive to make -- Paillier blinding factors
(:class:`repro.crypto.precompute.PrecomputedEncryptionPool`), Beaver
triples and comparison masks (:class:`repro.crypto.triples.TripleStore`)
-- is produced ahead of time, stocked, and drained by live queries.
:class:`Stockpile` is that shape, once: a locked list that an explicit
offline step (:meth:`Stockpile.refill`) fills and handler threads
drain, plus a ``produce`` callback that makes ``count`` new items. The
pool and the store are thin adapters over it that add their own
production and exhaustion policy: a take the stock cannot cover is the
adapter's miss.

Production always runs *outside* the lock; the lock is held only to
append a finished batch or to pop a take, so online takes never wait on
the expensive part. Telemetry: ``<metric>.refilled`` counts items
produced for the stock and ``<metric>.hits`` items handed out of it;
the adapters count their own ``<metric>.misses``.
"""

from __future__ import annotations

import threading
from typing import Callable, Generic, List, TypeVar

import repro.telemetry as telemetry

T = TypeVar("T")


class Stockpile(Generic[T]):
    """A thread-safe stock of items made by ``produce(count)``.

    Parameters
    ----------
    produce:
        Makes ``count`` fresh items; called without the lock held, from
        whichever thread refills or produces.
    metric:
        Telemetry counter prefix (``"precompute"``, ``"triples"``, ...).
    """

    def __init__(
        self, produce: Callable[[int], List[T]], *, metric: str
    ) -> None:
        self._produce = produce
        self._metric = metric
        self._items: List[T] = []
        self._total_produced = 0
        self._lock = threading.Lock()

    @property
    def remaining(self) -> int:
        """Items in stock."""
        with self._lock:
            return len(self._items)

    @property
    def total_produced(self) -> int:
        """Items ever produced, stocked or handed out directly by
        :meth:`produce` (offline-work accounting)."""
        with self._lock:
            return self._total_produced

    def refill(self, count: int) -> None:
        """Offline phase: produce ``count`` more items into the stock."""
        if count < 0:
            raise ValueError(f"refill count must be non-negative, got {count}")
        if count == 0:
            return
        telemetry.count(f"{self._metric}.refilled", count)
        items = self._produce(count)
        with self._lock:
            self._items.extend(items)
            self._total_produced += len(items)

    def produce(self, count: int) -> List[T]:
        """Produce ``count`` items for immediate use, bypassing the stock
        (a caller paying offline work online, e.g. on depletion)."""
        items = self._produce(count)
        with self._lock:
            self._total_produced += len(items)
        return items

    def take(self, count: int, *, partial: bool = True) -> List[T]:
        """Pop up to ``count`` items in one locked operation.

        With ``partial=False`` a stock short of ``count`` hands out
        nothing and keeps what it has.
        """
        if count < 0:
            raise ValueError(f"cannot take {count} items")
        if count == 0:
            return []
        with self._lock:
            keep = len(self._items) - count
            if keep < 0:
                keep = 0 if partial else len(self._items)
            taken = self._items[keep:]
            del self._items[keep:]
        if taken:
            telemetry.count(f"{self._metric}.hits", len(taken))
        return taken
