"""One stockpile of precomputed material, with background refill.

Both offline phases in this package have the same shape: material that
is expensive to make -- Paillier blinding factors
(:class:`repro.crypto.precompute.PrecomputedEncryptionPool`), Beaver
triples and comparison masks (:class:`repro.crypto.triples.TripleStore`)
-- is produced ahead of time, stocked, and drained by live queries.
:class:`Stockpile` is that shape, once: a locked list, a ``produce``
callback that makes ``count`` new items, a low-water mark, and an
optional daemon thread that tops the stock up whenever a take leaves it
below the mark. The pool and the store are thin adapters over it that
add their own production and exhaustion policy.

Production always runs *outside* the lock; the lock is held only to
append a finished batch or to pop a take, so online takes never wait on
the expensive part. Telemetry: ``<metric>.refilled`` counts items
produced for the stock and ``<metric>.hits`` items handed out of it;
the adapters count their own ``<metric>.misses``.
"""

from __future__ import annotations

import threading
from typing import Callable, Generic, List, Optional, TypeVar

import repro.telemetry as telemetry

T = TypeVar("T")


class Stockpile(Generic[T]):
    """A thread-safe stock of items made by ``produce(count)``.

    Parameters
    ----------
    produce:
        Makes ``count`` fresh items; called without the lock held, from
        whichever thread refills (a caller, or the background refiller).
    metric:
        Telemetry counter prefix (``"precompute"``, ``"triples"``, ...);
        also names the refiller thread (``"<metric>-refiller"``).
    """

    def __init__(
        self, produce: Callable[[int], List[T]], *, metric: str
    ) -> None:
        self._produce = produce
        self._metric = metric
        self._items: List[T] = []
        self._total_produced = 0
        self._lock = threading.Lock()
        self._refill_needed = threading.Condition(self._lock)
        self._refiller: Optional[threading.Thread] = None
        self._refiller_stop = False
        self._low_water = 0
        self._refill_batch = 0

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
        nothing and keeps what it has. Either way a take that leaves the
        stock below the low-water mark wakes the background refiller.
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
            if len(self._items) < self._low_water:
                self._refill_needed.notify()
        if taken:
            telemetry.count(f"{self._metric}.hits", len(taken))
        return taken

    # -- background refill ---------------------------------------------------

    def start_background_refill(self, low_water: int, batch: int = 0) -> None:
        """Keep the stock topped up from a daemon thread.

        Whenever a take leaves fewer than ``low_water`` items, the
        refiller produces back up to ``batch`` (default
        ``2 * low_water``). Idempotent (a second call only updates the
        marks); :meth:`stop_background_refill` shuts the thread down,
        and it dies with the process either way.
        """
        if low_water <= 0:
            raise ValueError(f"low_water must be positive, got {low_water}")
        with self._lock:
            self._low_water = low_water
            self._refill_batch = batch if batch > 0 else 2 * low_water
            if self._refiller is not None and self._refiller.is_alive():
                return
            self._refiller_stop = False
            self._refiller = threading.Thread(
                target=self._refill_loop,
                name=f"{self._metric}-refiller",
                daemon=True,
            )
            self._refiller.start()

    def stop_background_refill(self, timeout: float = 5.0) -> None:
        """Stop the refiller thread and wait for it to exit."""
        with self._lock:
            if self._refiller is None:
                return
            self._refiller_stop = True
            self._refill_needed.notify_all()
            thread = self._refiller
        thread.join(timeout=timeout)
        with self._lock:
            self._refiller = None

    def _refill_loop(self) -> None:
        while True:
            with self._lock:
                while (
                    not self._refiller_stop
                    and len(self._items) >= self._low_water
                ):
                    # Re-check periodically too: a burst may drain the
                    # stock between the notify and this thread waking.
                    self._refill_needed.wait(timeout=0.1)
                if self._refiller_stop:
                    return
                deficit = self._refill_batch - len(self._items)
            self.refill(max(deficit, 1))
