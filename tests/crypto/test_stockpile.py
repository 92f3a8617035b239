"""The one stockpile behind the encryption pool and the triple store.

A cheap counting producer makes every item unique, so the tests can
check the two invariants the adapters rely on: an item is handed out at
most once, and ``total_produced`` always equals what was handed out
plus what is still in stock -- also while handler threads drain the
stock and another thread refills it.
"""

import itertools
import sys
import threading

import pytest

from repro.crypto.stockpile import Stockpile


def _counting_stockpile():
    counter = itertools.count()
    lock = threading.Lock()

    def produce(count):
        with lock:
            return [next(counter) for _ in range(count)]

    return Stockpile(produce, metric="test")


class TestTake:
    def test_partial_take_hands_out_what_is_there(self):
        stock = _counting_stockpile()
        stock.refill(3)
        assert len(stock.take(5)) == 3
        assert stock.remaining == 0
        assert stock.take(1) == []

    def test_all_or_nothing_take_keeps_a_short_stock(self):
        stock = _counting_stockpile()
        stock.refill(3)
        assert stock.take(5, partial=False) == []
        assert stock.remaining == 3
        assert len(stock.take(3, partial=False)) == 3

    def test_produce_bypasses_the_stock_but_is_accounted(self):
        stock = _counting_stockpile()
        stock.refill(2)
        assert len(stock.produce(4)) == 4
        assert stock.remaining == 2
        assert stock.total_produced == 6

    def test_bad_counts_rejected(self):
        stock = _counting_stockpile()
        with pytest.raises(ValueError):
            stock.take(-1)
        with pytest.raises(ValueError):
            stock.refill(-1)


class TestConcurrency:
    def test_takers_and_refiller_never_share_or_lose_an_item(self):
        """Eight takers (more than the cores) race a thread calling
        ``refill()`` with a tiny switch interval -- the shares server's
        pattern: handler threads drain one store, falling back to
        ``produce`` on a short take, while an offline step restocks it.
        No item is handed out twice and the accounting balances."""
        stock = _counting_stockpile()
        stock.refill(16)
        taken, errors = [], []
        taken_lock = threading.Lock()
        done = threading.Event()

        def drain():
            try:
                for _ in range(200):
                    items = stock.take(3)
                    if len(items) < 3:
                        items += stock.produce(3 - len(items))
                    with taken_lock:
                        taken.extend(items)
            except Exception as error:  # surfaced by the main thread
                errors.append(error)

        def restock():
            while not done.is_set():
                stock.refill(8)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            refiller = threading.Thread(target=restock)
            refiller.start()
            threads = [threading.Thread(target=drain) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            done.set()
            refiller.join(timeout=60)
            assert not any(t.is_alive() for t in [*threads, refiller])
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(taken) == 8 * 200 * 3
        assert len(set(taken)) == len(taken)
        assert stock.total_produced == len(taken) + stock.remaining
