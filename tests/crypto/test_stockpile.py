"""The one stockpile behind the encryption pool and the triple store.

A cheap counting producer makes every item unique, so the tests can
check the two invariants the adapters rely on: an item is handed out at
most once, and ``total_produced`` always equals what was handed out
plus what is still in stock -- under concurrent takers and a background
refiller alike.
"""

import itertools
import sys
import threading
import time

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
        with pytest.raises(ValueError):
            stock.start_background_refill(low_water=0)


class TestConcurrency:
    def test_takers_and_refiller_never_share_or_lose_an_item(self):
        """Eight takers (more than the cores) race the refiller with a
        tiny switch interval: no item is handed out twice, the
        accounting balances, and the stock ends restocked."""
        stock = _counting_stockpile()
        stock.refill(16)
        taken, errors = [], []
        taken_lock = threading.Lock()

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

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        stock.start_background_refill(low_water=8, batch=24)
        try:
            threads = [threading.Thread(target=drain) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert len(taken) == 8 * 200 * 3
            assert len(set(taken)) == len(taken)
            deadline = time.monotonic() + 5.0
            while stock.remaining < 8 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert stock.remaining >= 8
        finally:
            stock.stop_background_refill()
            sys.setswitchinterval(interval)
        assert stock.total_produced == len(taken) + stock.remaining
