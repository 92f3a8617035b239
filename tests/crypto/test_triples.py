"""The offline triple store: depletion honesty and background refill.

The store's contract mirrors the precomputed-encryption pool: a strict
online take must *fail loudly* on an empty stockpile (benchmarks
separate offline from online work), a fallback take must deal inline
and surface the miss, and the background refiller must keep a drained
store stocked while concurrent takers hammer it.
"""

import threading
import time

import pytest

from repro.crypto.beaver import TrustedDealer
from repro.crypto.rand import fresh_rng
from repro.crypto.triples import TripleStore, TripleStoreExhaustedError

MOD = 1 << 64
BITS = 12


@pytest.fixture()
def store():
    dealer = TrustedDealer(rng=fresh_rng(400), modulus=MOD)
    return TripleStore(dealer, kappa=40)


class TestDepletion:
    def test_strict_take_on_empty_store_raises(self, store):
        with pytest.raises(TripleStoreExhaustedError):
            store.take_triples(1)
        with pytest.raises(TripleStoreExhaustedError):
            store.take_masks(1, BITS)

    def test_strict_partial_shortfall_rolls_back(self, store):
        """A failed oversubscribed take must not eat the partial stock."""
        store.refill(triples=3, masks=2, mask_bits=BITS)
        with pytest.raises(TripleStoreExhaustedError):
            store.take_triples(5)
        assert store.remaining_triples == 3
        with pytest.raises(TripleStoreExhaustedError):
            store.take_masks(4, BITS)
        assert store.remaining_masks(BITS) == 2

    def test_fallback_deals_the_deficit_inline(self, store):
        store.refill(triples=2)
        firsts, seconds = store.take_triples(5, fallback=True)
        assert len(firsts) == len(seconds) == 5
        assert store.remaining_triples == 0
        assert store.total_dealt[0] == 5  # 2 offline + 3 inline misses

    def test_taken_triples_satisfy_the_beaver_identity(self, store):
        store.refill(triples=4)
        firsts, seconds = store.take_triples(4)
        for first, second in zip(firsts, seconds):
            a = (first.a.value + second.a.value) % MOD
            b = (first.b.value + second.b.value) % MOD
            c = (first.c.value + second.c.value) % MOD
            assert c == a * b % MOD

    def test_bad_counts_rejected(self, store):
        with pytest.raises(ValueError):
            store.take_triples(-1)
        with pytest.raises(ValueError):
            store.refill(triples=-2)
        with pytest.raises(ValueError):
            store.refill(masks=1)  # mask_bits is mandatory for masks


class TestBackgroundRefill:
    def test_refiller_restocks_a_drained_store(self, store):
        store.refill(triples=10)
        store.start_background_refill(low_water=8, batch=20)
        try:
            store.take_triples(9)  # drop below the low-water mark
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if store.remaining_triples >= 8:
                    break
                time.sleep(0.01)
            assert store.remaining_triples >= 8
        finally:
            store.stop_background_refill()

    def test_concurrent_drain_never_fails_and_restocks(self, store):
        """Four threads drain with fallback while the refiller tops up:
        every take succeeds, the stock ends above the low-water mark
        once the burst is over, and accounting balances. The balance is
        read after the refiller has stopped: while it runs, a batch can
        land between the two reads."""
        per_thread, takers = 30, 4
        store.refill(triples=40)
        store.start_background_refill(
            low_water=16, batch=48, mask_bits=BITS, mask_low_water=4
        )
        errors = []

        def drain():
            try:
                for _ in range(per_thread):
                    firsts, seconds = store.take_triples(2, fallback=True)
                    assert len(firsts) == len(seconds) == 2
                    masks, _ = store.take_masks(1, BITS, fallback=True)
                    assert len(masks) == 1
            except Exception as error:  # surfaced by the main thread
                errors.append(error)

        try:
            threads = [threading.Thread(target=drain) for _ in range(takers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if (store.remaining_triples >= 16
                        and store.remaining_masks(BITS) >= 4):
                    break
                time.sleep(0.01)
            assert store.remaining_triples >= 16
            assert store.remaining_masks(BITS) >= 4
        finally:
            store.stop_background_refill()
        consumed = takers * per_thread * 2
        dealt, masks_dealt = store.total_dealt
        assert dealt == consumed + store.remaining_triples
        assert masks_dealt == takers * per_thread + store.remaining_masks(BITS)

    def test_stop_is_idempotent_and_restartable(self, store):
        store.start_background_refill(low_water=2)
        store.stop_background_refill()
        store.stop_background_refill()  # no-op on a stopped store
        store.start_background_refill(low_water=2)
        store.stop_background_refill()

    def test_low_water_must_be_positive(self, store):
        with pytest.raises(ValueError):
            store.start_background_refill(low_water=0)
