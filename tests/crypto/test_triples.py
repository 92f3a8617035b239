"""The offline triple store: depletion honesty.

The store's contract mirrors the precomputed-encryption pool: a strict
online take must *fail loudly* on an empty stockpile (benchmarks
separate offline from online work), and a fallback take must deal
inline and surface the miss. Concurrent takers racing a refill are
covered once, on the shared stockpile (``test_stockpile.py``).
"""

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
