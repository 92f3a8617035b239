"""Tests for the Paillier precomputation pool."""

import threading
import time

import pytest

from repro.crypto.precompute import PoolExhaustedError, PrecomputedEncryptionPool
from repro.crypto.rand import fresh_rng


class TestCorrectness:
    def test_pool_encryptions_decrypt(self, paillier_keys):
        pool = PrecomputedEncryptionPool(
            paillier_keys.public_key, size=5, rng=fresh_rng(1)
        )
        for value in (0, 42, -17, 123456):
            ct = pool.encrypt(value)
            assert paillier_keys.private_key.decrypt(ct) == value

    def test_pool_ciphertexts_compose_homomorphically(self, paillier_keys):
        pool = PrecomputedEncryptionPool(
            paillier_keys.public_key, size=2, rng=fresh_rng(2)
        )
        total = pool.encrypt(10) + pool.encrypt(32)
        assert paillier_keys.private_key.decrypt(total) == 42

    def test_distinct_factors_used(self, paillier_keys):
        pool = PrecomputedEncryptionPool(
            paillier_keys.public_key, size=2, rng=fresh_rng(3)
        )
        a = pool.encrypt(7)
        b = pool.encrypt(7)
        assert a.value != b.value  # each factor used once


class TestPoolManagement:
    def test_remaining_counts_down(self, paillier_keys):
        pool = PrecomputedEncryptionPool(
            paillier_keys.public_key, size=3, rng=fresh_rng(4)
        )
        assert pool.remaining == 3
        pool.encrypt(1)
        assert pool.remaining == 2

    def test_exhaustion_raises(self, paillier_keys):
        pool = PrecomputedEncryptionPool(
            paillier_keys.public_key, size=1, rng=fresh_rng(5)
        )
        pool.encrypt(1)
        with pytest.raises(PoolExhaustedError):
            pool.encrypt(2)

    def test_refill(self, paillier_keys):
        pool = PrecomputedEncryptionPool(
            paillier_keys.public_key, rng=fresh_rng(6)
        )
        pool.refill(4)
        assert pool.remaining == 4
        with pytest.raises(ValueError):
            pool.refill(-1)


class TestThreadSafety:
    def test_exhaustion_message_includes_pool_size(self, paillier_keys):
        pool = PrecomputedEncryptionPool(
            paillier_keys.public_key, size=3, rng=fresh_rng(31)
        )
        for i in range(3):
            pool.encrypt(i)
        with pytest.raises(PoolExhaustedError, match="0 of 3"):
            pool.encrypt(99)

    def test_concurrent_drain_uses_each_factor_once(self, paillier_keys):
        count = 40
        pool = PrecomputedEncryptionPool(
            paillier_keys.public_key, size=count, rng=fresh_rng(32)
        )
        results, errors = [], []
        lock = threading.Lock()

        def drain():
            while True:
                try:
                    ct = pool.encrypt(7)
                except PoolExhaustedError:
                    return
                except Exception as exc:  # pragma: no cover - diagnostic
                    with lock:
                        errors.append(exc)
                    return
                with lock:
                    results.append(ct.value)

        threads = [threading.Thread(target=drain) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Every factor served exactly one encryption: all ciphertexts
        # distinct, pool empty, nothing lost to races.
        assert len(results) == count
        assert len(set(results)) == count
        assert pool.remaining == 0

    def test_concurrent_refill_and_drain(self, paillier_keys):
        pool = PrecomputedEncryptionPool(
            paillier_keys.public_key, size=10, rng=fresh_rng(33)
        )
        stop = threading.Event()

        def refiller():
            while not stop.is_set():
                pool.refill(2)

        thread = threading.Thread(target=refiller)
        thread.start()
        try:
            served = 0
            for i in range(50):
                try:
                    pool.encrypt(i)
                    served += 1
                except PoolExhaustedError:
                    pass
            assert served > 0
        finally:
            stop.set()
            thread.join()
        assert pool.total_precomputed >= 10


class TestSpeed:
    def test_online_faster_than_full(self, paillier_keys):
        pool = PrecomputedEncryptionPool(
            paillier_keys.public_key, size=50, rng=fresh_rng(8)
        )
        start = time.perf_counter()
        for i in range(50):
            pool.encrypt(i)
        pooled = time.perf_counter() - start

        rng = fresh_rng(9)
        start = time.perf_counter()
        for i in range(50):
            paillier_keys.public_key.encrypt(i, rng=rng)
        full = time.perf_counter() - start
        assert pooled < full  # typically 10-100x at real key sizes


class TestRefillStrategies:
    """All three refill strategies must produce well-formed blinding
    factors: every pooled ciphertext decrypts correctly."""

    def test_unknown_strategy_rejected(self, paillier_keys):
        with pytest.raises(ValueError, match="unknown refill strategy"):
            PrecomputedEncryptionPool(
                paillier_keys.public_key, strategy="quantum"
            )

    def test_crt_needs_private_key(self, paillier_keys):
        from repro.crypto.paillier import PaillierError
        with pytest.raises(PaillierError, match="private key"):
            PrecomputedEncryptionPool(
                paillier_keys.public_key, strategy="crt"
            )

    def test_mismatched_private_key_rejected(self, paillier_keys):
        from repro.crypto.paillier import PaillierError, PaillierKeyPair
        other = PaillierKeyPair.generate(key_bits=256, rng=fresh_rng(900))
        with pytest.raises(PaillierError, match="match"):
            PrecomputedEncryptionPool(
                paillier_keys.public_key,
                private_key=other.private_key,
            )

    def test_auto_selects_crt_with_private_key(self, paillier_keys):
        pool = PrecomputedEncryptionPool(
            paillier_keys.public_key,
            private_key=paillier_keys.private_key,
            rng=fresh_rng(901),
        )
        assert pool.strategy == "crt"

    def test_auto_selects_pow_without_private_key(self, paillier_keys):
        pool = PrecomputedEncryptionPool(
            paillier_keys.public_key, rng=fresh_rng(902)
        )
        assert pool.strategy == "pow"

    def test_crt_factors_bit_equal_to_pow_factors(self, paillier_keys):
        # Same rng seed => same nonces; the CRT split must reproduce the
        # full-width exponentiation bit for bit.
        pow_pool = PrecomputedEncryptionPool(
            paillier_keys.public_key, size=6, rng=fresh_rng(903),
            strategy="pow",
        )
        crt_pool = PrecomputedEncryptionPool(
            paillier_keys.public_key, size=6, rng=fresh_rng(903),
            private_key=paillier_keys.private_key, strategy="crt",
        )
        assert pow_pool.take_factors(6) == crt_pool.take_factors(6)

    def test_crt_refill_on_engine_matches_pow_refill(self, paillier_keys):
        # The "crt" refill runs the key owner's nonce kernel on the
        # engine's backend; it must still equal the "pow" refill.
        from repro.crypto.engine import CryptoEngine
        engine = CryptoEngine()
        pow_pool = PrecomputedEncryptionPool(
            paillier_keys.public_key, size=12, rng=fresh_rng(904),
            engine=engine, strategy="pow",
        )
        crt_pool = PrecomputedEncryptionPool(
            paillier_keys.public_key, size=12, rng=fresh_rng(904),
            private_key=paillier_keys.private_key, engine=engine,
            strategy="crt",
        )
        assert pow_pool.take_factors(12) == crt_pool.take_factors(12)

    @pytest.mark.parametrize("strategy", ["pow", "crt", "fixed-base"])
    def test_strategy_ciphertexts_decrypt(self, paillier_keys, strategy):
        kwargs = {}
        if strategy == "crt":
            kwargs["private_key"] = paillier_keys.private_key
        pool = PrecomputedEncryptionPool(
            paillier_keys.public_key, size=4, rng=fresh_rng(904),
            strategy=strategy, **kwargs,
        )
        for value in (0, 42, -17, 123456):
            ct = pool.encrypt(value)
            assert paillier_keys.private_key.decrypt(ct) == value

    def test_fixed_base_factors_are_valid_nth_powers(self, paillier_keys):
        # fixed-base factors are (g^k)^n: confirm each equals r^n for
        # the implied nonce r = g^k mod n, i.e. a legitimate factor.
        pool = PrecomputedEncryptionPool(
            paillier_keys.public_key, size=3, rng=fresh_rng(905),
            strategy="fixed-base",
        )
        n = paillier_keys.public_key.n
        n_sq = paillier_keys.public_key.n_squared
        g = pool.fixed_base_generator
        factors = pool.take_factors(3)
        assert len(factors) == 3
        for factor in factors:
            assert 0 < factor < n_sq
            # Membership in the subgroup of n-th powers: factor^lambda
            # == 1 mod n^2 iff factor = r^n for some r coprime to n.
            lam = (paillier_keys.private_key.p - 1) * (
                paillier_keys.private_key.q - 1
            )
            assert pow(factor, lam, n_sq) == 1
        assert 1 < g < n


class TestTakeFactors:
    def test_take_factors_pops_up_to_count(self, paillier_keys):
        pool = PrecomputedEncryptionPool(
            paillier_keys.public_key, size=5, rng=fresh_rng(906)
        )
        first = pool.take_factors(3)
        assert len(first) == 3
        assert pool.remaining == 2
        rest = pool.take_factors(10)  # only 2 left; shortfall allowed
        assert len(rest) == 2
        assert pool.remaining == 0
        assert pool.take_factors(1) == []
        assert not set(first) & set(rest)

    def test_take_factors_rejects_negative(self, paillier_keys):
        pool = PrecomputedEncryptionPool(
            paillier_keys.public_key, size=1, rng=fresh_rng(907)
        )
        with pytest.raises(ValueError):
            pool.take_factors(-1)

    def test_engine_fanout_matches_serial_refill(self, paillier_keys):
        from repro.crypto.engine import CryptoEngine
        serial = PrecomputedEncryptionPool(
            paillier_keys.public_key, size=4, rng=fresh_rng(908)
        )
        engine = CryptoEngine(modexp="python")
        fanned = PrecomputedEncryptionPool(
            paillier_keys.public_key, size=4, rng=fresh_rng(908),
            engine=engine,
        )
        assert serial.take_factors(4) == fanned.take_factors(4)
