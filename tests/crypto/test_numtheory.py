"""Unit and property tests for number-theoretic primitives."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import numtheory as nt
from repro.crypto.rand import fresh_rng


class TestIsProbablePrime:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 11, 13, 97, 101, 7919):
            assert nt.is_probable_prime(p)

    def test_small_composites(self):
        for c in (0, 1, 4, 6, 9, 15, 91, 561, 1105, 7917):
            assert not nt.is_probable_prime(c)

    def test_negative_numbers(self):
        assert not nt.is_probable_prime(-7)

    def test_carmichael_numbers_rejected(self):
        # Classic Fermat pseudoprimes that Miller-Rabin must catch.
        for carmichael in (561, 1105, 1729, 2465, 2821, 6601, 8911):
            assert not nt.is_probable_prime(carmichael)

    def test_large_known_prime(self):
        assert nt.is_probable_prime(2**127 - 1)  # Mersenne prime

    def test_large_known_composite(self):
        assert not nt.is_probable_prime(2**128 - 1)

    @given(st.integers(min_value=2, max_value=100_000))
    @settings(max_examples=200)
    def test_agrees_with_trial_division(self, n):
        by_trial = n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))
        assert nt.is_probable_prime(n) == by_trial


class TestGeneratePrime:
    def test_bit_length_exact(self):
        rng = fresh_rng(1)
        for bits in (16, 32, 64, 128):
            p = nt.generate_prime(bits, rng=rng)
            assert p.bit_length() == bits
            assert nt.is_probable_prime(p)

    @given(
        seed=st.integers(0, 2**32),
        bits=st.one_of(
            st.integers(3, 64), st.sampled_from((66, 96, 128, 129, 192, 256))
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_proven_primes_have_top_two_bits(self, seed, bits):
        p = nt.generate_prime(bits, rng=fresh_rng(seed))
        assert p.bit_length() == bits
        assert p >> (bits - 2) == 0b11
        # An independent 40-round Miller-Rabin agrees with the proof.
        assert nt.is_probable_prime(p, rng=fresh_rng(seed + 1))

    def test_rejects_tiny_bit_length(self):
        with pytest.raises(ValueError):
            nt.generate_prime(2)

class TestNextPrime:
    def test_known_values(self):
        assert nt.next_prime(1) == 2
        assert nt.next_prime(2) == 3
        assert nt.next_prime(10) == 11
        assert nt.next_prime(13) == 17
        assert nt.next_prime(1 << 16) == 65537

    def test_result_exceeds_input(self):
        for n in (5, 100, 1000):
            assert nt.next_prime(n) > n


class TestModularArithmetic:
    def test_modinv_basic(self):
        assert (3 * nt.modinv(3, 11)) % 11 == 1
        assert (17 * nt.modinv(17, 3120)) % 3120 == 1

    def test_modinv_missing_raises(self):
        with pytest.raises(ValueError, match="no inverse"):
            nt.modinv(6, 9)

    @given(st.integers(2, 10_000), st.integers(2, 10_000))
    @settings(max_examples=100)
    def test_modinv_property(self, a, m):
        if math.gcd(a, m) == 1:
            assert (a * nt.modinv(a, m)) % m == 1

    def test_lcm(self):
        assert nt.lcm(4, 6) == 12
        assert nt.lcm(7, 13) == 91


class TestCrt:
    def test_two_congruences(self):
        x = nt.crt([2, 3], [3, 5])
        assert x % 3 == 2 and x % 5 == 3

    def test_three_congruences(self):
        x = nt.crt([1, 2, 3], [5, 7, 11])
        assert x % 5 == 1 and x % 7 == 2 and x % 11 == 3

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            nt.crt([1, 2], [3])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            nt.crt([], [])

    @given(
        st.integers(0, 10**6),
    )
    @settings(max_examples=50)
    def test_roundtrip(self, x):
        moduli = [101, 103, 107]
        residues = [x % m for m in moduli]
        product = 101 * 103 * 107
        assert nt.crt(residues, moduli) == x % product


class TestIntegerSqrt:
    @given(st.integers(0, 10**12))
    @settings(max_examples=100)
    def test_floor_property(self, n):
        r = nt.integer_sqrt(n)
        assert r * r <= n < (r + 1) * (r + 1)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            nt.integer_sqrt(-1)
