"""Unit and property tests for the Paillier cryptosystem."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import paillier
from repro.crypto.engine import CryptoEngine
from repro.crypto.modexp import gmpy2_available, resolve_backend
from repro.crypto.numtheory import generate_prime
from repro.crypto.paillier import PaillierError, PaillierKeyPair
from repro.crypto.rand import fresh_rng

small_ints = st.integers(min_value=-(10**9), max_value=10**9)


class TestKeyGeneration:
    def test_modulus_bit_length(self, paillier_keys):
        assert paillier_keys.public_key.key_bits == 384

    def test_distinct_keys_from_distinct_seeds(self):
        a = PaillierKeyPair.generate(key_bits=256, rng=fresh_rng(1))
        b = PaillierKeyPair.generate(key_bits=256, rng=fresh_rng(2))
        assert a.public_key.n != b.public_key.n

    def test_same_seed_same_key(self):
        a = PaillierKeyPair.generate(key_bits=256, rng=fresh_rng(9))
        b = PaillierKeyPair.generate(key_bits=256, rng=fresh_rng(9))
        assert a.public_key.n == b.public_key.n

    def test_every_prime_pair_gives_a_full_width_modulus(self, monkeypatch):
        calls = []

        def counting_generate_prime(bits, rng=None):
            calls.append(bits)
            return generate_prime(bits, rng=rng)

        monkeypatch.setattr(paillier, "generate_prime", counting_generate_prime)
        for seed in range(200):
            del calls[:]
            keys = PaillierKeyPair.generate(key_bits=512, rng=fresh_rng(seed))
            assert keys.public_key.n.bit_length() == 512
            assert calls == [256, 256]

    def test_odd_key_bits_rejected(self):
        with pytest.raises(ValueError, match="even"):
            PaillierKeyPair.generate(key_bits=129, rng=fresh_rng(1))


class TestEncryptDecrypt:
    def test_roundtrip_positive(self, paillier_keys):
        rng = fresh_rng(10)
        ct = paillier_keys.public_key.encrypt(123456, rng=rng)
        assert paillier_keys.private_key.decrypt(ct) == 123456

    def test_roundtrip_negative(self, paillier_keys):
        rng = fresh_rng(11)
        ct = paillier_keys.public_key.encrypt(-987654, rng=rng)
        assert paillier_keys.private_key.decrypt(ct) == -987654

    def test_roundtrip_zero(self, paillier_keys):
        rng = fresh_rng(12)
        ct = paillier_keys.public_key.encrypt(0, rng=rng)
        assert paillier_keys.private_key.decrypt(ct) == 0

    def test_probabilistic(self, paillier_keys):
        rng = fresh_rng(13)
        a = paillier_keys.public_key.encrypt(5, rng=rng)
        b = paillier_keys.public_key.encrypt(5, rng=rng)
        assert a.value != b.value

    def test_signed_bound_enforced(self, paillier_keys):
        too_big = paillier_keys.public_key.signed_bound
        with pytest.raises(PaillierError, match="exceeds"):
            paillier_keys.public_key.encrypt(too_big)

    def test_wrong_key_decrypt_raises(self, paillier_keys):
        other = PaillierKeyPair.generate(key_bits=256, rng=fresh_rng(14))
        ct = other.public_key.encrypt(1, rng=fresh_rng(15))
        with pytest.raises(PaillierError, match="different key"):
            paillier_keys.private_key.decrypt(ct)

    @given(small_ints)
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, paillier_keys, value):
        rng = fresh_rng(abs(value) + 1)
        ct = paillier_keys.public_key.encrypt(value, rng=rng)
        assert paillier_keys.private_key.decrypt(ct) == value


class TestHomomorphism:
    @given(small_ints, small_ints)
    @settings(max_examples=30, deadline=None)
    def test_additive(self, paillier_keys, a, b):
        rng = fresh_rng(a ^ (b << 1) ^ 3)
        ct = paillier_keys.public_key.encrypt(a, rng=rng)
        ct2 = paillier_keys.public_key.encrypt(b, rng=rng)
        assert paillier_keys.private_key.decrypt(ct + ct2) == a + b

    @given(small_ints, st.integers(-10_000, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_plaintext_add(self, paillier_keys, a, k):
        rng = fresh_rng(a ^ k ^ 7)
        ct = paillier_keys.public_key.encrypt(a, rng=rng)
        assert paillier_keys.private_key.decrypt(ct + k) == a + k

    @given(small_ints, st.integers(-1000, 1000))
    @settings(max_examples=30, deadline=None)
    def test_scalar_mul(self, paillier_keys, a, k):
        rng = fresh_rng(a ^ k ^ 11)
        ct = paillier_keys.public_key.encrypt(a, rng=rng)
        assert paillier_keys.private_key.decrypt(ct * k) == a * k

    def test_negation(self, paillier_keys):
        ct = paillier_keys.public_key.encrypt(42, rng=fresh_rng(16))
        assert paillier_keys.private_key.decrypt(-ct) == -42

    def test_subtraction(self, paillier_keys):
        rng = fresh_rng(17)
        a = paillier_keys.public_key.encrypt(100, rng=rng)
        b = paillier_keys.public_key.encrypt(58, rng=rng)
        assert paillier_keys.private_key.decrypt(a - b) == 42
        assert paillier_keys.private_key.decrypt(a - 58) == 42

    def test_radd_with_int(self, paillier_keys):
        ct = paillier_keys.public_key.encrypt(40, rng=fresh_rng(18))
        assert paillier_keys.private_key.decrypt(2 + ct) == 42

    def test_rmul_with_int(self, paillier_keys):
        ct = paillier_keys.public_key.encrypt(21, rng=fresh_rng(19))
        assert paillier_keys.private_key.decrypt(2 * ct) == 42

    def test_cross_key_addition_rejected(self, paillier_keys):
        other = PaillierKeyPair.generate(key_bits=256, rng=fresh_rng(20))
        a = paillier_keys.public_key.encrypt(1, rng=fresh_rng(21))
        b = other.public_key.encrypt(2, rng=fresh_rng(22))
        with pytest.raises(PaillierError, match="different keys"):
            _ = a + b

    def test_blind_full_range(self, paillier_keys):
        n = paillier_keys.public_key.n
        ct = paillier_keys.public_key.encrypt(3, rng=fresh_rng(23))
        rho = n - 5  # far above the signed bound
        expected = (3 * rho) % n
        (blinded,) = CryptoEngine().blind_batch(
            [ct], [rho], [None], rng=fresh_rng(26)
        )
        assert paillier_keys.private_key.decrypt_raw(blinded) == expected

    def test_blind_of_zero_is_zero(self, paillier_keys):
        ct = paillier_keys.public_key.encrypt(0, rng=fresh_rng(24))
        rho = paillier_keys.public_key.n - 123
        (blinded,) = CryptoEngine().blind_batch(
            [ct], [rho], [None], rng=fresh_rng(27)
        )
        assert paillier_keys.private_key.decrypt_raw(blinded) == 0


class TestRerandomize:
    def test_value_preserved_ciphertext_changed(self, paillier_keys):
        rng = fresh_rng(25)
        ct = paillier_keys.public_key.encrypt(77, rng=rng)
        fresh = ct.rerandomize(rng=rng)
        assert fresh.value != ct.value
        assert paillier_keys.private_key.decrypt(fresh) == 77


class TestSerialization:
    def test_ciphertext_size(self, paillier_keys):
        ct = paillier_keys.public_key.encrypt(1, rng=fresh_rng(26))
        size = ct.serialized_size_bytes()
        assert size == (paillier_keys.public_key.n_squared.bit_length() + 7) // 8
        assert 90 <= size <= 97  # 384-bit key -> ~768-bit ciphertext


class TestNegativeScalars:
    """A negative scalar inverts the ciphertext and keeps its own width."""

    def test_negative_scalars_decrypt(self, paillier_keys):
        public, private = paillier_keys.public_key, paillier_keys.private_key
        half = public.n // 2
        ct = public.encrypt(3, rng=fresh_rng(25))
        for k in (-1, -2, -(2 ** 40), -(half - 1), 0, 1):
            assert private.decrypt(ct * k) == public.decode_signed(
                (3 * k) % public.n
            )
        one = public.encrypt(1, rng=fresh_rng(26))
        assert private.decrypt(one * -(half - 1)) == -(half - 1)

    def test_magnitude_bound_still_enforced(self, paillier_keys):
        ct = paillier_keys.public_key.encrypt(3, rng=fresh_rng(27))
        bound = paillier_keys.public_key.signed_bound
        for k in (bound, -bound, bound + 1, -(bound + 1)):
            with pytest.raises(PaillierError, match="exceeds"):
                _ = ct * k

    def test_negative_exponent_stays_short(self, paillier_keys):
        ct = paillier_keys.public_key.encrypt(3, rng=fresh_rng(28))
        base, exponent, modulus = ct.signed_pow_job(-5)
        assert exponent == 5
        assert base * ct.value % modulus == 1


class TestNoncePower:
    """The key owner's CRT blinding factor equals the full-width power."""

    @pytest.mark.parametrize("backend_name", ["python", "gmpy2"])
    def test_matches_full_width_powmod(self, paillier_keys, backend_name):
        if backend_name == "gmpy2" and not gmpy2_available():
            pytest.skip("optional gmpy2 package not installed")
        pow_fn = resolve_backend(backend_name).powmod
        crt = paillier_keys.private_key.crt_params
        n = paillier_keys.public_key.n
        rng = random.Random(42)
        for _ in range(25):
            r = rng.randrange(1, n)
            assert crt.nonce_power(r, pow_fn) == pow(r, n, n * n)

    def test_edge_nonces(self, paillier_keys):
        crt = paillier_keys.private_key.crt_params
        n = paillier_keys.public_key.n
        for r in (1, 2, n - 1, n - 2):
            assert crt.nonce_power(r) == pow(r, n, n * n)
