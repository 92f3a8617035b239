"""Tests for the pluggable modexp layer: backends and fixed-base windows.

The contract under test is bit-for-bit parity: every code path in
:mod:`repro.crypto.modexp` must agree with the built-in three-argument
``pow`` on every input, so switching backends or enabling fixed-base
tables can never change a ciphertext.
"""

import random

import pytest

from repro.crypto import modexp
from repro.crypto.modexp import (
    MODEXP_BACKENDS,
    FixedBaseWindow,
    Gmpy2Modexp,
    ModexpError,
    PythonModexp,
    default_window_bits,
    gmpy2_available,
    get_default_backend,
    resolve_backend,
    set_default_backend,
)

needs_gmpy2 = pytest.mark.skipif(
    not gmpy2_available(), reason="optional gmpy2 package not installed"
)


class TestBackendResolution:
    def test_python_backend_always_resolves(self):
        backend = resolve_backend("python")
        assert isinstance(backend, PythonModexp)
        assert backend.name == "python"

    def test_auto_and_none_resolve_to_something_usable(self):
        for choice in ("auto", None):
            backend = resolve_backend(choice)
            assert backend.name in ("python", "gmpy2")
            assert backend.powmod(2, 10, 1000) == 24

    def test_auto_prefers_gmpy2_when_available(self):
        expected = "gmpy2" if gmpy2_available() else "python"
        assert resolve_backend("auto").name == expected

    def test_instance_passes_through(self):
        backend = resolve_backend("python")
        assert resolve_backend(backend) is backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ModexpError, match="unknown modexp backend"):
            resolve_backend("openssl")

    def test_instances_are_shared(self):
        assert resolve_backend("python") is resolve_backend("python")

    def test_backend_names_match_declared_tuple(self):
        assert MODEXP_BACKENDS == ("auto", "python", "gmpy2")

    def test_default_backend_round_trip(self):
        original = get_default_backend()
        try:
            chosen = set_default_backend("python")
            assert get_default_backend() is chosen
            assert modexp.powmod(3, 4, 5) == pow(3, 4, 5)
        finally:
            set_default_backend(original)

    def test_explicit_gmpy2_raises_when_missing(self):
        if gmpy2_available():
            pytest.skip("gmpy2 installed; the explicit choice succeeds")
        with pytest.raises(ModexpError, match="gmpy2"):
            Gmpy2Modexp()
        with pytest.raises(ModexpError, match="gmpy2"):
            resolve_backend("gmpy2")


class TestPythonBackendParity:
    def test_matches_builtin_pow_on_randomized_inputs(self):
        backend = resolve_backend("python")
        rng = random.Random(1001)
        for _ in range(200):
            modulus = rng.getrandbits(rng.randrange(8, 512)) | 1
            if modulus <= 1:
                continue
            base = rng.randrange(0, modulus)
            exponent = rng.getrandbits(rng.randrange(1, 512))
            assert backend.powmod(base, exponent, modulus) == pow(
                base, exponent, modulus
            )

    def test_wrap_unwrap_identity(self):
        backend = resolve_backend("python")
        assert backend.unwrap(backend.wrap(12345)) == 12345


@needs_gmpy2
class TestGmpy2BackendParity:
    def test_matches_builtin_pow_on_randomized_inputs(self):
        backend = resolve_backend("gmpy2")
        rng = random.Random(1002)
        for _ in range(200):
            modulus = rng.getrandbits(rng.randrange(8, 512)) | 1
            if modulus <= 1:
                continue
            base = rng.randrange(0, modulus)
            exponent = rng.getrandbits(rng.randrange(1, 512))
            assert backend.powmod(base, exponent, modulus) == pow(
                base, exponent, modulus
            )

    def test_wrap_round_trips_and_multiplies_natively(self):
        backend = resolve_backend("gmpy2")
        wrapped = backend.wrap(1 << 200)
        assert backend.unwrap(wrapped * wrapped) == 1 << 400

    def test_returns_plain_python_int(self):
        backend = resolve_backend("gmpy2")
        result = backend.powmod(3, 100, 10**30)
        assert type(result) is int


class TestDefaultWindowBits:
    def test_breakpoints(self):
        assert default_window_bits(16) == 4
        assert default_window_bits(127) == 4
        assert default_window_bits(128) == 6
        assert default_window_bits(1023) == 6
        assert default_window_bits(1024) == 7

    def test_rejects_non_positive(self):
        with pytest.raises(ModexpError):
            default_window_bits(0)


class TestFixedBaseWindow:
    @pytest.mark.parametrize("backend_name", ["python", "gmpy2"])
    @pytest.mark.parametrize("window_bits", [1, 3, 4, 6, 8])
    def test_matches_builtin_pow_bit_for_bit(self, backend_name, window_bits):
        if backend_name == "gmpy2" and not gmpy2_available():
            pytest.skip("optional gmpy2 package not installed")
        rng = random.Random(2000 + window_bits)
        for _ in range(8):
            modulus = rng.getrandbits(rng.randrange(64, 384)) | 1
            if modulus <= 2:
                continue
            base = rng.randrange(1, modulus)
            bits = rng.randrange(16, 256)
            window = FixedBaseWindow(
                base, modulus, exponent_bits=bits,
                window_bits=window_bits, backend=backend_name,
            )
            for _ in range(20):
                exponent = rng.getrandbits(bits)
                assert window.pow(exponent) == pow(base, exponent, modulus)

    def test_edge_exponents(self):
        window = FixedBaseWindow(7, 1009, exponent_bits=32, window_bits=4)
        assert window.pow(0) == 1
        assert window.pow(1) == 7
        assert window.pow((1 << 32) - 1) == pow(7, (1 << 32) - 1, 1009)

    def test_pow_many_matches_pow(self):
        window = FixedBaseWindow(5, 10007, exponent_bits=64)
        exponents = [0, 1, 2, 17, (1 << 64) - 1]
        assert window.pow_many(exponents) == [
            window.pow(e) for e in exponents
        ]

    def test_rejects_out_of_range_exponents(self):
        window = FixedBaseWindow(3, 101, exponent_bits=8)
        with pytest.raises(ModexpError, match="non-negative"):
            window.pow(-1)
        with pytest.raises(ModexpError, match="covers at most"):
            window.pow(1 << 9)

    def test_rejects_bad_construction(self):
        with pytest.raises(ModexpError):
            FixedBaseWindow(3, 1, exponent_bits=8)
        with pytest.raises(ModexpError):
            FixedBaseWindow(0, 101, exponent_bits=8)
        with pytest.raises(ModexpError):
            FixedBaseWindow(3, 101, exponent_bits=0)
        with pytest.raises(ModexpError):
            FixedBaseWindow(3, 101, exponent_bits=8, window_bits=0)

    def test_table_accounting(self):
        window = FixedBaseWindow(3, 1 << 255, exponent_bits=64, window_bits=4)
        assert window.digits == 16
        assert window.table_entries == 16 * 15
        assert window.table_bytes() == window.table_entries * 32
