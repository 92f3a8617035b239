"""Number-theoretic primitives: primality, primes, inverses, CRT.

These routines back every cryptosystem in :mod:`repro.crypto`. They are
written for clarity first, but the hot paths (Miller-Rabin witnesses,
modular exponentiation) rely on Python's native ``pow`` which is fast
enough for the key sizes used in experiments.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

from repro.crypto.rand import DeterministicRandom, default_rng

# Small primes used for cheap trial division before a primality test.
_SMALL_PRIMES: Tuple[int, ...] = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
    211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277,
    281, 283, 293, 307, 311, 313, 317, 331, 337, 347, 349,
)
_SMALL_PRIMES_PRODUCT = math.prod(_SMALL_PRIMES)

# Deterministic Miller-Rabin witness sets. Testing against the listed
# bases is *proven* correct for all n below the associated bound.
_DETERMINISTIC_BASES: Tuple[Tuple[int, Tuple[int, ...]], ...] = (
    (2047, (2,)),
    (1373653, (2, 3)),
    (9080191, (31, 73)),
    (25326001, (2, 3, 5)),
    (3215031751, (2, 3, 5, 7)),
    (4759123141, (2, 7, 61)),
    (1122004669633, (2, 13, 23, 1662803)),
    (2152302898747, (2, 3, 5, 7, 11)),
    (3474749660383, (2, 3, 5, 7, 11, 13)),
    (341550071728321, (2, 3, 5, 7, 11, 13, 17)),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318665857834031151167461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
)

_MILLER_RABIN_ROUNDS = 40


def _miller_rabin_witness(n: int, base: int) -> bool:
    """Return ``True`` if ``base`` witnesses that ``n`` is composite."""
    if base % n == 0:
        return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return False
    for _ in range(r - 1):
        x = pow(x, 2, n)
        if x == n - 1:
            return False
    return True


def is_probable_prime(n: int, rng: Optional[DeterministicRandom] = None) -> bool:
    """Miller-Rabin primality test.

    Deterministic (proven) for ``n`` below ~3.3e24 using fixed witness
    sets; probabilistic with 40 random rounds above that, giving error
    probability below ``4^-40``.
    """
    if n < 2:
        return False
    if math.gcd(n, _SMALL_PRIMES_PRODUCT) != 1:
        return n in _SMALL_PRIMES
    for bound, bases in _DETERMINISTIC_BASES:
        if n < bound:
            return not any(_miller_rabin_witness(n, b) for b in bases)
    rng = rng or default_rng()
    for _ in range(_MILLER_RABIN_ROUNDS):
        base = rng.randint(2, n - 2)
        if _miller_rabin_witness(n, base):
            return False
    return True


def generate_prime(bits: int, rng: Optional[DeterministicRandom] = None) -> int:
    """Generate a random prime with exactly ``bits`` bits, proven prime.

    The prime lies in ``[3 * 2^(bits-2), 2^bits)``: its top two bits are
    set, so the product of two ``k``-bit primes always has ``2k`` bits.

    Below the last deterministic Miller-Rabin bound (about 78 bits) a
    random odd candidate is tested with the fixed witness sets, which
    is a proof. Above it, the prime is built by the Shawe-Taylor step
    of FIPS 186-4, Appendix C.6: a proven prime ``q0`` of
    ``ceil(bits/2) + 1`` bits (so ``q0 > sqrt(p)``) is generated
    recursively, and a candidate ``p = 2*r*q0 + 1`` is accepted when
    ``2^(p-1) = 1 (mod p)`` and ``gcd(2^(2r) - 1, p) = 1``. By
    Pocklington's theorem every prime factor of ``p`` is then
    ``1 (mod q0)``, hence above ``sqrt(p)``, so ``p`` is prime.

    Parameters
    ----------
    bits:
        Bit length of the prime; must be at least 3.
    rng:
        Randomness source; the module default is used when omitted.
    """
    if bits < 3:
        raise ValueError(f"prime bit length must be >= 3, got {bits}")
    rng = rng or default_rng()
    second_top_bit = 1 << (bits - 2)
    if (1 << bits) <= _DETERMINISTIC_BASES[-1][0]:
        while True:
            candidate = rng.random_odd(bits) | second_top_bit
            if is_probable_prime(candidate):
                return candidate
    q0 = generate_prime((bits + 1) // 2 + 1, rng)
    # p = 2*r*q0 + 1 must lie in [3 * 2^(bits-2), 2^bits).
    r_low = -(-(3 * second_top_bit - 1) // (2 * q0))
    r_high = ((1 << bits) - 2) // (2 * q0)
    while True:
        r = rng.randint(r_low, r_high)
        candidate = 2 * r * q0 + 1
        if math.gcd(candidate, _SMALL_PRIMES_PRODUCT) != 1:
            continue
        z = pow(2, 2 * r, candidate)
        if math.gcd(z - 1, candidate) == 1 and pow(z, q0, candidate) == 1:
            return candidate


def next_prime(n: int) -> int:
    """Return the smallest prime strictly greater than ``n``."""
    candidate = n + 1
    if candidate <= 2:
        return 2
    if candidate % 2 == 0:
        candidate += 1
    while not is_probable_prime(candidate):
        candidate += 2
    return candidate


def modinv(a: int, modulus: int) -> int:
    """Return the multiplicative inverse of ``a`` modulo ``modulus``.

    Raises ``ValueError`` when the inverse does not exist, mirroring the
    behaviour of ``pow(a, -1, modulus)`` but with a clearer message.
    """
    try:
        return pow(a, -1, modulus)
    except ValueError as exc:
        raise ValueError(
            f"{a} has no inverse modulo {modulus} (gcd != 1)"
        ) from exc


def lcm(a: int, b: int) -> int:
    """Least common multiple of two integers."""
    return abs(a * b) // math.gcd(a, b)


def crt(residues: Sequence[int], moduli: Sequence[int]) -> int:
    """Chinese Remainder Theorem for pairwise-coprime moduli.

    Returns the unique ``x`` modulo ``prod(moduli)`` such that
    ``x % moduli[i] == residues[i] % moduli[i]`` for every ``i``.
    """
    if len(residues) != len(moduli):
        raise ValueError(
            f"residue/modulus count mismatch: {len(residues)} vs {len(moduli)}"
        )
    if not moduli:
        raise ValueError("crt requires at least one congruence")
    total_modulus = 1
    for m in moduli:
        total_modulus *= m
    result = 0
    for residue, modulus in zip(residues, moduli):
        partial = total_modulus // modulus
        result += residue * partial * modinv(partial, modulus)
    return result % total_modulus


def integer_sqrt(n: int) -> int:
    """Floor of the integer square root (exact, via ``math.isqrt``)."""
    if n < 0:
        raise ValueError("integer_sqrt of a negative number")
    return math.isqrt(n)
