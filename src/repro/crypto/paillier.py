"""The Paillier additively homomorphic cryptosystem.

Paillier encryption is the arithmetic backbone of the Bost et al. secure
classifiers that this reproduction builds on: encrypted dot products,
blinded comparison inputs and the argmax protocol all run over Paillier
ciphertexts.

Implementation notes
--------------------
* We fix the generator ``g = n + 1`` so that encryption reduces to
  ``(1 + m*n) * r^n mod n^2`` -- a single modular exponentiation.
* Signed plaintexts are supported by mapping negatives into the upper
  half of the plaintext space (two's-complement style wraparound); see
  :meth:`PaillierPublicKey.encode_signed` / ``decode_signed``. A signed
  *scalar* never goes through that encoding: ``c * (-k)`` inverts ``c``
  and raises it to ``k``, so the exponent stays at the scalar's own
  width instead of the full width of ``n``.
* The key owner computes the blinding factor ``r^n mod n^2`` from the
  factors of ``n`` (:meth:`_CrtParams.nonce_power`), bit-identical to
  the public-key path and about twice as fast.
* Every ciphertext remembers its public key so homomorphic operators can
  type-check key compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.crypto.modexp import powmod
from repro.crypto.numtheory import generate_prime, lcm, modinv
from repro.crypto.rand import DeterministicRandom, default_rng

DEFAULT_KEY_BITS = 512
"""Default modulus size; small enough for fast pure-Python experiments.

The analytic cost model (:mod:`repro.smc.cost_model`) extrapolates
measured operation counts to 2048-bit production keys.
"""


class PaillierError(Exception):
    """Raised on misuse of Paillier keys or ciphertexts."""


@dataclass(frozen=True)
class PaillierPublicKey:
    """Public half of a Paillier key pair.

    Attributes
    ----------
    n:
        RSA-style modulus ``p * q``.
    """

    n: int

    @property
    def n_squared(self) -> int:
        """The ciphertext modulus ``n^2``."""
        return self.n * self.n

    @property
    def signed_bound(self) -> int:
        """Magnitude bound for signed encoding: values in
        ``(-n/2, n/2)`` round-trip exactly."""
        return self.n // 2

    @property
    def key_bits(self) -> int:
        """Bit length of the modulus."""
        return self.n.bit_length()

    def encode_signed(self, value: int) -> int:
        """Map a signed integer into the plaintext group ``Z_n``."""
        if abs(value) >= self.signed_bound:
            raise PaillierError(
                f"plaintext magnitude {abs(value)} exceeds signed bound "
                f"{self.signed_bound}"
            )
        return value % self.n

    def decode_signed(self, raw: int) -> int:
        """Inverse of :meth:`encode_signed`."""
        if raw > self.signed_bound:
            return raw - self.n
        return raw

    def encrypt(
        self, value: int, rng: Optional[DeterministicRandom] = None
    ) -> "PaillierCiphertext":
        """Encrypt the signed integer ``value`` (negatives via the
        wraparound encoding), drawing the nonce from ``rng``."""
        rng = rng or default_rng()
        plaintext = self.encode_signed(value)
        nonce = rng.random_unit(self.n)
        n_sq = self.n_squared
        # (1 + n)^m == 1 + m*n (mod n^2), avoiding one exponentiation.
        cipher = ((1 + plaintext * self.n) % n_sq) \
            * powmod(nonce, self.n, n_sq) % n_sq
        return PaillierCiphertext(public_key=self, value=cipher)


@dataclass(frozen=True)
class PaillierPrivateKey:
    """Private half of a Paillier key pair.

    Holds Carmichael's ``lambda(n)`` and the precomputed ``mu`` so
    decryption is two exponentiations and a multiplication. When the
    prime factors ``p`` and ``q`` are retained (the default for freshly
    generated keys), decryption instead runs mod ``p^2`` and ``q^2``
    separately and recombines by the Chinese remainder theorem -- the
    exponentiations operate on half-width numbers, a ~4x speedup.
    Keys restored without factors fall back to the standard path.
    """

    public_key: PaillierPublicKey
    lam: int
    mu: int
    p: Optional[int] = None
    q: Optional[int] = None

    @property
    def has_crt(self) -> bool:
        """Whether the prime factors are available for CRT decryption."""
        return self.p is not None and self.q is not None

    @property
    def crt_params(self) -> "_CrtParams":
        """Precomputed CRT constants (cached after first use)."""
        cached = self.__dict__.get("_crt_params")
        if cached is None:
            if not self.has_crt:
                raise PaillierError(
                    "CRT decryption needs the prime factors p and q"
                )
            cached = _CrtParams.build(self.p, self.q)
            # frozen dataclass: cache via object.__setattr__.
            object.__setattr__(self, "_crt_params", cached)
        return cached

    def decrypt_raw_standard(self, ciphertext: "PaillierCiphertext") -> int:
        """Decrypt to the raw group element in ``[0, n)`` with the
        single full-width exponentiation (no CRT)."""
        self._require_key_match(ciphertext)
        n = self.public_key.n
        n_sq = self.public_key.n_squared
        u = powmod(ciphertext.value, self.lam, n_sq)
        l_of_u = (u - 1) // n
        return (l_of_u * self.mu) % n

    def decrypt_raw_crt(self, ciphertext: "PaillierCiphertext") -> int:
        """Decrypt to the raw group element via the CRT fast path."""
        self._require_key_match(ciphertext)
        params = self.crt_params
        c = ciphertext.value
        mp_ = params.half_decrypt_p(powmod(c % params.p_squared, params.p - 1,
                                           params.p_squared))
        mq_ = params.half_decrypt_q(powmod(c % params.q_squared, params.q - 1,
                                           params.q_squared))
        return params.recombine(mp_, mq_)

    def decrypt_raw(self, ciphertext: "PaillierCiphertext") -> int:
        """Decrypt to the raw group element in ``[0, n)``.

        Uses the CRT fast path when the prime factors are available.
        """
        if self.has_crt:
            return self.decrypt_raw_crt(ciphertext)
        return self.decrypt_raw_standard(ciphertext)

    def decrypt(self, ciphertext: "PaillierCiphertext") -> int:
        """Decrypt to a signed integer (inverse of signed encryption)."""
        return self.public_key.decode_signed(self.decrypt_raw(ciphertext))

    def _require_key_match(self, ciphertext: "PaillierCiphertext") -> None:
        if ciphertext.public_key.n != self.public_key.n:
            raise PaillierError("ciphertext was encrypted under a different key")


@dataclass(frozen=True)
class _CrtParams:
    """Precomputed constants for CRT-accelerated Paillier decryption.

    With ``g = n + 1``, the half-decryption constants reduce to
    ``hp = (L_p((1+n)^{p-1} mod p^2))^{-1} = ((p-1) q)^{-1} mod p``
    (and symmetrically for ``q``).
    """

    p: int
    q: int
    p_squared: int
    q_squared: int
    hp: int
    hq: int
    q_inv_p: int  # q^{-1} mod p, for the recombination step
    q_sq_inv_p_sq: int  # q^{-2} mod p^2, for recombining mod n^2

    @staticmethod
    def build(p: int, q: int) -> "_CrtParams":
        return _CrtParams(
            p=p,
            q=q,
            p_squared=p * p,
            q_squared=q * q,
            hp=modinv(((p - 1) * q) % p, p),
            hq=modinv(((q - 1) * p) % q, q),
            q_inv_p=modinv(q % p, p),
            q_sq_inv_p_sq=modinv((q * q) % (p * p), p * p),
        )

    def nonce_power(
        self, r: int, pow_fn: Callable[[int, int, int], int] = powmod
    ) -> int:
        """The blinding factor ``r^n mod n^2`` of a unit ``r`` of ``Z_n``.

        Modulo ``p^2``, ``r^n`` is the Teichmueller lift of
        ``(r mod p)^(n mod (p-1))``: the part of ``r`` of order ``p``
        dies under the factor ``p`` of ``n``, and the lift of ``a`` is
        ``a^p mod p^2``. Since ``n = q (mod p-1)``, each half is one
        short power mod ``p`` and one ``p``-bit power mod ``p^2``;
        Garner recombines the halves mod ``n^2``. The result equals
        ``pow(r, n, n^2)`` bit for bit.
        """
        p, q = self.p, self.q
        a_p = pow_fn(pow_fn(r % p, q % (p - 1), p), p, self.p_squared)
        a_q = pow_fn(pow_fn(r % q, p % (q - 1), q), q, self.q_squared)
        return a_q + self.q_squared * (
            (a_p - a_q) * self.q_sq_inv_p_sq % self.p_squared
        )

    def half_decrypt_p(self, u_p: int) -> int:
        """``m mod p`` from ``u_p = c^{p-1} mod p^2``."""
        return ((u_p - 1) // self.p) * self.hp % self.p

    def half_decrypt_q(self, u_q: int) -> int:
        """``m mod q`` from ``u_q = c^{q-1} mod q^2``."""
        return ((u_q - 1) // self.q) * self.hq % self.q

    def recombine(self, m_p: int, m_q: int) -> int:
        """Garner recombination of the two half plaintexts into
        ``m mod pq``."""
        return m_q + self.q * ((m_p - m_q) * self.q_inv_p % self.p)


@dataclass(frozen=True)
class PaillierKeyPair:
    """A matched public/private Paillier key pair."""

    public_key: PaillierPublicKey
    private_key: PaillierPrivateKey

    @staticmethod
    def generate(
        key_bits: int = DEFAULT_KEY_BITS, rng: Optional[DeterministicRandom] = None
    ) -> "PaillierKeyPair":
        """Generate a fresh key pair with a ``key_bits`` modulus.

        The two prime factors are distinct ``key_bits // 2``-bit primes
        with their top two bits set, so their product always has exactly
        ``key_bits`` bits, and ``gcd(n, phi) == 1`` holds (guaranteed
        for distinct primes of equal size). ``key_bits`` must be even.
        """
        if key_bits % 2:
            raise ValueError(f"key_bits must be even, got {key_bits}")
        rng = rng or default_rng()
        half = key_bits // 2
        p = generate_prime(half, rng=rng)
        q = generate_prime(half, rng=rng)
        while q == p:  # pragma: no cover - astronomically unlikely
            q = generate_prime(half, rng=rng)
        n = p * q
        lam = lcm(p - 1, q - 1)
        public = PaillierPublicKey(n=n)
        # mu = (L(g^lambda mod n^2))^-1 mod n with g = n + 1:
        # g^lambda = 1 + lambda*n (mod n^2), so L(...) = lambda mod n.
        mu = modinv(lam % n, n)
        private = PaillierPrivateKey(public_key=public, lam=lam, mu=mu, p=p, q=q)
        return PaillierKeyPair(public_key=public, private_key=private)


@dataclass(frozen=True)
class PaillierCiphertext:
    """An element of ``Z_{n^2}^*`` carrying its public key.

    Supports the additive homomorphism through Python operators::

        enc(a) + enc(b)      -> enc(a + b)
        enc(a) + b           -> enc(a + b)      (plaintext add)
        enc(a) * k           -> enc(a * k)      (plaintext multiply)
        -enc(a)              -> enc(-a)
        enc(a) - enc(b)      -> enc(a - b)
    """

    public_key: PaillierPublicKey
    value: int

    def _require_same_key(self, other: "PaillierCiphertext") -> None:
        if self.public_key.n != other.public_key.n:
            raise PaillierError("cannot combine ciphertexts under different keys")

    def __add__(self, other) -> "PaillierCiphertext":
        n_sq = self.public_key.n_squared
        if isinstance(other, PaillierCiphertext):
            self._require_same_key(other)
            return PaillierCiphertext(
                public_key=self.public_key, value=(self.value * other.value) % n_sq
            )
        if isinstance(other, int):
            encoded = self.public_key.encode_signed(other)
            plain_part = (1 + encoded * self.public_key.n) % n_sq
            return PaillierCiphertext(
                public_key=self.public_key, value=(self.value * plain_part) % n_sq
            )
        return NotImplemented

    def __radd__(self, other) -> "PaillierCiphertext":
        return self.__add__(other)

    def __neg__(self) -> "PaillierCiphertext":
        n_sq = self.public_key.n_squared
        return PaillierCiphertext(
            public_key=self.public_key, value=modinv(self.value, n_sq)
        )

    def __sub__(self, other) -> "PaillierCiphertext":
        if isinstance(other, PaillierCiphertext):
            return self + (-other)
        if isinstance(other, int):
            return self + (-other)
        return NotImplemented

    def signed_pow_job(self, scalar: int) -> Tuple[int, int, int]:
        """``(base, exponent, n^2)`` whose power encrypts ``scalar * m``.

        A negative scalar inverts the ciphertext and keeps the exponent
        at ``|scalar|``, so ``c * -1`` costs one inverse rather than a
        power to the full width of ``n``. ``|scalar|`` must lie below
        the signed bound, as for :meth:`PaillierPublicKey.encode_signed`.
        """
        self.public_key.encode_signed(scalar)  # magnitude check only
        n_sq = self.public_key.n_squared
        if scalar < 0:
            return modinv(self.value, n_sq), -scalar, n_sq
        return self.value, scalar, n_sq

    def __mul__(self, scalar) -> "PaillierCiphertext":
        if not isinstance(scalar, int):
            return NotImplemented
        return PaillierCiphertext(
            public_key=self.public_key,
            value=powmod(*self.signed_pow_job(scalar)),
        )

    def __rmul__(self, scalar) -> "PaillierCiphertext":
        return self.__mul__(scalar)

    def rerandomize(
        self, rng: Optional[DeterministicRandom] = None
    ) -> "PaillierCiphertext":
        """Return a fresh-looking ciphertext of the same plaintext.

        Protocols re-randomise before returning intermediate ciphertexts
        so the other party cannot link them to earlier messages.
        """
        rng = rng or default_rng()
        n = self.public_key.n
        n_sq = self.public_key.n_squared
        nonce = rng.random_unit(n)
        return PaillierCiphertext(
            public_key=self.public_key,
            value=(self.value * powmod(nonce, n, n_sq)) % n_sq,
        )

    def serialized_size_bytes(self) -> int:
        """Wire size of this ciphertext (``2 * key_bits / 8`` bytes).

        Used by the network simulator's byte accounting.
        """
        return (self.public_key.n_squared.bit_length() + 7) // 8

    def to_bytes(self) -> bytes:
        """Canonical fixed-width big-endian encoding of the ciphertext.

        Fixed width (the size of ``Z_{n^2}``) so message lengths leak
        nothing about the underlying group element.
        """
        return self.value.to_bytes(self.serialized_size_bytes(), "big")

    @classmethod
    def from_bytes(
        cls, data: bytes, public_key: PaillierPublicKey
    ) -> "PaillierCiphertext":
        """Inverse of :meth:`to_bytes` under the given public key."""
        value = int.from_bytes(data, "big")
        if not 0 < value < public_key.n_squared:
            raise PaillierError(
                f"decoded ciphertext outside Z_{{n^2}} "
                f"({len(data)} bytes)"
            )
        return cls(public_key=public_key, value=value)
