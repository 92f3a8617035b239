"""Offline precomputation for Paillier encryption.

A Paillier encryption is ``(1 + m*n) * r^n mod n^2``; the expensive
part, ``r^n mod n^2``, does not depend on the message. Production
systems (including the ones the paper builds on) therefore run an
*offline phase* that stockpiles blinding factors, leaving the online
encryption at two modular multiplications -- one to two orders of
magnitude faster.

:class:`PrecomputedEncryptionPool` implements that split. The client
fills a pool while idle and drains it during live queries; the pool
refuses to silently fall back when empty, so callers account the
offline work honestly by calling ``refill``.

The refill itself -- the offline phase's whole cost -- runs one of
three strategies (see ``docs/PERFORMANCE.md`` for the accounting):

* ``"pow"`` -- the canonical path: sample ``r`` uniformly from
  ``Z_n^*`` and pay ``pow(r, n, n^2)`` per factor. Always correct,
  always available, and bit-identical to what
  :meth:`~repro.crypto.paillier.PaillierPublicKey.encrypt` would do.
* ``"crt"`` -- when the pool's owner also holds the *private* key,
  ``r^n mod n^2`` is computed from the factors of ``n``
  (:meth:`repro.crypto.paillier._CrtParams.nonce_power`, the kernel
  the client's own encryptions use) at about half the cost. Same
  uniform ``r``, same factor, bit for bit.
* ``"fixed-base"`` -- public-key-only acceleration: fix a subgroup
  generator ``g``, precompute a window table for ``g^n mod n^2``
  (:class:`repro.crypto.modexp.FixedBaseWindow`), then each factor is
  ``(g^n)^k`` for a fresh exponent ``k`` -- a handful of table
  multiplications instead of a full-width ``pow``. The implied nonce
  is ``r = g^k mod n``, so ciphertexts stay well-formed (the parity
  tests pin ``(g^n)^k == pow(g^k mod n, n, n^2)``), but ``r`` now
  ranges over the cyclic subgroup generated by ``g`` rather than all
  of ``Z_n^*`` -- a standard fixed-base blinding trade-off that rests
  on the subgroup's DDH-style indistinguishability, hence opt-in
  rather than default.

``strategy="auto"`` picks ``"crt"`` when a private key is supplied and
``"pow"`` otherwise, so the default never changes the blinding
distribution. Pass a :class:`~repro.crypto.engine.CryptoEngine` to run
the refill exponentiations on that engine's bignum backend.

The factors live in a :class:`~repro.crypto.stockpile.Stockpile`; the
expensive exponentiations of a refill run outside the stock's lock, so
concurrent encrypts never contend with them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import repro.telemetry as telemetry
from repro.crypto.modexp import FixedBaseWindow, powmod
from repro.crypto.paillier import (
    PaillierCiphertext,
    PaillierError,
    PaillierPrivateKey,
    PaillierPublicKey,
)
from repro.crypto.rand import DeterministicRandom, default_rng
from repro.crypto.stockpile import Stockpile

if TYPE_CHECKING:  # typing-only; engine imports nothing from here at runtime
    from repro.crypto.engine import CryptoEngine

#: Refill strategies accepted by :class:`PrecomputedEncryptionPool`.
REFILL_STRATEGIES = ("auto", "pow", "crt", "fixed-base")


class PoolExhaustedError(Exception):
    """Raised when an online encryption finds no precomputed factor."""


class PrecomputedEncryptionPool:
    """A stock of ready blinding factors for one public key.

    Parameters
    ----------
    public_key:
        The Paillier key encryptions are for.
    size:
        Initial number of precomputed factors.
    rng:
        Randomness for the blinding bases.
    private_key:
        Optional matching private key; unlocks the CRT refill strategy
        (half-width exponentiations, identical factors).
    engine:
        Optional :class:`~repro.crypto.engine.CryptoEngine` whose bignum
        backend evaluates the refill exponentiations.
    strategy:
        One of ``"auto"`` (CRT with a private key, canonical ``pow``
        without), ``"pow"``, ``"crt"`` or ``"fixed-base"`` -- see the
        module docstring for the trade-offs.
    window_bits:
        Window width for the ``"fixed-base"`` table (default chosen by
        :func:`repro.crypto.modexp.default_window_bits`).

    Thread safety: ``remaining``, ``refill``, ``encrypt`` and
    ``take_factors`` may be called concurrently from multiple threads;
    every factor is handed out exactly once.
    """

    def __init__(
        self,
        public_key: PaillierPublicKey,
        size: int = 0,
        rng: Optional[DeterministicRandom] = None,
        *,
        private_key: Optional[PaillierPrivateKey] = None,
        engine: Optional["CryptoEngine"] = None,
        strategy: str = "auto",
        window_bits: Optional[int] = None,
    ) -> None:
        if strategy not in REFILL_STRATEGIES:
            raise ValueError(
                f"unknown refill strategy {strategy!r}; "
                f"expected one of {REFILL_STRATEGIES}"
            )
        if private_key is not None and \
                private_key.public_key.n != public_key.n:
            raise PaillierError(
                "private key does not match the pool's public key"
            )
        if strategy == "auto":
            strategy = (
                "crt"
                if private_key is not None and private_key.has_crt
                else "pow"
            )
        if strategy == "crt":
            if private_key is None or not private_key.has_crt:
                raise PaillierError(
                    "the 'crt' refill strategy needs a private key "
                    "holding its prime factors"
                )
        self.public_key = public_key
        self.strategy = strategy
        self._rng = rng or default_rng()
        self._engine = engine
        self._stock: Stockpile[int] = Stockpile(
            self._produce, metric="precompute"
        )

        n = public_key.n
        self._private_key = private_key
        self._window: Optional[FixedBaseWindow] = None
        self._exponent_bits = n.bit_length()
        if strategy == "fixed-base":
            generator = self._rng.random_unit(n)
            self.fixed_base_generator = generator
            self._window = FixedBaseWindow(
                powmod(generator, n, public_key.n_squared),
                public_key.n_squared,
                exponent_bits=self._exponent_bits,
                window_bits=window_bits,
            )
        if size:
            self.refill(size)

    @property
    def remaining(self) -> int:
        """Number of online encryptions the pool can still serve."""
        return self._stock.remaining

    @property
    def total_precomputed(self) -> int:
        """Factors ever precomputed (offline-work accounting)."""
        return self._stock.total_produced

    def refill(self, count: int) -> None:
        """Offline phase: precompute ``count`` more blinding factors."""
        self._stock.refill(count)

    def _produce(self, count: int) -> List[int]:
        """``count`` fresh blinding factors (the stockpile's producer)."""
        return self._compute_factors(self._draw_batch(count))

    def _draw_batch(self, count: int) -> List[int]:
        """``count`` randomness draws for one refill. Fixed-base draws
        window exponents; the other strategies draw uniform units of
        ``Z_n^*``."""
        if self.strategy == "fixed-base":
            draws = []
            while len(draws) < count:
                exponent = self._rng.getrandbits(self._exponent_bits)
                if exponent:  # k = 0 would serve the unblinded factor 1
                    draws.append(exponent)
            return draws
        n = self.public_key.n
        return [self._rng.random_unit(n) for _ in range(count)]

    def _compute_factors(self, draws: List[int]) -> List[int]:
        """The strategy-specific exponentiations."""
        n = self.public_key.n
        n_squared = self.public_key.n_squared
        if self.strategy == "fixed-base":
            return self._window.pow_many(draws)
        if self.strategy == "crt":
            telemetry.count("precompute.crt_factors", len(draws))
            crt = self._private_key.crt_params
            pow_fn = powmod if self._engine is None \
                else self._engine.modexp.powmod
            return [crt.nonce_power(nonce, pow_fn) for nonce in draws]
        jobs = [(nonce, n, n_squared) for nonce in draws]
        if self._engine is not None:
            return self._engine.map_pow(jobs)
        return [powmod(*job) for job in jobs]

    def take_factors(self, count: int) -> List[int]:
        """Pop up to ``count`` ready factors in one locked operation.

        The bulk-drain counterpart of :meth:`encrypt`, used by
        :meth:`repro.crypto.engine.CryptoEngine.encrypt_batch` /
        ``rerandomize_batch``. Returns fewer than ``count`` (possibly
        none) when the pool is low.
        """
        return self._stock.take(count)

    def encrypt(self, value: int) -> PaillierCiphertext:
        """Online phase: two modular multiplications per encryption.

        Raises :class:`PoolExhaustedError` when no factor is left --
        the caller refills (more offline work) or pays the full
        exponentiation through the public key itself.
        """
        taken = self._stock.take(1)
        if not taken:
            telemetry.count("precompute.misses")
            raise PoolExhaustedError(
                f"precomputed encryption pool exhausted: 0 of "
                f"{self.total_precomputed} precomputed factors remain; "
                f"call refill() for more offline work"
            )
        n = self.public_key.n
        n_squared = self.public_key.n_squared
        plaintext = self.public_key.encode_signed(value)
        cipher = ((1 + plaintext * n) % n_squared) * taken[0] % n_squared
        return PaillierCiphertext(public_key=self.public_key, value=cipher)
