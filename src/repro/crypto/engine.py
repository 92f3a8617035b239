"""Batch crypto engine: the performance backbone of the encrypted paths.

Every Paillier-heavy protocol step in this library reduces to a handful
of bulk shapes -- encrypt N values, decrypt N ciphertexts, N independent
scalar multiplications, N re-randomisations, N blind-and-refresh
steps, or one fused dot product.
:class:`CryptoEngine` exposes exactly those batch APIs.

Determinism is preserved by construction: all randomness (encryption
nonces, re-randomisation factors) is drawn serially, in input order,
from the caller's :class:`~repro.crypto.rand.DeterministicRandom`
stream, so a batch is transcript-identical to the per-value loop it
replaces. One engine is stateless apart from its attached pools and is
shared by every request context of a server; request-level
parallelism comes from the server's handler threads and, across cores,
from fleet shard processes (:mod:`repro.serving.fleet`).

The big-integer kernel itself is pluggable (:mod:`repro.crypto.modexp`):
every engine carries a *modexp backend* -- pure-Python ``pow``
(canonical) or GMP via ``gmpy2`` when available -- selected by name
through ``CryptoEngine(modexp=...)``, ``SessionConfig.crypto_backend``
or ``--crypto-backend``. Modexp backends are bit-for-bit
interchangeable, so this is a wall-clock knob only.

An engine can also *drain a precompute pool*
(:meth:`CryptoEngine.attach_pool`): when a
:class:`~repro.crypto.precompute.PrecomputedEncryptionPool` for the
target key is attached, :meth:`CryptoEngine.encrypt_batch` and
:meth:`CryptoEngine.rerandomize_batch` consume its ready blinding
factors -- two modular multiplications per ciphertext online -- and only
fall back to full exponentiations for whatever the pool cannot cover.

The fused :meth:`CryptoEngine.dot_product` evaluates
``prod_i c_i^{w_i} mod n^2`` with *simultaneous multi-exponentiation*
(interleaved fixed windows / Straus): one shared chain of squarings
over the maximum weight bit-length instead of one full
square-and-multiply ladder per ciphertext; :meth:`CryptoEngine.blind_batch`
shares one chain between a full-width blinding ``c^rho`` and its
refresh ``r^n``. Negative weights are folded in by inverting the
ciphertext first (one cheap extended-gcd) so exponents stay small --
mapping them through the signed encoding would blow each exponent up to
the full modulus width and erase the gain. Signed scalar
multiplication follows the same rule
(:meth:`~repro.crypto.paillier.PaillierCiphertext.signed_pow_job`).

Only the key owner may pass its private key to :meth:`encrypt_batch`;
the encryption nonces then go through the CRT kernel
(:meth:`~repro.crypto.paillier._CrtParams.nonce_power`), the way
:meth:`decrypt_batch` runs CRT when it holds the factors. Every other
batch operation takes public material only.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import repro.telemetry as telemetry
from repro.crypto.modexp import (
    ModexpBackend,
    get_default_backend,
    resolve_backend,
)
from repro.crypto.numtheory import modinv
from repro.crypto.paillier import (
    PaillierCiphertext,
    PaillierError,
    PaillierPrivateKey,
    PaillierPublicKey,
)
from repro.crypto.rand import DeterministicRandom, default_rng

if TYPE_CHECKING:  # avoids a circular import at runtime
    from repro.crypto.precompute import PrecomputedEncryptionPool

PowJob = Tuple[int, int, int]  # (base, exponent, modulus)


class EngineError(Exception):
    """Raised on misconfiguration or misuse of the crypto engine."""


def _multiexp(bases: Sequence[int], exponents: Sequence[int],
              modulus: int, backend: ModexpBackend) -> int:
    """``prod_i bases[i]^exponents[i] mod modulus`` by interleaved
    fixed-window multi-exponentiation (Straus).

    All exponents must be non-negative. One squaring chain of
    ``max(bit_length)`` steps is shared across every base; each base
    keeps a table of its first ``2^w - 1`` powers and contributes one
    multiplication per non-zero ``w``-bit digit of its exponent. A table
    costs ``2^w - 2`` multiplications and cuts a base's digit
    multiplications from about ``bits / 2`` to ``bits / w``, so ``w``
    grows with the longest exponent; below 128 bits (dot-product
    weights) exponents stay binary. Accumulator and tables live in the
    backend's native integer type, so GMP multiplies without conversions.
    """
    max_bits = 0
    for exponent in exponents:
        if exponent < 0:
            raise EngineError("multi-exponentiation needs non-negative exponents")
        if exponent.bit_length() > max_bits:
            max_bits = exponent.bit_length()
    window = 1 if max_bits < 128 else 4 if max_bits < 384 else \
        5 if max_bits < 1024 else 6
    mask = (1 << window) - 1
    mod = backend.wrap(modulus)
    one = backend.wrap(1)
    tables = []
    for base in bases:
        table = [one, backend.wrap(base)]
        for _ in range(mask - 1):
            table.append(table[-1] * table[1] % mod)
        tables.append(table)
    accumulator = one
    for shift in range((max_bits - 1) // window * window, -1, -window):
        for _ in range(window):
            accumulator = accumulator * accumulator % mod
        for table, exponent in zip(tables, exponents):
            digit = (exponent >> shift) & mask
            if digit:
                accumulator = accumulator * table[digit] % mod
    return backend.unwrap(accumulator)


class CryptoEngine:
    """Batch Paillier operations on one bignum (modexp) backend.

    The engine is stateless apart from any attached precompute pools
    (:meth:`attach_pool`), so one engine can serve any number of keys
    and sessions concurrently, from any number of threads. Operation
    *accounting* stays with the caller
    (:class:`repro.smc.context.TwoPartyContext` counts ops into its
    trace before dispatching).

    Parameters
    ----------
    modexp:
        Bignum backend name (``"auto"`` / ``"python"`` / ``"gmpy2"``)
        or instance; ``None`` keeps the process default. The resolved
        choice is recorded in telemetry as ``engine.modexp.<name>`` so
        metrics documents say which kernel produced their numbers.
    """

    def __init__(
        self, modexp: Union[str, ModexpBackend, None] = None
    ) -> None:
        self.modexp = resolve_backend(modexp or get_default_backend())
        self._pools: Dict[int, "PrecomputedEncryptionPool"] = {}
        if telemetry.enabled():
            telemetry.count(f"engine.modexp.{self.modexp_name}")

    @property
    def modexp_name(self) -> str:
        """Name of the bignum backend evaluating the exponentiations."""
        return self.modexp.name

    # -- exponentiation kernels ---------------------------------------------

    def map_pow(self, jobs: Sequence[PowJob]) -> List[int]:
        """Evaluate independent modular exponentiations, in order."""
        if telemetry.enabled():
            telemetry.count("engine.pow_jobs", len(jobs))
        powmod = self.modexp.powmod
        return [powmod(base, exponent, modulus)
                for base, exponent, modulus in jobs]

    def multiexp(self, bases: Sequence[int], exponents: Sequence[int],
                 modulus: int) -> int:
        """One fused multi-exponentiation (see :func:`_multiexp`)."""
        if telemetry.enabled():
            telemetry.count("engine.multiexp_calls")
            telemetry.count("engine.multiexp_bases", len(bases))
        return _multiexp(bases, exponents, modulus, self.modexp)

    # -- precompute pools ---------------------------------------------------

    def attach_pool(self, pool: "PrecomputedEncryptionPool") -> None:
        """Drain ``pool`` for future batch work under its public key.

        Once attached, :meth:`encrypt_batch` and
        :meth:`rerandomize_batch` for the pool's key take ready
        blinding factors from the pool (two modular multiplications per
        ciphertext) and only pay full exponentiations for values the
        pool cannot cover. One pool per public key; attaching another
        pool for the same key replaces the first.
        """
        self._pools[pool.public_key.n] = pool

    def detach_pool(self, public_key: PaillierPublicKey) -> None:
        """Stop draining the pool attached for ``public_key`` (no-op
        when none is attached)."""
        self._pools.pop(public_key.n, None)

    def pool_for(self, public_key: PaillierPublicKey
                 ) -> Optional["PrecomputedEncryptionPool"]:
        """The attached pool for ``public_key``, if any."""
        return self._pools.get(public_key.n)

    def _blinding_factors(
        self,
        public_key: PaillierPublicKey,
        count: int,
        rng: DeterministicRandom,
        private_key: Optional[PaillierPrivateKey] = None,
    ) -> List[int]:
        """``count`` blinding factors ``r^n mod n^2`` for ``public_key``.

        Pool factors first (one locked batch take), then exponentiations
        for the shortfall with nonces drawn serially from ``rng`` in
        order -- so with no pool attached the result is bit-identical to
        the canonical per-value encryption loop. A ``private_key`` with
        its factors computes the shortfall by CRT, to the same values.
        """
        pool = self._pools.get(public_key.n)
        factors: List[int] = []
        if pool is not None:
            factors = pool.take_factors(count)
            if factors and telemetry.enabled():
                telemetry.count("engine.pool_factors_drained", len(factors))
        shortfall = count - len(factors)
        if shortfall:
            n = public_key.n
            n_sq = public_key.n_squared
            nonces = [rng.random_unit(n) for _ in range(shortfall)]
            if private_key is not None and private_key.has_crt:
                crt = private_key.crt_params
                powmod = self.modexp.powmod
                factors.extend(crt.nonce_power(r, powmod) for r in nonces)
            else:
                factors.extend(
                    self.map_pow([(r, n, n_sq) for r in nonces])
                )
        return factors

    @staticmethod
    def _require_one_key(
        ciphertexts: Sequence[PaillierCiphertext], operation: str
    ) -> PaillierPublicKey:
        """All ciphertexts in a batch must share one public key --
        mixed-key batches would silently compute garbage under the
        first key's modulus."""
        public_key = ciphertexts[0].public_key
        for index, ciphertext in enumerate(ciphertexts):
            if ciphertext.public_key.n != public_key.n:
                raise EngineError(
                    f"{operation}: ciphertext {index} was encrypted under "
                    f"a different public key than ciphertext 0"
                )
        return public_key

    # -- batch primitives ---------------------------------------------------

    def encrypt_batch(
        self,
        public_key: PaillierPublicKey,
        values: Sequence[int],
        rng: Optional[DeterministicRandom] = None,
        private_key: Optional[PaillierPrivateKey] = None,
    ) -> List[PaillierCiphertext]:
        """Encrypt the signed integers ``values`` under ``public_key``.

        With no pool attached (:meth:`attach_pool`), nonces are drawn
        serially from ``rng`` in input order, then the ``r^n mod n^2``
        blinding exponentiations run as one batch; the combine step matches
        :meth:`PaillierPublicKey.encrypt` bit for bit. With a pool
        attached for this key, ready factors are drained first -- the
        online cost collapses to two modular multiplications per
        covered ciphertext -- and only the shortfall pays the
        exponentiation path. The key owner passes ``private_key`` to run
        that path by CRT, with identical ciphertexts.
        """
        if not values:
            return []
        if private_key is not None and \
                private_key.public_key.n != public_key.n:
            raise PaillierError("private key does not match the public key")
        rng = rng or default_rng()
        n = public_key.n
        n_sq = public_key.n_squared
        plaintexts = [public_key.encode_signed(v) for v in values]
        factors = self._blinding_factors(
            public_key, len(values), rng, private_key
        )
        return [
            PaillierCiphertext(
                public_key=public_key,
                value=((1 + m * n) % n_sq) * factor % n_sq,
            )
            for m, factor in zip(plaintexts, factors)
        ]

    def decrypt_batch(
        self,
        private_key: PaillierPrivateKey,
        ciphertexts: Sequence[PaillierCiphertext],
        signed: bool = True,
    ) -> List[int]:
        """Decrypt ``ciphertexts``; CRT-accelerated when the key holds
        its prime factors (two half-width jobs per ciphertext)."""
        if not ciphertexts:
            return []
        for ciphertext in ciphertexts:
            if ciphertext.public_key.n != private_key.public_key.n:
                raise PaillierError(
                    "ciphertext was encrypted under a different key"
                )
        public_key = private_key.public_key
        if private_key.has_crt:
            params = private_key.crt_params
            jobs: List[PowJob] = []
            for ciphertext in ciphertexts:
                c = ciphertext.value
                jobs.append((c % params.p_squared, params.p - 1,
                             params.p_squared))
                jobs.append((c % params.q_squared, params.q - 1,
                             params.q_squared))
            powers = self.map_pow(jobs)
            raws = [
                params.recombine(
                    params.half_decrypt_p(powers[2 * i]),
                    params.half_decrypt_q(powers[2 * i + 1]),
                )
                for i in range(len(ciphertexts))
            ]
        else:
            n = public_key.n
            n_sq = public_key.n_squared
            powers = self.map_pow(
                [(ct.value, private_key.lam, n_sq) for ct in ciphertexts]
            )
            raws = [((u - 1) // n) * private_key.mu % n for u in powers]
        if signed:
            return [public_key.decode_signed(raw) for raw in raws]
        return raws

    def scalar_mul_batch(
        self,
        ciphertexts: Sequence[PaillierCiphertext],
        scalars: Sequence[int],
    ) -> List[PaillierCiphertext]:
        """Elementwise homomorphic scalar multiplication by signed
        scalars (matching ``ciphertext * scalar``: a negative scalar
        inverts the ciphertext and keeps its own width)."""
        if len(ciphertexts) != len(scalars):
            raise EngineError(
                f"{len(ciphertexts)} ciphertexts vs {len(scalars)} scalars"
            )
        if not ciphertexts:
            return []
        public_key = self._require_one_key(ciphertexts, "scalar_mul_batch")
        powers = self.map_pow([
            ct.signed_pow_job(s) for ct, s in zip(ciphertexts, scalars)
        ])
        return [
            PaillierCiphertext(public_key=public_key, value=value)
            for value in powers
        ]

    def rerandomize_batch(
        self,
        ciphertexts: Sequence[PaillierCiphertext],
        rng: Optional[DeterministicRandom] = None,
    ) -> List[PaillierCiphertext]:
        """Re-randomise every ciphertext with a fresh nonce (drawn
        serially from ``rng`` in input order; ready factors from an
        attached pool are drained first, exactly as in
        :meth:`encrypt_batch`)."""
        if not ciphertexts:
            return []
        rng = rng or default_rng()
        public_key = self._require_one_key(ciphertexts, "rerandomize_batch")
        n_sq = public_key.n_squared
        factors = self._blinding_factors(public_key, len(ciphertexts), rng)
        return [
            PaillierCiphertext(
                public_key=public_key, value=ct.value * factor % n_sq
            )
            for ct, factor in zip(ciphertexts, factors)
        ]

    def blind_batch(
        self,
        ciphertexts: Sequence[PaillierCiphertext],
        scalars: Sequence[int],
        offsets: Sequence[Optional[int]],
        rng: Optional[DeterministicRandom] = None,
    ) -> List[PaillierCiphertext]:
        """Blind, shift and refresh: ``[rho_i * m_i + a_i]`` under a
        fresh nonce, i.e. ``c_i^rho_i * (1 + a_i n) * r_i^n mod n^2``.

        Each ``rho_i`` is a raw element of ``Z_n`` at full width (the
        protocols' multiplicative blinding); an offset of ``None`` adds
        nothing. Each output is one :func:`_multiexp` over ``[c_i, r_i]``,
        so the blinding power and the refresh share one squaring chain;
        that needs the nonce ``r_i`` itself, so an attached pool's ready
        powers are not drawn here. Nonces come serially from ``rng`` in
        input order, so with no pool attached the result is
        bit-identical to scalar multiplication by ``rho_i``, the offset
        add and then :meth:`rerandomize_batch`.
        """
        if not len(ciphertexts) == len(scalars) == len(offsets):
            raise EngineError(
                f"{len(ciphertexts)} ciphertexts vs {len(scalars)} scalars "
                f"vs {len(offsets)} offsets"
            )
        if not ciphertexts:
            return []
        rng = rng or default_rng()
        public_key = self._require_one_key(ciphertexts, "blind_batch")
        n = public_key.n
        n_sq = public_key.n_squared
        blinded: List[PaillierCiphertext] = []
        for ct, scalar, offset in zip(ciphertexts, scalars, offsets):
            value = self.multiexp(
                [ct.value, rng.random_unit(n)], [scalar % n, n], n_sq
            )
            if offset is not None:
                value = value * (1 + public_key.encode_signed(offset) * n)
            blinded.append(
                PaillierCiphertext(public_key=public_key, value=value % n_sq)
            )
        return blinded

    def dot_product(
        self,
        ciphertexts: Sequence[PaillierCiphertext],
        weights: Sequence[int],
    ) -> Optional[PaillierCiphertext]:
        """Fused ``[sum_i w_i * x_i]`` by simultaneous multi-exponentiation.

        Zero weights are skipped; negative weights invert the ciphertext
        (extended gcd) so every exponent stays at the weight's own bit
        width. Returns ``None`` when every weight is zero -- the caller
        decides how to represent an encrypted zero (usually a fresh
        encryption, which costs accounted randomness).
        """
        if len(ciphertexts) != len(weights):
            raise EngineError(
                f"{len(ciphertexts)} ciphertexts vs {len(weights)} weights"
            )
        if ciphertexts:
            self._require_one_key(ciphertexts, "dot_product")
        bases: List[int] = []
        exponents: List[int] = []
        public_key: Optional[PaillierPublicKey] = None
        n_sq = 0
        for ciphertext, weight in zip(ciphertexts, weights):
            if weight == 0:
                continue
            if public_key is None:
                public_key = ciphertext.public_key
                n_sq = public_key.n_squared
            if weight > 0:
                bases.append(ciphertext.value)
                exponents.append(weight)
            else:
                bases.append(modinv(ciphertext.value, n_sq))
                exponents.append(-weight)
        if public_key is None:
            return None
        value = self.multiexp(bases, exponents, n_sq)
        return PaillierCiphertext(public_key=public_key, value=value)
