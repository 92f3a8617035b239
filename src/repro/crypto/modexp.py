"""Fast modular exponentiation: pluggable backends and fixed-base windows.

Every hot path in this library -- Paillier encryption, DGK encryption,
blinding-factor precomputation, batch decryption -- bottoms out in
``pow(base, exponent, modulus)`` over multi-hundred-bit integers. This
module is the single place that kernel lives:

* **Pluggable bignum backends.** :class:`PythonModexp` wraps the
  built-in ``pow`` and stays the canonical reference; :class:`Gmpy2Modexp`
  dispatches to ``gmpy2.powmod`` (GMP) when the optional ``gmpy2``
  package is importable -- a capability probe, never a hard dependency.
  Both backends are bit-for-bit identical on every input, so switching
  backends can change wall-clock time only, never a ciphertext. The
  process-wide default is selected with :func:`set_default_backend`
  (``"auto"`` probes gmpy2 and falls back to pure Python), seeded from
  the ``REPRO_CRYPTO_BACKEND`` environment variable, and surfaced on
  the CLI as ``--crypto-backend``.

* **Fixed-base windowed exponentiation.** The protocols exponentiate a
  tiny set of *fixed* bases with varying exponents: Paillier blinding
  raises one subgroup generator to fresh exponents, DGK encryption is
  ``g^m * h^r`` for the per-key generators ``g`` and ``h``. For a fixed
  base, :class:`FixedBaseWindow` precomputes ``base^(d * 2^(w*i))`` for
  every window digit ``d`` and position ``i``; each subsequent
  exponentiation is then ``ceil(bits / w)`` modular multiplications and
  **zero** squarings -- 5-10x fewer multiplications than a general
  square-and-multiply ladder, which is a 4-7x wall-clock win even in
  pure Python (see ``docs/PERFORMANCE.md`` for the memory/speed
  trade-off across window sizes).

* **CRT with the factors.** The key owner knows ``p`` and ``q`` and
  computes its blinding factors ``r^n mod n^2`` by CRT
  (:meth:`repro.crypto.paillier._CrtParams.nonce_power`); that kernel
  lives with the other CRT constants of the private key and takes its
  ``powmod`` from here.

Determinism note: backends are interchangeable *by construction* --
``powmod`` is a pure function of its integer arguments -- so the
engine-parity guarantees documented in :mod:`repro.crypto.engine`
(identical ciphertexts under a fixed seed) hold across backends too.
The parity tests in ``tests/crypto/test_modexp.py`` pin this down with
randomized cross-checks against the built-in ``pow``.
"""

from __future__ import annotations

import os
import threading
from typing import List, Optional, Sequence, Union

import repro.telemetry as telemetry

#: Backend names accepted everywhere a backend is selected by name
#: (``SessionConfig.crypto_backend``, ``--crypto-backend``, the
#: ``REPRO_CRYPTO_BACKEND`` environment variable).
MODEXP_BACKENDS = ("auto", "python", "gmpy2")

#: Environment variable consulted for the initial process-wide default.
BACKEND_ENV_VAR = "REPRO_CRYPTO_BACKEND"


class ModexpError(Exception):
    """Raised on misuse or misconfiguration of the modexp layer."""


class PythonModexp:
    """The canonical backend: CPython's built-in three-argument ``pow``.

    Always available; every other backend must match it bit for bit.
    """

    name = "python"

    @staticmethod
    def powmod(base: int, exponent: int, modulus: int) -> int:
        """``base ** exponent mod modulus`` via the built-in ``pow``."""
        return pow(base, exponent, modulus)

    @staticmethod
    def wrap(value: int):
        """Convert to the backend's native integer type (identity here)."""
        return value

    @staticmethod
    def unwrap(value) -> int:
        """Convert a native integer back to a Python ``int``."""
        return int(value)


class Gmpy2Modexp:
    """GMP-accelerated backend over ``gmpy2.powmod`` / ``gmpy2.mpz``.

    Construction raises :class:`ModexpError` when ``gmpy2`` is not
    importable; use :func:`gmpy2_available` to probe without raising,
    or resolve ``"auto"`` to fall back silently.
    """

    name = "gmpy2"

    def __init__(self) -> None:
        try:
            import gmpy2
        except ImportError as exc:
            raise ModexpError(
                "the gmpy2 backend needs the optional 'gmpy2' package "
                "(pip install gmpy2); use --crypto-backend auto to fall "
                "back to pure Python when it is missing"
            ) from exc
        self._powmod = gmpy2.powmod
        self._mpz = gmpy2.mpz

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        """``base ** exponent mod modulus`` via GMP's ``powmod``."""
        return int(self._powmod(base, exponent, modulus))

    def wrap(self, value: int):
        """Convert to ``gmpy2.mpz`` so chained multiplications stay in GMP."""
        return self._mpz(value)

    @staticmethod
    def unwrap(value) -> int:
        """Convert an ``mpz`` back to a Python ``int``."""
        return int(value)


ModexpBackend = Union[PythonModexp, Gmpy2Modexp]

_probe_lock = threading.Lock()
_instances: dict = {}


def gmpy2_available() -> bool:
    """Capability probe: whether the gmpy2 backend can be constructed."""
    try:
        _instance("gmpy2")
    except ModexpError:
        return False
    return True


def _instance(name: str) -> ModexpBackend:
    """One shared instance per concrete backend (probe results cached)."""
    with _probe_lock:
        backend = _instances.get(name)
        if backend is None:
            if name == "python":
                backend = PythonModexp()
            elif name == "gmpy2":
                backend = Gmpy2Modexp()
            else:
                raise ModexpError(
                    f"unknown modexp backend {name!r}; "
                    f"expected one of {MODEXP_BACKENDS}"
                )
            _instances[name] = backend
        return backend


def resolve_backend(
    backend: Union[str, ModexpBackend, None] = "auto",
) -> ModexpBackend:
    """Resolve a backend name (or pass an instance through).

    ``"auto"`` (and ``None``) probe for gmpy2 and fall back to pure
    Python; ``"python"`` and ``"gmpy2"`` select explicitly, raising
    :class:`ModexpError` when an explicit choice is unavailable.
    """
    if backend is None:
        backend = "auto"
    if not isinstance(backend, str):
        return backend
    if backend == "auto":
        try:
            return _instance("gmpy2")
        except ModexpError:
            return _instance("python")
    return _instance(backend)


_default_lock = threading.Lock()
_default_backend: Optional[ModexpBackend] = None


def set_default_backend(
    backend: Union[str, ModexpBackend] = "auto",
) -> ModexpBackend:
    """Select the process-wide default backend; returns the resolved one."""
    global _default_backend
    resolved = resolve_backend(backend)
    with _default_lock:
        _default_backend = resolved
    return resolved


def get_default_backend() -> ModexpBackend:
    """The process-wide default backend.

    Resolved lazily on first use from the ``REPRO_CRYPTO_BACKEND``
    environment variable (default ``"auto"``), so merely importing this
    module never raises on a missing optional dependency.
    """
    global _default_backend
    with _default_lock:
        backend = _default_backend
    if backend is None:
        backend = set_default_backend(
            os.environ.get(BACKEND_ENV_VAR, "auto")
        )
    return backend


def powmod(base: int, exponent: int, modulus: int) -> int:
    """``base ** exponent mod modulus`` through the default backend."""
    return get_default_backend().powmod(base, exponent, modulus)


def default_window_bits(exponent_bits: int) -> int:
    """Window width minimising online multiplications at sane memory.

    ``ceil(bits / w)`` multiplications per exponentiation against
    ``ceil(bits / w) * (2^w - 1)`` precomputed table entries: w=4 keeps
    tables tiny for short exponents, w=6 is the sweet spot for the
    256-1024 bit exponents the cryptosystems here use (sub-megabyte
    tables, ~6x fewer multiplications than square-and-multiply), w=7
    only pays above a kilobit. The benchmark sweep in
    ``benchmarks/bench_e20_engine.py`` backs these breakpoints.
    """
    if exponent_bits <= 0:
        raise ModexpError(
            f"exponent_bits must be positive, got {exponent_bits}"
        )
    if exponent_bits < 128:
        return 4
    if exponent_bits < 1024:
        return 6
    return 7


class FixedBaseWindow:
    """Precomputed window table for one fixed base.

    For a window of ``w`` bits over exponents up to ``exponent_bits``
    long, stores ``base^(d * 2^(w*i)) mod modulus`` for every digit
    value ``d`` in ``[1, 2^w)`` and digit position ``i``. Raising the
    base to any in-range exponent is then one table lookup and one
    modular multiplication per non-zero digit -- no squarings at all.

    The table is built once per (base, modulus) pair and reused for
    every exponentiation; entries are stored in the backend's native
    integer type so a GMP backend multiplies without per-step
    conversions.

    Parameters
    ----------
    base:
        The fixed base, in ``[1, modulus)``.
    modulus:
        The modulus (> 1).
    exponent_bits:
        Maximum exponent bit-length the table must cover.
    window_bits:
        Window width ``w``; default via :func:`default_window_bits`.
    backend:
        Backend instance or name; default: the process default.
    """

    def __init__(
        self,
        base: int,
        modulus: int,
        exponent_bits: int,
        window_bits: Optional[int] = None,
        backend: Union[str, ModexpBackend, None] = None,
    ) -> None:
        if modulus <= 1:
            raise ModexpError(f"modulus must exceed 1, got {modulus}")
        if not 1 <= base < modulus:
            raise ModexpError(
                f"base must lie in [1, modulus), got {base}"
            )
        if exponent_bits <= 0:
            raise ModexpError(
                f"exponent_bits must be positive, got {exponent_bits}"
            )
        if window_bits is None:
            window_bits = default_window_bits(exponent_bits)
        if not 1 <= window_bits <= 16:
            raise ModexpError(
                f"window_bits must lie in [1, 16], got {window_bits}"
            )
        self.backend = resolve_backend(backend or get_default_backend())
        self.base = base
        self.modulus = modulus
        self.exponent_bits = exponent_bits
        self.window_bits = window_bits
        self.digits = -(-exponent_bits // window_bits)
        self._mask = (1 << window_bits) - 1
        self._mod = self.backend.wrap(modulus)
        self._one = self.backend.wrap(1)
        # rows[i][d] = base^(d << (w*i)) mod modulus; rows[i][0] unused.
        rows: List[List] = []
        mod = self._mod
        cursor = self.backend.wrap(base % modulus)
        for _ in range(self.digits):
            row = [self._one]
            acc = self._one
            for _ in range(self._mask):
                acc = acc * cursor % mod
                row.append(acc)
            rows.append(row)
            cursor = acc * cursor % mod
        self._rows = rows

    @property
    def table_entries(self) -> int:
        """Number of precomputed group elements held in memory."""
        return self.digits * self._mask

    def table_bytes(self) -> int:
        """Approximate table memory footprint in bytes."""
        entry = (self.modulus.bit_length() + 7) // 8
        return self.table_entries * entry

    def pow(self, exponent: int) -> int:
        """``base ** exponent mod modulus`` from the window table."""
        if exponent < 0:
            raise ModexpError(
                f"fixed-base exponent must be non-negative, got {exponent}"
            )
        if exponent.bit_length() > self.exponent_bits:
            raise ModexpError(
                f"exponent has {exponent.bit_length()} bits; this table "
                f"covers at most {self.exponent_bits}"
            )
        if telemetry.enabled():
            telemetry.count("modexp.fixed_base_pows")
        acc = self._one
        mod = self._mod
        mask = self._mask
        window = self.window_bits
        rows = self._rows
        index = 0
        while exponent:
            digit = exponent & mask
            if digit:
                acc = acc * rows[index][digit] % mod
            exponent >>= window
            index += 1
        return self.backend.unwrap(acc)

    def pow_many(self, exponents: Sequence[int]) -> List[int]:
        """Vectorised :meth:`pow` over a batch of exponents."""
        return [self.pow(exponent) for exponent in exponents]
