"""Cryptographic primitives used by the secure-classification protocols.

Everything here is implemented from scratch in pure Python on top of
arbitrary-precision integers. The package provides:

* :mod:`repro.crypto.numtheory` -- primality testing, prime generation,
  modular arithmetic helpers (CRT, inverses).
* :mod:`repro.crypto.rand` -- a seedable deterministic random source so
  experiments are reproducible end to end.
* :mod:`repro.crypto.paillier` -- the Paillier additively homomorphic
  cryptosystem (the workhorse of Bost-style secure classifiers), with
  CRT-accelerated decryption and key-owner encryption.
* :mod:`repro.crypto.modexp` -- the pluggable bignum kernel behind
  every modular exponentiation: the canonical built-in ``pow``, an
  optional ``gmpy2`` (GMP) backend and fixed-base windowed
  exponentiation tables. All backends are bit-for-bit
  interchangeable; the process default is the one switch.
* :mod:`repro.crypto.engine` -- the batch crypto engine: bulk
  encrypt/decrypt/re-randomise/blind work and fused
  multi-exponentiation dot products.
* :mod:`repro.crypto.stockpile` -- the one thread-safe stockpile,
  filled by an explicit offline refill, behind the offline phases: the
  precomputed encryption pool (:mod:`repro.crypto.precompute`) and the
  Beaver triple store (:mod:`repro.crypto.triples`).
* :mod:`repro.crypto.dgk` -- a Damgaard-Geisler-Kroigaard style
  small-plaintext cryptosystem with cheap zero testing, used by the
  secure comparison protocol.
* :mod:`repro.crypto.ot` -- 1-out-of-2 and 1-out-of-n oblivious transfer
  built from RSA blinding, used by the argmax index reveal and the
  garbled-circuit input transfer.
* :mod:`repro.crypto.secret_sharing` -- additive secret sharing.
* :mod:`repro.crypto.beaver` -- Beaver multiplication-triple and
  comparison-mask dealing for the share protocol layer.

Security note: this is a research artifact. Key sizes default to values
that make pure-Python experiments practical; the analytic cost model in
:mod:`repro.smc.cost_model` extrapolates measurements to production key
sizes. Do not use this package to protect real data.
"""

from repro.crypto.beaver import BeaverTriple, TrustedDealer
from repro.crypto.dgk import DgkCiphertext, DgkKeyPair, DgkPrivateKey, DgkPublicKey
from repro.crypto.engine import CryptoEngine
from repro.crypto.modexp import (
    MODEXP_BACKENDS,
    FixedBaseWindow,
    gmpy2_available,
    powmod,
    resolve_backend,
)
from repro.crypto.ot import ObliviousTransferReceiver, ObliviousTransferSender
from repro.crypto.paillier import (
    PaillierCiphertext,
    PaillierKeyPair,
    PaillierPrivateKey,
    PaillierPublicKey,
)
from repro.crypto.precompute import PrecomputedEncryptionPool
from repro.crypto.rand import DeterministicRandom, default_rng
from repro.crypto.secret_sharing import AdditiveSecretSharer

__all__ = [
    "AdditiveSecretSharer",
    "BeaverTriple",
    "CryptoEngine",
    "DeterministicRandom",
    "DgkCiphertext",
    "DgkKeyPair",
    "DgkPrivateKey",
    "DgkPublicKey",
    "FixedBaseWindow",
    "MODEXP_BACKENDS",
    "ObliviousTransferReceiver",
    "ObliviousTransferSender",
    "PaillierCiphertext",
    "PaillierKeyPair",
    "PaillierPrivateKey",
    "PaillierPublicKey",
    "PrecomputedEncryptionPool",
    "TrustedDealer",
    "default_rng",
    "gmpy2_available",
    "powmod",
    "resolve_backend",
]
