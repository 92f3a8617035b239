"""Additive secret sharing.

The share protocol layer (:mod:`repro.smc.shares`) and the Beaver
dealer (:mod:`repro.crypto.beaver`) run over these additive shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.crypto.rand import DeterministicRandom, default_rng

DEFAULT_MODULUS_BITS = 64


class SecretSharingError(Exception):
    """Raised on invalid sharing or reconstruction requests."""


@dataclass(frozen=True)
class AdditiveShare:
    """One party's additive share: a value in ``Z_modulus``."""

    value: int
    modulus: int

    def __add__(self, other) -> "AdditiveShare":
        if isinstance(other, AdditiveShare):
            if other.modulus != self.modulus:
                raise SecretSharingError("share moduli differ")
            return AdditiveShare((self.value + other.value) % self.modulus, self.modulus)
        if isinstance(other, int):
            return AdditiveShare((self.value + other) % self.modulus, self.modulus)
        return NotImplemented

    def __radd__(self, other) -> "AdditiveShare":
        return self.__add__(other)

    def __sub__(self, other) -> "AdditiveShare":
        if isinstance(other, AdditiveShare):
            if other.modulus != self.modulus:
                raise SecretSharingError("share moduli differ")
            return AdditiveShare((self.value - other.value) % self.modulus, self.modulus)
        if isinstance(other, int):
            return AdditiveShare((self.value - other) % self.modulus, self.modulus)
        return NotImplemented

    def __mul__(self, scalar) -> "AdditiveShare":
        if not isinstance(scalar, int):
            return NotImplemented
        return AdditiveShare((self.value * scalar) % self.modulus, self.modulus)

    def __rmul__(self, scalar) -> "AdditiveShare":
        return self.__mul__(scalar)


class AdditiveSecretSharer:
    """Split integers into ``n`` additive shares modulo ``2^k`` or a prime.

    Signed values are supported through the usual centred decoding: a
    reconstructed value above ``modulus // 2`` is interpreted as
    negative.
    """

    def __init__(
        self,
        modulus: int = 1 << DEFAULT_MODULUS_BITS,
        rng: Optional[DeterministicRandom] = None,
    ) -> None:
        if modulus < 2:
            raise SecretSharingError(f"modulus must be >= 2, got {modulus}")
        self.modulus = modulus
        self._rng = rng or default_rng()

    def share(self, secret: int, parties: int = 2) -> List[AdditiveShare]:
        """Split ``secret`` into ``parties`` uniformly random shares."""
        if parties < 2:
            raise SecretSharingError(f"need at least 2 parties, got {parties}")
        shares = [self._rng.randbelow(self.modulus) for _ in range(parties - 1)]
        last = (secret - sum(shares)) % self.modulus
        shares.append(last)
        return [AdditiveShare(s, self.modulus) for s in shares]

    def reconstruct(self, shares: Sequence[AdditiveShare]) -> int:
        """Recombine shares into the signed secret."""
        if not shares:
            raise SecretSharingError("cannot reconstruct from zero shares")
        moduli = {s.modulus for s in shares}
        if moduli != {self.modulus}:
            raise SecretSharingError("shares carry a different modulus")
        raw = sum(s.value for s in shares) % self.modulus
        return self.decode_signed(raw)

    def decode_signed(self, raw: int) -> int:
        """Centred decoding of a raw group element."""
        if raw > self.modulus // 2:
            return raw - self.modulus
        return raw
