"""Oblivious transfer (OT) via RSA blinding (Even-Goldreich-Lempel).

The secure naive-Bayes and decision-tree protocols need *private table
lookup*: the client learns exactly one entry of a server-held table
without the server learning which. That primitive is 1-out-of-n OT,
which we build from the classic 1-out-of-2 construction:

1. the sender publishes an RSA key and two random group elements
   ``x_0, x_1``;
2. the receiver, holding choice bit ``b``, blinds: ``v = x_b + k^e``;
3. the sender derives ``k_i = (v - x_i)^d`` for both ``i`` and masks
   each message with a hash of the corresponding ``k_i``;
4. the receiver can strip the mask only for index ``b``.

For 1-out-of-n we run ``ceil(log2 n)`` parallel 1-of-2 transfers of
per-level key shares and mask each table entry with the XOR-combined
keys of its index bits (a standard tree construction).

The sender/receiver objects are deliberately stateful and message-driven
so they can be plugged into the :mod:`repro.smc` party runtime, which
accounts for every byte they exchange.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.crypto.numtheory import generate_prime, modinv
from repro.crypto.rand import DeterministicRandom, default_rng

DEFAULT_KEY_BITS = 512
_RSA_PUBLIC_EXPONENT = 65537


class OTError(Exception):
    """Raised on oblivious-transfer protocol misuse."""


def _mask_bytes(key: int, label: bytes, length: int) -> bytes:
    """Derive a ``length``-byte mask from ``key`` and a domain label.

    Expands SHA-256 in counter mode; the label separates the two message
    slots so identical keys cannot cause cross-slot leakage.
    """
    out = bytearray()
    counter = 0
    key_bytes = key.to_bytes((key.bit_length() + 7) // 8 or 1, "big")
    while len(out) < length:
        digest = hashlib.sha256(
            label + counter.to_bytes(4, "big") + key_bytes
        ).digest()
        out.extend(digest)
        counter += 1
    return bytes(out[:length])


def _xor_bytes(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


@dataclass(frozen=True)
class OTPublicParameters:
    """First sender message: RSA public key plus the two random points."""

    modulus: int
    exponent: int
    x0: int
    x1: int


class ObliviousTransferSender:
    """Sender side of 1-out-of-2 OT.

    Usage::

        sender = ObliviousTransferSender(rng=rng)
        params = sender.public_parameters()      # -> receiver
        # receiver sends back blinded value v
        masked0, masked1 = sender.respond(v, m0, m1)  # -> receiver
    """

    def __init__(
        self,
        key_bits: int = DEFAULT_KEY_BITS,
        rng: Optional[DeterministicRandom] = None,
    ) -> None:
        self._rng = rng or default_rng()
        half = key_bits // 2
        while True:
            p = generate_prime(half, rng=self._rng)
            q = generate_prime(half, rng=self._rng)
            if p == q:
                continue
            phi = (p - 1) * (q - 1)
            if phi % _RSA_PUBLIC_EXPONENT == 0:
                continue
            break
        self._n = p * q
        self._e = _RSA_PUBLIC_EXPONENT
        self._d = modinv(self._e, phi)
        self._x0 = self._rng.randbelow(self._n)
        self._x1 = self._rng.randbelow(self._n)

    def public_parameters(self) -> OTPublicParameters:
        """The sender's first message."""
        return OTPublicParameters(
            modulus=self._n, exponent=self._e, x0=self._x0, x1=self._x1
        )

    def respond(
        self, blinded: int, message0: bytes, message1: bytes
    ) -> Tuple[bytes, bytes]:
        """Produce the two masked messages given the receiver's blinding.

        The sender cannot tell which of ``k_0, k_1`` equals the
        receiver's secret ``k`` -- both are well-defined RSA preimages.
        """
        if not 0 <= blinded < self._n:
            raise OTError("blinded value outside the RSA group")
        k0 = pow((blinded - self._x0) % self._n, self._d, self._n)
        k1 = pow((blinded - self._x1) % self._n, self._d, self._n)
        masked0 = _xor_bytes(message0, _mask_bytes(k0, b"ot-slot-0", len(message0)))
        masked1 = _xor_bytes(message1, _mask_bytes(k1, b"ot-slot-1", len(message1)))
        return masked0, masked1


class ObliviousTransferReceiver:
    """Receiver side of 1-out-of-2 OT."""

    def __init__(self, rng: Optional[DeterministicRandom] = None) -> None:
        self._rng = rng or default_rng()
        self._params: Optional[OTPublicParameters] = None
        self._choice: Optional[int] = None
        self._secret: Optional[int] = None

    def blind(self, params: OTPublicParameters, choice: int) -> int:
        """Second message: blind the chosen point with a fresh RSA secret."""
        if choice not in (0, 1):
            raise OTError(f"choice must be a bit, got {choice!r}")
        self._params = params
        self._choice = choice
        self._secret = self._rng.randbelow(params.modulus)
        x = params.x0 if choice == 0 else params.x1
        return (x + pow(self._secret, params.exponent, params.modulus)) % params.modulus

    def unmask(self, masked0: bytes, masked1: bytes) -> bytes:
        """Recover the chosen message from the sender's response."""
        if self._params is None or self._choice is None or self._secret is None:
            raise OTError("unmask called before blind")
        masked = masked0 if self._choice == 0 else masked1
        label = b"ot-slot-0" if self._choice == 0 else b"ot-slot-1"
        return _xor_bytes(masked, _mask_bytes(self._secret, label, len(masked)))


def one_of_two_transfer(
    message0: bytes,
    message1: bytes,
    choice: int,
    rng: Optional[DeterministicRandom] = None,
    key_bits: int = DEFAULT_KEY_BITS,
) -> bytes:
    """Run a complete in-process 1-out-of-2 OT and return the chosen
    message. Convenience wrapper used by tests and by the 1-of-n builder.
    """
    if len(message0) != len(message1):
        raise OTError("OT messages must have equal length")
    rng = rng or default_rng()
    sender = ObliviousTransferSender(key_bits=key_bits, rng=rng)
    receiver = ObliviousTransferReceiver(rng=rng)
    params = sender.public_parameters()
    blinded = receiver.blind(params, choice)
    masked0, masked1 = sender.respond(blinded, message0, message1)
    return receiver.unmask(masked0, masked1)


def one_of_n_transfer(
    messages: Sequence[bytes],
    choice: int,
    rng: Optional[DeterministicRandom] = None,
    key_bits: int = DEFAULT_KEY_BITS,
) -> bytes:
    """1-out-of-n OT via the log-depth tree construction.

    For each bit position ``j`` of the index the sender draws two random
    level keys ``K_j^0, K_j^1`` and the receiver obtains ``K_j^{b_j}``
    through a 1-of-2 OT. Entry ``i`` of the table is masked with the XOR
    of the level keys matching ``i``'s bits, so the receiver can strip
    exactly one entry's mask.
    """
    if not messages:
        raise OTError("one_of_n_transfer needs a non-empty table")
    if not 0 <= choice < len(messages):
        raise OTError(f"choice {choice} outside table of size {len(messages)}")
    lengths = {len(m) for m in messages}
    if len(lengths) != 1:
        raise OTError("all OT table entries must have equal length")
    entry_len = lengths.pop()
    rng = rng or default_rng()

    n_bits = max(1, (len(messages) - 1).bit_length())
    level_keys: List[Tuple[bytes, bytes]] = [
        (
            rng.getrandbits(128).to_bytes(16, "big"),
            rng.getrandbits(128).to_bytes(16, "big"),
        )
        for _ in range(n_bits)
    ]

    # Receiver picks up one key per level obliviously.
    received_keys: List[bytes] = []
    for j in range(n_bits):
        bit = (choice >> j) & 1
        received_keys.append(
            one_of_two_transfer(
                level_keys[j][0], level_keys[j][1], bit, rng=rng, key_bits=key_bits
            )
        )

    # Sender publishes the fully masked table.
    masked_table: List[bytes] = []
    for index, message in enumerate(messages):
        mask = bytes(entry_len)
        for j in range(n_bits):
            key = level_keys[j][(index >> j) & 1]
            mask = _xor_bytes(mask, _mask_bytes(int.from_bytes(key, "big"),
                                                b"ot-tree-%d" % j, entry_len))
        masked_table.append(_xor_bytes(message, mask))

    # Receiver strips the masks of the chosen entry.
    result = masked_table[choice]
    for j in range(n_bits):
        result = _xor_bytes(
            result,
            _mask_bytes(int.from_bytes(received_keys[j], "big"),
                        b"ot-tree-%d" % j, entry_len),
        )
    return result
