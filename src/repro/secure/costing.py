"""Analytic execution traces for the secure protocols.

The disclosure optimizer evaluates thousands of candidate sets; running
live crypto for each is impossible, so these builders reproduce each
protocol's operation counts, traffic and rounds *analytically*. The
formulas mirror the protocol implementations in :mod:`repro.smc`
line-by-line; a test suite cross-checks them against live traces.

Two terms are data-dependent and priced at their expectations:

* the DGK comparison performs one extra homomorphic negation per
  1-bit of the server's value (expected half the width), and
* the encrypted comparison's server-side borrow reconstruction costs
  one extra scalar multiplication when the server's random share is 1
  (probability one half).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.smc.protocol import ExecutionTrace, Op
from repro.smc.wire import ELEMENT_OVERHEAD, FRAME_OVERHEAD

#: Wire element of a small non-negative integer (tag + u32 + 1-byte body):
#: shares, labels, feature values, OT indices below 128.
SMALL_INT_BYTES = ELEMENT_OVERHEAD + 1

#: Wire overhead of one list/tuple element (tag + u32 count).
LIST_OVERHEAD = ELEMENT_OVERHEAD


@dataclass(frozen=True)
class ProtocolSizes:
    """Key-size parameters that determine ciphertext wire sizes.

    All ``*_wire_bytes`` quantities are *element* sizes under the
    canonical codec (:mod:`repro.smc.wire`): tag byte + u32 length +
    body. Message formulas add :data:`~repro.smc.wire.FRAME_OVERHEAD`
    once per message and :data:`LIST_OVERHEAD` per (nested) list, so the
    analytic traces equal the live channel accounting -- and therefore
    the bytes observed on a real socket -- exactly.
    """

    paillier_bits: int = 512
    dgk_bits: int = 256
    statistical_security_bits: int = 40

    @property
    def paillier_ct_bytes(self) -> int:
        """A Paillier ciphertext body: an element of ``Z_{n^2}``."""
        return self.paillier_bits // 4

    @property
    def dgk_ct_bytes(self) -> int:
        """A DGK ciphertext body: an element of ``Z_n``."""
        return self.dgk_bits // 8

    @property
    def paillier_ct_wire_bytes(self) -> int:
        """A Paillier ciphertext element on the wire."""
        return ELEMENT_OVERHEAD + self.paillier_ct_bytes

    @property
    def dgk_ct_wire_bytes(self) -> int:
        """A DGK ciphertext element on the wire."""
        return ELEMENT_OVERHEAD + self.dgk_ct_bytes

    @property
    def blind_bytes(self) -> int:
        """Wire element of a revealed blinding quotient ``r >> l``:
        a ``kappa + 1``-bit integer in two's-complement encoding."""
        return ELEMENT_OVERHEAD + (self.statistical_security_bits + 1) // 8 + 1


def add_dgk_compare(trace: ExecutionTrace, bits: int, sizes: ProtocolSizes) -> None:
    """Costs of :func:`repro.smc.comparison.dgk_compare` on ``bits``-bit
    inputs (internal width is ``bits + 1`` after the doubling trick)."""
    width = bits + 1
    trace.count(Op.DGK_ENCRYPT, width + 1)       # client bits + server suffix seed
    trace.count(Op.DGK_ADD, width // 2 + 3 * width)  # xor(E[w/2]) + suffix + c_i
    trace.count(Op.DGK_SCALAR_MUL, 2 * width)
    trace.count(Op.DGK_ZERO_TEST, width)
    per_direction = FRAME_OVERHEAD + LIST_OVERHEAD + width * sizes.dgk_ct_wire_bytes
    trace.bytes_client_to_server += per_direction
    trace.bytes_server_to_client += per_direction
    trace.messages += 2
    trace.rounds += 2


def _add_blind_and_split(trace: ExecutionTrace, sizes: ProtocolSizes) -> None:
    """Shared head of both encrypted-comparison variants: blind, ship,
    decrypt."""
    trace.count(Op.PAILLIER_ADD)
    trace.count(Op.PAILLIER_RERANDOMIZE)
    trace.count(Op.PAILLIER_DECRYPT)
    trace.bytes_server_to_client += FRAME_OVERHEAD + sizes.paillier_ct_wire_bytes
    trace.messages += 1
    trace.rounds += 1


def add_compare_encrypted_client_learns(
    trace: ExecutionTrace, bits: int, sizes: ProtocolSizes
) -> None:
    """Costs of
    :func:`repro.smc.comparison.compare_encrypted_client_learns`."""
    _add_blind_and_split(trace, sizes)
    add_dgk_compare(trace, bits, sizes)
    # Reveal message: [r_high, server borrow share].
    trace.bytes_server_to_client += (
        FRAME_OVERHEAD + LIST_OVERHEAD + sizes.blind_bytes + SMALL_INT_BYTES
    )
    trace.messages += 1
    trace.rounds += 1


def add_compare_encrypted_batch(
    trace: ExecutionTrace, count: int, bits: int, sizes: ProtocolSizes
) -> None:
    """Costs of :func:`repro.smc.comparison.compare_encrypted_many`:
    per-instance operation counts, but a four-message transcript for
    the whole batch."""
    if count <= 0:
        return
    width = bits + 1
    # Server blinding batch (1 message).
    trace.count(Op.PAILLIER_ADD, count)
    trace.count(Op.PAILLIER_RERANDOMIZE, count)
    trace.bytes_server_to_client += (
        FRAME_OVERHEAD + LIST_OVERHEAD + count * sizes.paillier_ct_wire_bytes
    )
    trace.messages += 1
    trace.rounds += 1
    trace.count(Op.PAILLIER_DECRYPT, count)
    # Batched DGK (2 messages): a list of per-instance ciphertext lists.
    trace.count(Op.DGK_ENCRYPT, count * (width + 1))
    trace.count(Op.DGK_ADD, count * (width // 2 + 3 * width))
    trace.count(Op.DGK_SCALAR_MUL, count * 2 * width)
    trace.count(Op.DGK_ZERO_TEST, count * width)
    per_direction = FRAME_OVERHEAD + LIST_OVERHEAD + count * (
        LIST_OVERHEAD + width * sizes.dgk_ct_wire_bytes
    )
    trace.bytes_client_to_server += per_direction
    trace.bytes_server_to_client += per_direction
    trace.messages += 2
    trace.rounds += 2
    # Client correction batch (1 message) + server reconstruction.
    trace.count(Op.PAILLIER_ENCRYPT, 2 * count)
    trace.bytes_client_to_server += (
        FRAME_OVERHEAD + LIST_OVERHEAD + 2 * count * sizes.paillier_ct_wire_bytes
    )
    trace.messages += 1
    trace.rounds += 1
    trace.count(Op.PAILLIER_SCALAR_MUL, count)
    trace.count(Op.PAILLIER_ADD, 3 * count)


def add_sign_test(trace: ExecutionTrace, bits: int, sizes: ProtocolSizes) -> None:
    """Costs of :func:`repro.smc.comparison.sign_test_client_learns`."""
    trace.count(Op.PAILLIER_ADD)
    add_compare_encrypted_client_learns(trace, bits, sizes)


def add_secure_argmax(
    trace: ExecutionTrace, candidates: int, bits: int, sizes: ProtocolSizes
) -> None:
    """Costs of :func:`repro.smc.argmax.secure_argmax` over
    ``candidates`` encrypted values of ``bits`` bits."""
    if candidates <= 1:
        return
    iterations = candidates - 1
    for _ in range(iterations):
        trace.count(Op.PAILLIER_ADD, 2)               # z = challenger - max + 2^l
        add_compare_encrypted_client_learns(trace, bits, sizes)
        trace.count(Op.PAILLIER_ADD, 2)               # blinding adds
        trace.count(Op.PAILLIER_RERANDOMIZE, 2)       # blinded pair
        # The blinded pair continues the comparison's final
        # server-to-client run, so it costs a message but no new round.
        trace.bytes_server_to_client += (
            FRAME_OVERHEAD + LIST_OVERHEAD + 2 * sizes.paillier_ct_wire_bytes
        )
        trace.messages += 1
        trace.count(Op.PAILLIER_ENCRYPT, 1)           # encrypted bit
        trace.count(Op.PAILLIER_RERANDOMIZE, 1)       # client refresh
        trace.bytes_client_to_server += (
            FRAME_OVERHEAD + LIST_OVERHEAD + 2 * sizes.paillier_ct_wire_bytes
        )
        trace.messages += 1
        trace.rounds += 1
        trace.count(Op.PAILLIER_SCALAR_MUL, 1)        # un-blinding correction
        trace.count(Op.PAILLIER_ADD, 2)
    # Final OT over the inverse permutation table.
    ot_bits = max(1, (candidates - 1).bit_length())
    trace.count(Op.OT_TRANSFER_1OF2, ot_bits)
    # One 4-byte index entry per candidate, shipped as a list of bytes.
    trace.bytes_server_to_client += (
        FRAME_OVERHEAD + LIST_OVERHEAD + candidates * (ELEMENT_OVERHEAD + 4)
    )
    trace.messages += 1
    trace.rounds += 1


def add_encrypt_vector(
    trace: ExecutionTrace, length: int, sizes: ProtocolSizes
) -> None:
    """Costs of the client encrypting and shipping ``length`` values."""
    if length == 0:
        return
    trace.count(Op.PAILLIER_ENCRYPT, length)
    trace.bytes_client_to_server += (
        FRAME_OVERHEAD + LIST_OVERHEAD + length * sizes.paillier_ct_wire_bytes
    )
    trace.messages += 1
    trace.rounds += 1


def add_dot_product(
    trace: ExecutionTrace, nonzero_weights: int, sizes: ProtocolSizes
) -> None:
    """Server-side costs of one encrypted dot product (ciphertexts
    already delivered).

    The accumulator is seeded from the first nonzero term, so the only
    fresh encryption happens in the degenerate all-zero-weights case;
    the plaintext offset folds in as one extra addition.
    """
    if nonzero_weights == 0:
        trace.count(Op.PAILLIER_ENCRYPT, 1)           # offset accumulator
        return
    trace.count(Op.PAILLIER_SCALAR_MUL, nonzero_weights)
    trace.count(Op.PAILLIER_ADD, nonzero_weights)     # terms - 1, + offset


# -- share-protocol builders (the shares backend's cost model) ---------------
#
# The share protocol's wire elements are *fixed-width*: a share's body is
# ``u32(width) + modulus + value`` with both integers padded to the byte
# width of the ring modulus, so element sizes depend only on the ring --
# never on the shared magnitudes -- and the formulas below are exact,
# not expectations. Triple consumption is data-independent too
# (``max(l-2, 0) + l`` per comparison), so the analytic share traces
# equal the live channel accounting byte-for-byte.


def share_wire_bytes(modulus_bits: int) -> int:
    """Wire element size of one additive share in the ``2^modulus_bits``
    ring (tag + u32 length + u32 width + modulus + value)."""
    width = modulus_bits // 8 + 1  # modulus = 2^bits is a bits+1-bit int
    return ELEMENT_OVERHEAD + 4 + 2 * width


def add_share_vector(
    trace: ExecutionTrace,
    count: int,
    modulus_bits: int,
    *,
    client_to_server: bool,
) -> None:
    """One input-sharing message: a list of ``count`` shares crossing in
    one direction (:meth:`~repro.smc.shares.ShareSession.input_client` /
    ``input_server``)."""
    if count == 0:
        return
    size = (
        FRAME_OVERHEAD + LIST_OVERHEAD + count * share_wire_bytes(modulus_bits)
    )
    if client_to_server:
        trace.bytes_client_to_server += size
    else:
        trace.bytes_server_to_client += size
    trace.messages += 1
    trace.rounds += 1


def add_share_open_batch(
    trace: ExecutionTrace, count: int, modulus_bits: int
) -> None:
    """Costs of :meth:`~repro.smc.shares.ShareSession.open_batch`: both
    parties announce their ``count``-share vectors (two messages)."""
    if count == 0:
        return
    per_direction = (
        FRAME_OVERHEAD + LIST_OVERHEAD + count * share_wire_bytes(modulus_bits)
    )
    trace.bytes_client_to_server += per_direction
    trace.bytes_server_to_client += per_direction
    trace.messages += 2
    trace.rounds += 2


def add_share_multiply_batch(
    trace: ExecutionTrace, count: int, modulus_bits: int
) -> None:
    """Costs of :meth:`~repro.smc.shares.ShareSession.multiply_batch`:
    ``count`` Beaver triples and one opening of ``2 * count`` masked
    differences."""
    if count == 0:
        return
    trace.count(Op.SHARE_MUL_TRIPLE, count)
    add_share_open_batch(trace, 2 * count, modulus_bits)


def add_share_reveal(trace: ExecutionTrace, modulus_bits: int) -> None:
    """Costs of revealing one shared value to the client: the server
    announces a single share element."""
    trace.bytes_server_to_client += FRAME_OVERHEAD + share_wire_bytes(
        modulus_bits
    )
    trace.messages += 1
    trace.rounds += 1


def add_share_dot_products(
    trace: ExecutionTrace, nonzero_total: int, modulus_bits: int
) -> None:
    """Costs of :func:`repro.smc.dotproduct.shared_dot_products` over
    ``nonzero_total`` nonzero weight terms summed across *all* rows: one
    server input-sharing message plus a single batched multiplication
    (rows with no nonzero hidden weight are free)."""
    if nonzero_total == 0:
        return
    add_share_vector(
        trace, nonzero_total, modulus_bits, client_to_server=False
    )
    add_share_multiply_batch(trace, nonzero_total, modulus_bits)


def add_share_compare(
    trace: ExecutionTrace, bits: int, modulus_bits: int
) -> None:
    """Costs of :func:`repro.smc.comparison.share_compare_shared` /
    ``_share_z_bit`` on a ``bits``-bit magnitude: one masked opening,
    ``max(bits - 2, 0)`` sequential suffix-product multiplications and
    one final batch of ``bits`` term multiplications."""
    add_share_open_batch(trace, 1, modulus_bits)
    for _ in range(max(bits - 2, 0)):
        add_share_multiply_batch(trace, 1, modulus_bits)
    add_share_multiply_batch(trace, bits, modulus_bits)


def add_share_sign_test(
    trace: ExecutionTrace, bits: int, modulus_bits: int
) -> None:
    """Costs of
    :func:`repro.smc.comparison.share_sign_test_client_learns`."""
    add_share_compare(trace, bits, modulus_bits)
    add_share_reveal(trace, modulus_bits)


def add_share_argmax(
    trace: ExecutionTrace, candidates: int, bits: int, modulus_bits: int
) -> None:
    """Costs of :func:`repro.smc.argmax.share_secure_argmax`: one share
    comparison plus a two-element multiplexing batch per tournament
    round, then a single index reveal."""
    if candidates <= 1:
        return
    for _ in range(candidates - 1):
        add_share_compare(trace, bits, modulus_bits)
        add_share_multiply_batch(trace, 2, modulus_bits)
    add_share_reveal(trace, modulus_bits)


def add_indicator_lookup(
    trace: ExecutionTrace, domain_size: int, sizes: ProtocolSizes
) -> None:
    """Server-side costs of one indicator-vector table lookup (the
    accumulator is seeded from the first nonzero table entry)."""
    trace.count(Op.PAILLIER_SCALAR_MUL, domain_size)
    trace.count(Op.PAILLIER_ADD, domain_size)


def add_leaf_selection(
    trace: ExecutionTrace,
    leaves: int,
    internal_nodes: int,
    mean_depth: float,
    sizes: ProtocolSizes,
) -> None:
    """Costs of the decision tree's blinded leaf-selection round:
    per-leaf path-cost accumulation, two blinded lists, client scan."""
    # Path-cost sums: one homomorphic add per edge on each root-leaf path.
    trace.count(Op.PAILLIER_ADD, int(round(leaves * mean_depth)))
    # Per leaf: two blinding scalar-muls, one label add, rerandomise both.
    trace.count(Op.PAILLIER_SCALAR_MUL, 2 * leaves)
    trace.count(Op.PAILLIER_ADD, leaves)
    trace.count(Op.PAILLIER_RERANDOMIZE, 2 * leaves)
    # One flat list interleaving (cost, label-slot) ciphertext pairs.
    trace.bytes_server_to_client += (
        FRAME_OVERHEAD + LIST_OVERHEAD + 2 * leaves * sizes.paillier_ct_wire_bytes
    )
    trace.messages += 1
    trace.rounds += 1
    # Client decrypts the cost list until the zero, then one label.
    trace.count(Op.PAILLIER_DECRYPT, leaves + 1)
