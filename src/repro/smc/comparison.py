"""Secure comparison protocols.

Two layers, mirroring Bost et al. (NDSS 2015):

1. :func:`dgk_compare` -- the DGK private-input comparison. The client
   holds ``x``, the server holds ``y``; afterwards the parties hold an
   XOR-sharing of the bit ``x < y``. Equality is handled by the Veugen
   doubling trick (comparing ``2x + 1`` against ``2y``, which are never
   equal), so the protocol is exact for all inputs.

2. :func:`compare_encrypted` -- the Veugen/Bost comparison over
   *encrypted* values: the server holds ``[z] = [2^l + a - b]`` under the
   client's Paillier key and ends up with an encryption of the bit
   ``a >= b`` without either party learning anything else. A variant,
   :func:`compare_encrypted_client_learns`, reveals the bit to the
   client instead (the form the argmax and hyperplane protocols need).

The bit-length parameter ``l`` bounds the compared magnitudes; all
protocol costs are linear in ``l``, which is exactly the lever the
paper's disclosure optimization pulls on (fewer hidden features =>
smaller intermediate values and fewer comparisons).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.crypto.dgk import DgkCiphertext
from repro.crypto.paillier import PaillierCiphertext
from repro.smc.context import TwoPartyContext
from repro.smc.protocol import Op, protocol_entry
from repro.smc.shares import SharedValue, ShareSession


class ComparisonError(Exception):
    """Raised on out-of-range comparison inputs."""


@dataclass(frozen=True)
class SharedBit:
    """An XOR-sharing of one bit between the two parties."""

    client_share: int
    server_share: int

    @property
    def value(self) -> int:
        """Reconstruct the plain bit (test/diagnostic use only)."""
        return self.client_share ^ self.server_share


def _bits_lsb_first(value: int, width: int) -> List[int]:
    """Decompose ``value`` into ``width`` bits, least significant first."""
    return [(value >> i) & 1 for i in range(width)]


def _dgk_width(
    ctx: TwoPartyContext, pairs: Sequence[Tuple[int, int]], bit_length: int
) -> int:
    """Validate DGK comparison inputs; returns the padded bit width."""
    upper = 1 << bit_length
    for client_value, server_value in pairs:
        if not 0 <= client_value < upper:
            raise ComparisonError(
                f"client value {client_value} outside [0, 2^{bit_length})"
            )
        if not 0 <= server_value < upper:
            raise ComparisonError(
                f"server value {server_value} outside [0, 2^{bit_length})"
            )
    width = bit_length + 1
    u = ctx.dgk.public_key.u
    if 3 * (width + 2) >= u:
        raise ComparisonError(
            f"DGK plaintext space u={u} too small for {bit_length}-bit "
            f"comparison"
        )
    return width


# One DGK instance in three steps, shared by the single and the batched
# entry point. Veugen doubling: X = 2x + 1 vs Y = 2y are never equal,
# and X < Y  <=>  x < y.


def _dgk_client_bits(
    ctx: TwoPartyContext, client_value: int, width: int
) -> List[DgkCiphertext]:
    """Client: encrypt the bits of ``X`` under its DGK key."""
    ctx.trace.count(Op.DGK_ENCRYPT, width)
    return [
        ctx.dgk.public_key.encrypt(bit, rng=ctx.client_rng)
        for bit in _bits_lsb_first(2 * client_value + 1, width)
    ]


def _dgk_server_blind(
    ctx: TwoPartyContext,
    encrypted_bits: Sequence[DgkCiphertext],
    server_value: int,
    width: int,
) -> Tuple[int, List[DgkCiphertext]]:
    """Server: the shuffled, blinded difference terms and its share."""
    u = ctx.dgk.public_key.u
    y_bits = _bits_lsb_first(2 * server_value, width)
    server_share = ctx.server_rng.randbelow(2)
    sign = 1 - 2 * server_share  # +1 when share 0, -1 when share 1

    # xor_i = x_i XOR y_i, computed homomorphically from plaintext y_i.
    xor_terms: List[DgkCiphertext] = []
    for enc_bit, y_bit in zip(encrypted_bits, y_bits):
        if y_bit:
            ctx.trace.count(Op.DGK_ADD)
            xor_terms.append((-enc_bit) + 1)
        else:
            xor_terms.append(enc_bit)

    # Suffix sums w_i = sum_{j > i} xor_j, built most-significant first.
    suffix: List[DgkCiphertext] = [None] * width  # type: ignore[list-item]
    running = ctx.dgk.public_key.encrypt(0, rng=ctx.server_rng)
    ctx.trace.count(Op.DGK_ENCRYPT)
    for i in range(width - 1, -1, -1):
        suffix[i] = running
        ctx.trace.count(Op.DGK_ADD)
        running = running + xor_terms[i]

    blinded: List[DgkCiphertext] = []
    for i in range(width):
        # c_i = x_i - y_i + sign + 3 * w_i, multiplicatively blinded.
        ctx.trace.count(Op.DGK_ADD, 2)
        ctx.trace.count(Op.DGK_SCALAR_MUL, 2)
        c_i = encrypted_bits[i] + (-y_bits[i] + sign) + suffix[i] * 3
        rho = 1 + ctx.server_rng.randbelow(u - 1)
        blinded.append(c_i * rho)
    ctx.server_rng.shuffle(blinded)
    return server_share, blinded


def _dgk_zero_test(
    ctx: TwoPartyContext, blinded: Sequence[DgkCiphertext], server_share: int
) -> SharedBit:
    """Client: a zero among the terms decides the (share-flipped)
    outcome."""
    ctx.trace.count(Op.DGK_ZERO_TEST, len(blinded))
    found_zero = any(ctx.dgk.private_key.is_zero(c) for c in blinded)
    return SharedBit(client_share=int(found_zero), server_share=server_share)


@protocol_entry(span="dgk.compare")
def dgk_compare(
    ctx: TwoPartyContext, client_value: int, server_value: int, bit_length: int
) -> SharedBit:
    """DGK comparison of private inputs; returns XOR-shared ``x < y``.

    Parameters
    ----------
    ctx:
        Session context (client owns the DGK key).
    client_value:
        The client's private input ``x`` in ``[0, 2^bit_length)``.
    server_value:
        The server's private input ``y`` in ``[0, 2^bit_length)``.
    bit_length:
        Magnitude bound for both inputs.
    """
    width = _dgk_width(ctx, [(client_value, server_value)], bit_length)
    encrypted_bits = _dgk_client_bits(ctx, client_value, width)
    # The comparison is a fresh protocol phase: its first message opens a
    # new round regardless of which party spoke last in the composition.
    ctx.channel.reset_direction()
    encrypted_bits = ctx.channel.client_sends(encrypted_bits)
    server_share, blinded = _dgk_server_blind(
        ctx, encrypted_bits, server_value, width
    )
    blinded = ctx.channel.server_sends(blinded)
    return _dgk_zero_test(ctx, blinded, server_share)


@protocol_entry(span="dgk.compare_many")
def dgk_compare_many(
    ctx: TwoPartyContext,
    pairs: Sequence[Tuple[int, int]],
    bit_length: int,
) -> List[SharedBit]:
    """Batched DGK comparisons: all instances share one round trip.

    Each element of ``pairs`` is ``(client_value, server_value)``; the
    result list holds one XOR-shared ``x < y`` bit per pair. The
    operation counts equal ``len(pairs)`` sequential runs, but the
    transcript is exactly two messages -- the round structure the
    original batched implementations use, and what makes deep residual
    trees viable over WAN.
    """
    width = _dgk_width(ctx, pairs, bit_length)
    if not pairs:
        return []
    # Client: one message carrying every instance's encrypted bits.
    all_bits = [
        _dgk_client_bits(ctx, client_value, width)
        for client_value, _ in pairs
    ]
    ctx.channel.reset_direction()
    all_bits = ctx.channel.client_sends(all_bits)

    # Server: one message with every instance's blinded terms.
    shares: List[int] = []
    all_blinded: List[List[DgkCiphertext]] = []
    for (_, server_value), encrypted_bits in zip(pairs, all_bits):
        share, blinded = _dgk_server_blind(
            ctx, encrypted_bits, server_value, width
        )
        shares.append(share)
        all_blinded.append(blinded)
    all_blinded = ctx.channel.server_sends(all_blinded)

    # Client: zero-test everything locally.
    return [
        _dgk_zero_test(ctx, blinded, share)
        for blinded, share in zip(all_blinded, shares)
    ]


# The encrypted comparison of ``[z]``, ``z`` in ``[0, 2^(l+1))``: the
# server blinds ``[z]`` additively, the client decrypts the blind, a DGK
# comparison on the low ``l`` bits yields the borrow, and the target bit
# ``z >> l`` is ``d_high - r_high - borrow``. The steps below are shared
# by the single, batched and client-learns entry points.


def _blind(
    ctx: TwoPartyContext, z_encrypted: PaillierCiphertext, bit_length: int
) -> Tuple[PaillierCiphertext, int]:
    """Server: ``[z + r]`` with statistical noise ``r``; returns the
    refreshed blind and ``r``."""
    noise = ctx.blinding_noise(bit_length + 1)
    ctx.trace.count(Op.PAILLIER_ADD)
    return ctx.rerandomize(z_encrypted + noise), noise


def _split(value: int, bit_length: int) -> Tuple[int, int]:
    """``(value mod 2^l, value >> l)``."""
    return value & ((1 << bit_length) - 1), value >> bit_length


def _encrypt_correction(
    ctx: TwoPartyContext, d_high: int, borrow: SharedBit
) -> List[PaillierCiphertext]:
    """Client: its half of the correction, ``[d_high]`` and its borrow
    share, under Paillier."""
    return [
        ctx.client_encrypt(d_high),
        ctx.client_encrypt(borrow.client_share),
    ]


def _strip_borrow(
    ctx: TwoPartyContext, d_high, r_high: int, borrow_client, server_share: int
):
    """``d_high - r_high - (borrow_client XOR server_share)``.

    The party holding ``server_share`` in the clear reassembles the XOR
    linearly (``c XOR 1 = 1 - c``), so the same body serves the server
    on Paillier ciphertexts (counted) and the client on plain integers.
    """
    encrypted = isinstance(d_high, PaillierCiphertext)
    # The share is the server's own coin flip (SharedBit is secret-coarse
    # in the taint model); branching on it reveals nothing about z.
    # repro: allow[branch-on-secret]
    if server_share:
        if encrypted:
            ctx.trace.count(Op.PAILLIER_SCALAR_MUL)
            ctx.trace.count(Op.PAILLIER_ADD)
        borrow = (borrow_client * -1) + 1
    else:
        borrow = borrow_client
    if encrypted:
        ctx.trace.count(Op.PAILLIER_ADD, 2)
    return d_high - r_high - borrow


@protocol_entry(span="dgk.encrypted_z_bit")
def _encrypted_z_bit(
    ctx: TwoPartyContext, z_encrypted: PaillierCiphertext, bit_length: int
) -> Tuple[int, int, SharedBit]:
    """Common blinding phase of both single encrypted-comparison
    variants. Returns ``(d_high, r_high, borrow)``."""
    blinded, noise = _blind(ctx, z_encrypted, bit_length)
    ctx.channel.reset_direction()
    blinded = ctx.channel.server_sends(blinded)
    d_low, d_high = _split(ctx.client_decrypt(blinded), bit_length)
    r_low, r_high = _split(noise, bit_length)
    borrow = dgk_compare(ctx, d_low, r_low, bit_length)
    return d_high, r_high, borrow


@protocol_entry(span="compare.encrypted")
def compare_encrypted(
    ctx: TwoPartyContext, z_encrypted: PaillierCiphertext, bit_length: int
) -> PaillierCiphertext:
    """Server-held ``[z]`` with ``z`` in ``[0, 2^(l+1))`` -> server-held
    encryption of ``z >> l`` (a single bit).

    To compare ``l``-bit values ``a, b``, call with
    ``[z] = [2^l + a - b]``; the output bit is ``a >= b``.
    """
    d_high, r_high, borrow = _encrypted_z_bit(ctx, z_encrypted, bit_length)
    ctx.channel.reset_direction()
    d_high_enc, borrow_client_enc = ctx.channel.client_sends(
        _encrypt_correction(ctx, d_high, borrow)
    )
    return _strip_borrow(
        ctx, d_high_enc, r_high, borrow_client_enc, borrow.server_share
    )


@protocol_entry(span="compare.encrypted_client_learns")
def compare_encrypted_client_learns(
    ctx: TwoPartyContext, z_encrypted: PaillierCiphertext, bit_length: int
) -> int:
    """Like :func:`compare_encrypted` but the *client* learns the bit.

    The server reveals its blinding quotient and borrow share, letting
    the client -- and only the client -- reconstruct ``z >> l``. Used
    where the protocol's output is destined for the client anyway
    (hyperplane sign test, argmax over permuted candidates).
    """
    d_high, r_high, borrow = _encrypted_z_bit(ctx, z_encrypted, bit_length)
    ctx.channel.reset_direction()
    # Designed disclosure: this variant exists so the *client* learns the
    # bit. r_high is the server's own blinding quotient and server_share
    # its own coin flip -- server-chosen randomness, not z-derived data
    # (the taint model cannot see through SharedBit's object coarseness).
    # repro: allow[channel-leak]
    r_high_sent, server_share_sent = ctx.channel.server_sends(
        [r_high, borrow.server_share]
    )
    bit = _strip_borrow(
        ctx, d_high, r_high_sent, borrow.client_share, server_share_sent
    )
    # The reconstructed bit is the protocol's output for the client;
    # validating it is the point.
    # repro: allow[branch-on-secret]
    if bit not in (0, 1):
        raise ComparisonError(
            f"comparison reconstruction produced {bit}; inputs exceeded "
            f"the declared bit length {bit_length}"
        )
    return bit


@protocol_entry(span="compare.encrypted_many")
def compare_encrypted_many(
    ctx: TwoPartyContext,
    z_encrypted: Sequence[PaillierCiphertext],
    bit_length: int,
) -> List[PaillierCiphertext]:
    """Batched :func:`compare_encrypted`: the whole batch costs four
    rounds instead of four per instance.

    The server ends with one encryption of ``z_i >> bit_length`` per
    input ciphertext.
    """
    if not z_encrypted:
        return []
    # Server: blind every instance, one message.
    blinds = [_blind(ctx, z, bit_length) for z in z_encrypted]
    ctx.channel.reset_direction()
    blinded_batch = ctx.channel.server_sends([blind for blind, _ in blinds])

    # Client: decrypt and split every instance.
    d_splits = [
        _split(ctx.client_decrypt(c), bit_length) for c in blinded_batch
    ]
    r_splits = [_split(noise, bit_length) for _, noise in blinds]

    # The d_low bits enter the batched DGK comparison, which ships them
    # only DGK-encrypted (and the server's replies multiplicatively
    # blinded). The per-parameter summary proves this for dgk_compare;
    # here client and server values share one `pairs` parameter, which
    # is coarser than the taint model can split.
    # repro: allow[channel-leak]
    borrows = dgk_compare_many(
        ctx,
        [(d_low, r_low) for (d_low, _), (r_low, _) in zip(d_splits, r_splits)],
        bit_length,
    )

    # Client: one message with every instance's correction ciphertexts.
    uploads: List[PaillierCiphertext] = []
    for (_, d_high), borrow in zip(d_splits, borrows):
        uploads.extend(_encrypt_correction(ctx, d_high, borrow))
    ctx.channel.reset_direction()
    uploads = ctx.channel.client_sends(uploads)

    return [
        _strip_borrow(
            ctx, uploads[2 * index], r_high, uploads[2 * index + 1],
            borrow.server_share,
        )
        for index, (borrow, (_, r_high)) in enumerate(zip(borrows, r_splits))
    ]


@protocol_entry(span="compare.values_encrypted")
def compare_values_encrypted(
    ctx: TwoPartyContext,
    a_encrypted: PaillierCiphertext,
    b_encrypted: PaillierCiphertext,
    bit_length: int,
) -> PaillierCiphertext:
    """Convenience: server holds ``[a]`` and ``[b]`` (``l``-bit values);
    returns server-held ``[a >= b]``."""
    ctx.trace.count(Op.PAILLIER_ADD, 2)
    z = a_encrypted - b_encrypted + (1 << bit_length)
    return compare_encrypted(ctx, z, bit_length)


@protocol_entry(span="compare.sign_test")
def sign_test_client_learns(
    ctx: TwoPartyContext,
    score_encrypted: PaillierCiphertext,
    magnitude_bits: int,
) -> int:
    """Client learns whether a server-held encrypted signed score is
    ``>= 0``. ``magnitude_bits`` bounds ``|score|``."""
    ctx.trace.count(Op.PAILLIER_ADD)
    z = score_encrypted + (1 << magnitude_bits)
    return compare_encrypted_client_learns(ctx, z, magnitude_bits)


# -- share-based comparison (the shares backend's sign test) -----------------
#
# Dealer-assisted statistical comparison over additive shares: for a
# shared ``z`` with ``|z| < 2^l``, set ``t = z + 2^l`` (so the target
# bit ``z >= 0`` is exactly ``t >> l``) and open ``m = t + r`` where
# ``r`` is a dealer-dealt mask uniform over ``[0, 2^(l+1+kappa))`` --
# the opening is within ``2^-kappa`` of uniform, the same statistical
# guarantee class as the Paillier path's blinding noise. Writing both
# ``m`` and ``r`` as ``high * 2^l + low``,
#
#     t >> l  =  (m >> l) - (r >> l) - borrow,
#     borrow  =  (m mod 2^l < r mod 2^l),
#
# and the borrow is a bit circuit over the *shared* bits of ``r``
# against the *public* bits of ``m``: XOR with a public bit is linear,
# suffix equality-products cost one Beaver multiplication per bit, and
# the strictly-greater terms are mutually exclusive so their sum is the
# OR. Triple consumption is data-independent (``max(l-2,0) + l`` per
# comparison) so analytic costing is exact.


def _share_z_bit(
    session: ShareSession, z: SharedValue, bit_length: int
) -> SharedValue:
    """Shared ``z`` with ``|z| < 2^bit_length`` -> shared bit ``z >= 0``.

    The result stays additively shared, so callers can keep composing
    (argmax multiplexing) or reveal to one party only. Consumes one
    comparison mask and ``max(l-2, 0) + l`` Beaver triples.
    """
    l = bit_length
    if l < 1:
        raise ComparisonError(f"bit length must be positive, got {l}")
    t = z + (1 << l)
    masks0, masks1 = session.store.take_masks(1, l, fallback=True)
    mask0, mask1 = masks0[0], masks1[0]

    # Open m = t + r: statistically masked, public by design.
    m_shared = SharedValue(t.share0 + mask0.r, t.share1 + mask1.r)
    m = session.open_batch([m_shared])[0]
    m_high = m >> l
    m_bits = [(m >> i) & 1 for i in range(l)]

    r_bits = [
        SharedValue(mask0.r_low_bits[i], mask1.r_low_bits[i])
        for i in range(l)
    ]
    # eq_i = 1 - (r_i XOR m_i); XOR against a public bit is linear.
    eqs = [
        r_bits[i] if m_bits[i] else (r_bits[i] * -1) + 1
        for i in range(l)
    ]

    # prefix[i] = prod_{j > i} eq_j, built most-significant first.
    prefixes: List[SharedValue] = [None] * l  # type: ignore[list-item]
    prefixes[l - 1] = session.constant(1)
    if l >= 2:
        running = eqs[l - 1]
        for i in range(l - 2, 0, -1):
            prefixes[i] = running
            running = session.multiply_batch([running], [eqs[i]])[0]
        prefixes[0] = running

    # term_i = r_i * prefix_i, multiplied for *every* i (one batch) so
    # triple consumption never depends on the public opening's bits;
    # only terms at positions with m_i = 0 enter the borrow.
    products = session.multiply_batch(r_bits, prefixes)
    borrow = session.constant(0)
    for i in range(l):
        if m_bits[i] == 0:
            borrow = borrow + products[i]

    r_high = SharedValue(mask0.r_high, mask1.r_high)
    return ((r_high + borrow) * -1) + m_high


@protocol_entry(span="compare.share_values")
def share_compare_shared(
    session: ShareSession,
    a: SharedValue,
    b: SharedValue,
    bit_length: int,
) -> SharedValue:
    """Shared ``a``, ``b`` (``|a|, |b| < 2^(bit_length-1)``) -> shared
    bit ``a >= b``; nothing is revealed to either party."""
    session.ctx.channel.reset_direction()
    return _share_z_bit(session, a - b, bit_length)


@protocol_entry(span="compare.share_sign_test")
def share_sign_test_client_learns(
    session: ShareSession,
    score: SharedValue,
    magnitude_bits: int,
) -> int:
    """Share-backend sign test: client learns whether a shared signed
    score is ``>= 0``. ``magnitude_bits`` bounds ``|score|``.

    The mirror of :func:`sign_test_client_learns`: same output, same
    recipient, but the online work is ring arithmetic over precomputed
    triples instead of Paillier/DGK operations.
    """
    session.ctx.channel.reset_direction()
    shared_bit = _share_z_bit(session, score, magnitude_bits)
    session.ctx.channel.reset_direction()
    bit = session.reveal_to_client(shared_bit, signed=False)
    # The reconstructed bit is the protocol's output for the client;
    # validating it is the point.
    # repro: allow[branch-on-secret]
    if bit not in (0, 1):
        raise ComparisonError(
            f"share comparison reconstruction produced {bit}; inputs "
            f"exceeded the declared bit length {magnitude_bits}"
        )
    return bit
