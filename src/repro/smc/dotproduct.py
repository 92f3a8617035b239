"""Encrypted dot products for the hyperplane classifier.

The client encrypts its *hidden* feature values under Paillier; the
server folds in its weight vector homomorphically and adds the plaintext
contribution of any disclosed features for free. The output is a
server-held encryption of the full score -- ready for the sign test or
argmax.

This module is where the paper's disclosure optimization pays off for
linear models: each hidden feature costs one client encryption, one
ciphertext transfer and one server scalar multiplication, while each
disclosed feature costs one plaintext multiply-add.

The *share variant* at the bottom is the same contract under the
``shares`` protocol backend: the client input-shares its hidden
features, the server input-shares its nonzero weights, and each term
costs one precomputed Beaver triple -- integer ring arithmetic online,
with all openings for a whole multi-class score bank batched into one
two-message exchange.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.crypto.paillier import PaillierCiphertext
from repro.smc.context import TwoPartyContext
from repro.smc.protocol import Op, protocol_entry
from repro.smc.shares import SharedValue, ShareSession


class DotProductError(Exception):
    """Raised on shape mismatches in the encrypted dot product."""


@protocol_entry(span="dotproduct.encrypt_features")
def encrypt_feature_vector(
    ctx: TwoPartyContext, values: Sequence[int]
) -> List[PaillierCiphertext]:
    """Client-side: encrypt hidden feature values and send them.

    Returns the ciphertext list as received by the server. The batch
    runs on the context's engine (process-parallel when configured) and
    is transcript-identical to encrypting one value at a time.
    """
    ciphertexts = ctx.client_encrypt_batch(list(values))
    if not ciphertexts:
        return []
    ctx.channel.reset_direction()
    return ctx.channel.client_sends(ciphertexts)


def encrypted_dot_product(
    ctx: TwoPartyContext,
    encrypted_values: Sequence[PaillierCiphertext],
    weights: Sequence[int],
    plaintext_offset: int = 0,
) -> PaillierCiphertext:
    """Server-side: compute ``[sum_i w_i * x_i + offset]``.

    Parameters
    ----------
    encrypted_values:
        Ciphertexts of the hidden features (client-encrypted).
    weights:
        The server's integer (fixed-point) weights, one per ciphertext.
    plaintext_offset:
        The already-known part of the score: bias plus the disclosed
        features' contribution, computed in the clear at zero crypto
        cost.
    """
    if len(encrypted_values) != len(weights):
        raise DotProductError(
            f"{len(encrypted_values)} ciphertexts vs {len(weights)} weights"
        )
    nonzero = sum(1 for weight in weights if weight != 0)
    if nonzero == 0:
        # Nothing to fold homomorphically; the offset needs a fresh
        # (randomised) encryption to stay hiding.
        return ctx.server_encrypt(plaintext_offset)
    # Fused simultaneous multi-exponentiation over the nonzero terms.
    # The accumulator is seeded from the first nonzero term instead of
    # an encryption of the offset, so a dot product costs zero fresh
    # encryptions; the offset folds in as one plaintext addition.
    ctx.trace.count(Op.PAILLIER_SCALAR_MUL, nonzero)
    ctx.trace.count(Op.PAILLIER_ADD, nonzero - 1)
    accumulator = ctx.engine.dot_product(encrypted_values, weights)
    if plaintext_offset != 0:
        accumulator = ctx.add(accumulator, plaintext_offset)
    return accumulator


def batched_encrypted_dot_products(
    ctx: TwoPartyContext,
    encrypted_values: Sequence[PaillierCiphertext],
    weight_rows: Sequence[Sequence[int]],
    plaintext_offsets: Sequence[int],
) -> List[PaillierCiphertext]:
    """Server-side: one encrypted score per weight row (multi-class).

    The client's ciphertexts are reused across rows, so the client-side
    cost is paid once regardless of the number of classes.
    """
    if len(weight_rows) != len(plaintext_offsets):
        raise DotProductError(
            f"{len(weight_rows)} weight rows vs {len(plaintext_offsets)} offsets"
        )
    return [
        encrypted_dot_product(ctx, encrypted_values, row, offset)
        for row, offset in zip(weight_rows, plaintext_offsets)
    ]


# -- share variant (the shares backend's dot-product layer) ------------------


@protocol_entry(span="dotproduct.share_features")
def share_feature_vector(
    session: ShareSession, values: Sequence[int]
) -> List[SharedValue]:
    """Client-side: secret-share hidden feature values.

    The share-backend mirror of :func:`encrypt_feature_vector`: the
    server's share vector crosses the wire as one ``TAG_SHARE`` list;
    no cryptographic operations are spent -- sharing is two ring
    subtractions per feature.
    """
    if not values:
        return []
    session.ctx.channel.reset_direction()
    return session.input_client(values)


@protocol_entry(span="dotproduct.share_scores")
def shared_dot_products(
    session: ShareSession,
    shared_values: Sequence[SharedValue],
    weight_rows: Sequence[Sequence[int]],
    plaintext_offsets: Sequence[int],
) -> List[SharedValue]:
    """Server-side: one *shared* score per weight row (multi-class).

    The server input-shares its nonzero weights (one message for every
    row), then a single batched Beaver multiplication covers every
    ``w_i * x_i`` term of every row -- two opening messages total. Zero
    weights are skipped, exactly as the Paillier path skips them; each
    public offset folds into the client share for free. Rows with no
    nonzero hidden weight reduce to the shared public offset.
    """
    if len(weight_rows) != len(plaintext_offsets):
        raise DotProductError(
            f"{len(weight_rows)} weight rows vs {len(plaintext_offsets)} offsets"
        )
    terms_per_row: List[List[int]] = []
    flat_weights: List[int] = []
    flat_features: List[SharedValue] = []
    for row in weight_rows:
        if len(row) != len(shared_values):
            raise DotProductError(
                f"{len(shared_values)} shares vs {len(row)} weights"
            )
        indices = [i for i, weight in enumerate(row) if weight != 0]
        terms_per_row.append(indices)
        flat_weights.extend(row[i] for i in indices)
        flat_features.extend(shared_values[i] for i in indices)

    if flat_weights:
        session.ctx.channel.reset_direction()
        shared_weights = session.input_server(flat_weights)
        products = session.multiply_batch(flat_features, shared_weights)
    else:
        products = []

    scores: List[SharedValue] = []
    cursor = 0
    for indices, offset in zip(terms_per_row, plaintext_offsets):
        score = session.constant(int(offset))
        for product in products[cursor:cursor + len(indices)]:
            score = score + product
        cursor += len(indices)
        scores.append(score)
    return scores
