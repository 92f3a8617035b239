"""Secure argmax over Paillier-encrypted values (Bost et al. Protocol 3).

Setting: the server holds ``k`` ciphertexts ``[v_1..v_k]`` under the
client's key (e.g. per-class naive-Bayes scores) and the *client* must
learn ``argmax_i v_i`` -- the predicted class -- while the server learns
nothing and the client learns nothing beyond the argmax.

Protocol sketch:

1. the server randomly permutes the candidates, so comparison outcomes
   on permuted positions carry no information the client can use;
2. a sequential tournament keeps an encrypted running maximum. Each
   round runs the encrypted comparison with *client-learns-bit* output;
   the client then selects between the two additively blinded
   candidates and returns the winner re-encrypted, together with the
   encrypted comparison bit so the server can strip the correct blind
   linearly;
3. the client tracks which permuted position last won; a 1-out-of-k
   oblivious transfer over the server's inverse permutation table
   reveals the true index to the client only.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.crypto.ot import one_of_n_transfer
from repro.crypto.paillier import PaillierCiphertext
from repro.smc.comparison import compare_encrypted_client_learns, share_compare_shared
from repro.smc.context import TwoPartyContext
from repro.smc.protocol import Op, protocol_entry
from repro.smc.shares import SharedValue, ShareSession


class ArgmaxError(Exception):
    """Raised on invalid argmax inputs."""

_OT_INDEX_BYTES = 4


@protocol_entry(span="argmax.secure")
def secure_argmax(
    ctx: TwoPartyContext,
    encrypted_values: Sequence[PaillierCiphertext],
    bit_length: int,
) -> int:
    """Return, to the client, the index of the maximum encrypted value.

    Parameters
    ----------
    ctx:
        Session context.
    encrypted_values:
        Server-held ciphertexts under the client's key. Plaintexts must
        be non-negative and below ``2^bit_length``. (Scores that may be
        negative are shifted by the caller; see the naive-Bayes
        protocol.)
    bit_length:
        Magnitude bound of the plaintext values.

    Ties resolve to the candidate the permuted tournament meets last,
    i.e. a uniformly random maximal index -- the same behaviour as the
    original protocol.
    """
    count = len(encrypted_values)
    if count == 0:
        raise ArgmaxError("secure_argmax needs at least one candidate")
    if count == 1:
        return 0

    # Server: permute candidates.
    permutation = list(range(count))
    ctx.server_rng.shuffle(permutation)
    permuted: List[PaillierCiphertext] = [
        encrypted_values[original] for original in permutation
    ]

    current_max = permuted[0]
    winner_position = 0  # client-side: permuted position of current max

    for position in range(1, count):
        challenger = permuted[position]

        # Encrypted comparison: client learns b = (challenger >= max).
        # (The comparison owns its own phase reset.)
        ctx.trace.count(Op.PAILLIER_ADD, 2)
        z = challenger - current_max + (1 << bit_length)
        bit = compare_encrypted_client_learns(ctx, z, bit_length)
        if bit:
            winner_position = position

        # Blinded refresh: the server must not learn b, so the client
        # selects between blinded candidates and returns the encrypted
        # bit for a linear un-blinding.
        blind_max = ctx.blinding_noise(bit_length)
        blind_challenger = ctx.blinding_noise(bit_length)
        ctx.trace.count(Op.PAILLIER_ADD, 2)
        # The tournament's first wire crossing happens inside
        # compare_encrypted_client_learns above, which owns the phase
        # reset; this send deliberately continues that round structure.
        # repro: allow[protocol-entry]
        blinded_pair = ctx.channel.server_sends(
            ctx.rerandomize_batch(
                [current_max + blind_max, challenger + blind_challenger]
            )
        )

        chosen = blinded_pair[1] if bit else blinded_pair[0]
        bit_enc = ctx.client_encrypt(bit)
        chosen, bit_enc = ctx.channel.client_sends(
            [ctx.client_rerandomize(chosen), bit_enc]
        )

        # Server: subtract blind_max + b * (blind_challenger - blind_max).
        ctx.trace.count(Op.PAILLIER_SCALAR_MUL)
        ctx.trace.count(Op.PAILLIER_ADD, 2)
        correction = bit_enc * (blind_challenger - blind_max)
        current_max = chosen - blind_max - correction

    # Reveal the true index of the winning permuted position to the
    # client only, via 1-out-of-k OT over the inverse permutation.
    ctx.trace.count(Op.OT_TRANSFER_1OF2, max(1, (count - 1).bit_length()))
    table = [
        permutation[pos].to_bytes(_OT_INDEX_BYTES, "big") for pos in range(count)
    ]
    # The OT sub-messages are summarised as one aggregate exchange for
    # byte accounting (each masked table entry crosses the wire once).
    ctx.channel.reset_direction()
    ctx.channel.server_sends([entry for entry in table])
    winner_bytes = one_of_n_transfer(
        table, winner_position, rng=ctx.client_rng, key_bits=256
    )
    return int.from_bytes(winner_bytes, "big")


def secure_argmax_plain_reference(values: Sequence[int]) -> int:
    """Reference argmax used by tests: first maximal index."""
    if not values:
        raise ArgmaxError("empty candidate list")
    best = max(values)
    return next(i for i, v in enumerate(values) if v == best)


@protocol_entry(span="argmax.shares")
def share_secure_argmax(
    session: ShareSession,
    scores: Sequence[SharedValue],
    bit_length: int,
) -> int:
    """Share-backend argmax: client learns the index of the maximum.

    A sequential tournament over *shared* values: each round produces a
    shared keep-bit via the share comparison, then one multiplexing
    multiplication folds the winner into the shared running maximum and
    its (shared) index -- neither party sees any comparison outcome.
    The final index is revealed to the client only, matching
    :func:`secure_argmax`'s output party.

    ``bit_length`` bounds the scores: ``|score| < 2^(bit_length - 1)``,
    so every pairwise difference fits the comparison's magnitude bound.
    Ties resolve to the first maximal index (the plain-reference
    convention): the keep-bit is ``current >= challenger``.
    """
    count = len(scores)
    if count == 0:
        raise ArgmaxError("share_secure_argmax needs at least one candidate")
    if count == 1:
        return 0

    current = scores[0]
    current_index = session.constant(0)
    for position in range(1, count):
        challenger = scores[position]
        keep = share_compare_shared(session, current, challenger, bit_length)
        take = (keep * -1) + 1
        delta_value, delta_index = session.multiply_batch(
            [take, take],
            [challenger - current, (current_index * -1) + position],
        )
        current = current + delta_value
        current_index = current_index + delta_index

    session.ctx.channel.reset_direction()
    winner = session.reveal_to_client(current_index, signed=False)
    # The revealed index is the protocol's output for the client;
    # validating it is the point.
    # repro: allow[branch-on-secret]
    if not 0 <= winner < count:
        raise ArgmaxError(
            f"share argmax reconstruction produced index {winner} outside "
            f"[0, {count}); scores exceeded the declared bit length"
        )
    return winner
