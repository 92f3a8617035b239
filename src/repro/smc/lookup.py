"""Private table lookup for discrete features.

The secure naive-Bayes protocol must add ``log P(x_f = v | c)`` to each
class score without the server learning ``v`` and without the client
learning the table. The client sends one Paillier encryption per domain
value -- a 0/1 indicator of its actual value
(:func:`encrypt_indicator_vector`) -- and the server takes the inner
product with its plaintext table column, which is exactly
:func:`repro.smc.dotproduct.encrypted_dot_product`. Constant rounds;
cost scales with the domain size. This is the construction whose
per-feature cost the disclosure optimizer removes when a feature is
revealed.
"""

from __future__ import annotations

from typing import List

from repro.crypto.paillier import PaillierCiphertext
from repro.smc.context import TwoPartyContext
from repro.smc.protocol import protocol_entry


class LookupError_(Exception):
    """Raised on an indicator index outside the feature's domain."""


@protocol_entry(span="lookup.encrypt_indicator_vector")
def encrypt_indicator_vector(
    ctx: TwoPartyContext, value_index: int, domain_size: int
) -> List[PaillierCiphertext]:
    """Client-side: encrypt the one-hot indicator of ``value_index`` and
    send it to the server."""
    if not 0 <= value_index < domain_size:
        raise LookupError_(
            f"value index {value_index} outside domain of size {domain_size}"
        )
    indicators = ctx.client_encrypt_batch(
        [1 if j == value_index else 0 for j in range(domain_size)]
    )
    ctx.channel.reset_direction()
    return ctx.channel.client_sends(indicators)
