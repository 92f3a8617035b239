"""Secure linear regression with partial disclosure.

The paper's service really predicts a *continuous* dose; this protocol
serves it: the client encrypts hidden feature values, the server folds
in its (fixed-point) weight vector plus the plaintext contribution of
disclosed features, re-randomises and returns a single ciphertext; the
client decrypts and de-scales. The protocol's *output* is the dose --
the very value the Fredrikson attack exploits -- which is why the
pipeline treats model output as a disclosure of its own (see
:mod:`repro.privacy.inversion`).

Costs: one Paillier encryption per hidden feature on the client, one
scalar multiplication per hidden feature on the server, two rounds.
Disclosing everything degenerates to the server answering in plaintext.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.classifiers.regression import RidgeRegression
from repro.secure.base import (
    SecureClassificationError,
    SecureClassifier,
    default_backend,
)
from repro.secure.costing import (
    ELEMENT_OVERHEAD,
    FRAME_OVERHEAD,
    LIST_OVERHEAD,
    SMALL_INT_BYTES,
    ProtocolSizes,
)
from repro.secure.encoding import FixedPointEncoder, score_bound
from repro.smc.context import TwoPartyContext
from repro.smc.protocol import ExecutionTrace, protocol_entry


class SecureRegression(SecureClassifier):
    """Two-party evaluation of a fitted ridge regression.

    Parameters
    ----------
    model:
        A fitted :class:`RidgeRegression`.
    features:
        Schema of the feature columns.
    encoder:
        Fixed-point encoder; the returned dose is exact on its grid.
    sizes:
        Key sizes for analytic traffic estimates.
    """

    def __init__(
        self,
        model: RidgeRegression,
        features,
        encoder: FixedPointEncoder = FixedPointEncoder(),
        sizes: ProtocolSizes = ProtocolSizes(),
    ) -> None:
        super().__init__(features, sizes)
        if model.n_features != self.n_features:
            raise SecureClassificationError(
                f"model has {model.n_features} features, schema has "
                f"{self.n_features}"
            )
        self.model = model
        self.encoder = encoder
        self.int_weights: List[int] = encoder.encode_vector(model.weights)
        self.int_intercept: int = encoder.encode(model.intercept)
        max_values = [spec.domain_size - 1 for spec in self.features]
        self.score_bits = score_bound(
            [self.int_weights], [self.int_intercept], max_values
        ).bit_length() + 1

    # -- plaintext reference -------------------------------------------------

    def quantized_prediction(self, row: np.ndarray) -> float:
        """The fixed-point dose the protocol computes."""
        row = self.validate_row(row)
        score = self.int_intercept + sum(
            w * int(x) for w, x in zip(self.int_weights, row)
        )
        return self.encoder.decode(score)

    # -- live protocol --------------------------------------------------------

    def classify(
        self,
        ctx: TwoPartyContext,
        row: np.ndarray,
        disclosure_set: Iterable[int] = (),
    ) -> int:
        """Protocol entry point (integer fixed-point output).

        Prefer :meth:`predict_secure`, which de-scales to a float; this
        method exists to satisfy the :class:`SecureClassifier`
        interface and returns the raw fixed-point integer.
        """
        return self._secure_score(ctx, row, disclosure_set)

    def predict_secure(
        self,
        ctx: TwoPartyContext,
        row: np.ndarray,
        disclosure_set: Iterable[int] = (),
    ) -> float:
        """Run the live protocol; the client learns the dose."""
        return self.encoder.decode(self._secure_score(ctx, row, disclosure_set))

    @protocol_entry(span="classify.regression_score")
    def _secure_score(
        self, ctx: TwoPartyContext, row: np.ndarray, disclosure_set
    ) -> int:
        row = self.validate_row(row)
        disclosed, hidden = self.partition(disclosure_set)
        ctx.channel.reset_direction()

        if disclosed:
            ctx.channel.client_sends([int(row[i]) for i in disclosed])
        offset = self.int_intercept + sum(
            self.int_weights[i] * int(row[i]) for i in disclosed
        )

        if not hidden:
            # Fully disclosed: plaintext answer, one message.
            return int(ctx.channel.server_sends(offset))

        backend = ctx.protocol_backend
        state = backend.begin_query(ctx, self.score_bits)
        protected = backend.encrypt_features(
            state, [int(row[i]) for i in hidden]
        )
        score = backend.dot_products(
            state,
            protected,
            [[self.int_weights[i] for i in hidden]],
            [offset],
        )[0]
        return backend.reveal_score_to_client(state, score)

    # -- analytic cost ----------------------------------------------------------

    def estimated_trace(
        self,
        disclosure_set: Iterable[int] = (),
        *,
        backend=None,
    ) -> ExecutionTrace:
        if backend is None:
            backend = default_backend()
        disclosed, hidden = self.partition(disclosure_set)
        trace = ExecutionTrace(
            label=f"regression|{backend.name}|hidden={len(hidden)}"
        )
        if disclosed:
            trace.bytes_client_to_server += (
                FRAME_OVERHEAD + LIST_OVERHEAD
                + SMALL_INT_BYTES * len(disclosed)
            )
            trace.messages += 1
            trace.rounds += 1
        if not hidden:
            # Plaintext fixed-point dose: one integer of a few bytes.
            trace.bytes_server_to_client += FRAME_OVERHEAD + ELEMENT_OVERHEAD + 4
            trace.messages += 1
            trace.rounds += 1
            return trace
        backend.trace_encrypt_vector(
            trace, len(hidden), self.sizes, self.score_bits
        )
        nonzero = sum(1 for i in hidden if self.int_weights[i] != 0)
        backend.trace_dot_products(
            trace, [nonzero], self.sizes, self.score_bits
        )
        backend.trace_reveal_score(trace, self.sizes, self.score_bits)
        return trace
