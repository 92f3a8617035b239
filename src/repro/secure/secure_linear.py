"""Secure hyperplane (linear) classification with partial disclosure.

Protocol (Bost et al. hyperplane decision, extended with disclosure):

1. the client discloses the plaintext values of features in ``S``; the
   server folds their weighted contribution plus the bias into a
   per-class plaintext offset -- zero cryptographic cost;
2. the client Paillier-encrypts the *hidden* feature values once and
   ships them;
3. the server computes one encrypted affine score per class
   homomorphically;
4. binary models finish with a single sign test on the score
   difference; multi-class models run the secure argmax.

Model parameters are fixed-point encoded once at construction; the
quantised plaintext reference (:meth:`SecureLinearClassifier.predict_quantized`)
uses the same integers, so the secure path is bit-exact against it.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.classifiers.linear import LogisticRegressionClassifier
from repro.data.schema import FeatureSpec
from repro.secure.base import (
    SecureClassificationError,
    SecureClassifier,
    default_backend,
)
from repro.secure.costing import (
    FRAME_OVERHEAD,
    LIST_OVERHEAD,
    SMALL_INT_BYTES,
    ProtocolSizes,
)
from repro.secure.encoding import FixedPointEncoder, score_bound
from repro.smc.context import TwoPartyContext
from repro.smc.protocol import ExecutionTrace, protocol_entry


class SecureLinearClassifier(SecureClassifier):
    """Two-party hyperplane evaluation of a fitted logistic regression.

    Parameters
    ----------
    model:
        A fitted :class:`LogisticRegressionClassifier`.
    features:
        Schema of the feature columns (for domains and sensitivity).
    encoder:
        Fixed-point encoder shared with the quantised reference.
    sizes:
        Key sizes for the analytic cost estimates.
    """

    def __init__(
        self,
        model: LogisticRegressionClassifier,
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
        self.weight_rows: List[List[int]] = encoder.encode_matrix(model.weights)
        self.biases: List[int] = encoder.encode_vector(model.biases)
        self.classes = [int(c) for c in model.classes]
        max_values = [spec.domain_size - 1 for spec in self.features]
        self.score_bits = score_bound(
            self.weight_rows, self.biases, max_values
        ).bit_length() + 1

    # -- plaintext reference ------------------------------------------------

    def quantized_scores(self, row: np.ndarray) -> List[int]:
        """Integer per-class scores -- the exact values the protocol
        computes under encryption."""
        row = self.validate_row(row)
        return [
            int(sum(w * int(x) for w, x in zip(weights, row)) + bias)
            for weights, bias in zip(self.weight_rows, self.biases)
        ]

    def predict_quantized(self, row: np.ndarray) -> int:
        """Plaintext prediction over the quantised scores -- the exact
        decision the protocol reaches.

        Binary models mirror the sign test's tie rule (ties go to class
        1); multi-class ties are resolved randomly by the permuted
        secure argmax, so this reference returns the first maximum
        (ties are measure-zero for real models and the parity tests
        compare score values, not indices, when a tie occurs).
        """
        scores = self.quantized_scores(row)
        if len(scores) == 2:
            return self.classes[1] if scores[1] >= scores[0] else self.classes[0]
        best = max(scores)
        return self.classes[scores.index(best)]

    # -- live protocol ------------------------------------------------------

    @protocol_entry(span="classify.linear")
    def classify(
        self,
        ctx: TwoPartyContext,
        row: np.ndarray,
        disclosure_set: Iterable[int] = (),
    ) -> int:
        row = self.validate_row(row)
        disclosed, hidden = self.partition(disclosure_set)
        ctx.channel.reset_direction()

        # Client -> server: plaintext disclosed values (cheap ints).
        if disclosed:
            ctx.channel.client_sends([int(row[i]) for i in disclosed])

        # Per-class plaintext offsets from bias + disclosed features.
        offsets = [
            bias + sum(weights[i] * int(row[i]) for i in disclosed)
            for weights, bias in zip(self.weight_rows, self.biases)
        ]

        if not hidden:
            # Everything disclosed: the server evaluates in plaintext
            # and returns only the label (which is the protocol output
            # anyway) -- SMC degenerates to a single message.
            best = max(offsets)
            if len(offsets) == 2:
                winner = 1 if offsets[1] >= offsets[0] else 0
            else:
                winner = offsets.index(best)
            return int(ctx.channel.server_sends(self.classes[winner]))

        # Protected feature transfer, then one protected affine score
        # per class (the client-side transfer cost is paid once and
        # reused across classes) -- all through the session's protocol
        # backend, so the same code path runs Paillier or shares.
        backend = ctx.protocol_backend
        state = backend.begin_query(ctx, self.score_bits)
        protected = backend.encrypt_features(
            state, [int(row[i]) for i in hidden]
        )
        scores = backend.dot_products(
            state,
            protected,
            [[weights[i] for i in hidden] for weights in self.weight_rows],
            offsets,
        )

        if len(scores) == 2:
            # Sign test on score_1 - score_0 >= 0.
            bit = backend.sign_test_client_learns(state, scores)
            return self.classes[bit]

        winner = backend.argmax_client_learns(state, scores)
        return self.classes[winner]

    # -- analytic cost --------------------------------------------------------

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
            label=f"linear|{backend.name}|hidden={len(hidden)}"
        )
        n_classes = len(self.classes)
        if disclosed:
            trace.bytes_client_to_server += (
                FRAME_OVERHEAD + LIST_OVERHEAD
                + SMALL_INT_BYTES * len(disclosed)
            )
            trace.messages += 1
            trace.rounds += 1
        if not hidden:
            # Plaintext fast path: one label message back.
            trace.bytes_server_to_client += FRAME_OVERHEAD + SMALL_INT_BYTES
            trace.messages += 1
            trace.rounds += 1
            return trace
        backend.trace_encrypt_vector(
            trace, len(hidden), self.sizes, self.score_bits
        )
        backend.trace_dot_products(
            trace,
            [
                sum(1 for i in hidden if weights[i] != 0)
                for weights in self.weight_rows
            ],
            self.sizes,
            self.score_bits,
        )
        if n_classes == 2:
            backend.trace_sign_test(trace, self.score_bits, self.sizes)
        else:
            backend.trace_argmax(
                trace, n_classes, self.score_bits, self.sizes
            )
        return trace
