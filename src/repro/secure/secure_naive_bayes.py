"""Secure naive-Bayes classification with partial disclosure.

Protocol (Bost et al. naive Bayes, extended with disclosure):

1. disclosed features contribute their log-likelihood table entries to
   a per-class plaintext offset -- no cryptography;
2. for each *hidden* feature the client ships an encrypted one-hot
   indicator vector over that feature's domain; the server adds the
   homomorphic inner product with its log-probability column to every
   class score (``domain_size`` scalar multiplications per class);
3. the per-class encrypted scores (log prior + contributions), shifted
   to be non-negative, feed the secure argmax; the client learns the
   class.

Log-probabilities are fixed-point encoded; the quantised plaintext
reference (:meth:`SecureNaiveBayesClassifier.predict_quantized`) shares
the integer tables, making the secure path exactly reproducible.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.classifiers.naive_bayes import NaiveBayesClassifier
from repro.secure.base import SecureClassificationError, SecureClassifier
from repro.secure.costing import (
    FRAME_OVERHEAD,
    LIST_OVERHEAD,
    SMALL_INT_BYTES,
    ProtocolSizes,
    add_encrypt_vector,
    add_indicator_lookup,
    add_secure_argmax,
)
from repro.secure.encoding import FixedPointEncoder
from repro.smc.argmax import secure_argmax
from repro.smc.context import TwoPartyContext
from repro.smc.dotproduct import encrypted_dot_product
from repro.smc.lookup import encrypt_indicator_vector
from repro.smc.protocol import ExecutionTrace, Op, protocol_entry


class SecureNaiveBayesClassifier(SecureClassifier):
    """Two-party evaluation of a fitted categorical naive Bayes model."""

    def __init__(
        self,
        model: NaiveBayesClassifier,
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
        for index, spec in enumerate(self.features):
            if model.domain_sizes[index] != spec.domain_size:
                raise SecureClassificationError(
                    f"feature {spec.name!r}: model domain "
                    f"{model.domain_sizes[index]} != schema {spec.domain_size}"
                )
        self.model = model
        self.encoder = encoder
        self.classes = [int(c) for c in model.classes]
        # Integer tables: log_priors (k,), per feature (k, dom) entries.
        self.int_priors: List[int] = encoder.encode_vector(model.log_priors)
        self.int_tables: List[List[List[int]]] = [
            encoder.encode_matrix(table) for table in model.log_likelihoods
        ]
        # Scores are sums of negative log-probabilities; bound them for
        # the comparison bit-length.
        worst = max(abs(p) for p in self.int_priors) + sum(
            max(abs(entry) for row in table for entry in row)
            for table in self.int_tables
        )
        self.score_bits = max(worst, 1).bit_length() + 1

    # -- plaintext reference ------------------------------------------------

    def quantized_scores(self, row: np.ndarray) -> List[int]:
        """Integer per-class joint log scores, exactly as computed under
        encryption."""
        row = self.validate_row(row)
        scores = list(self.int_priors)
        for feature, value in enumerate(row):
            table = self.int_tables[feature]
            for class_pos in range(len(scores)):
                scores[class_pos] += table[class_pos][int(value)]
        return scores

    def predict_quantized(self, row: np.ndarray) -> int:
        """Plaintext argmax over quantised scores (first max on ties)."""
        scores = self.quantized_scores(row)
        best = max(scores)
        return self.classes[scores.index(best)]

    # -- live protocol --------------------------------------------------------

    @protocol_entry(span="classify.naive_bayes")
    def classify(
        self,
        ctx: TwoPartyContext,
        row: np.ndarray,
        disclosure_set: Iterable[int] = (),
    ) -> int:
        row = self.validate_row(row)
        disclosed, hidden = self.partition(disclosure_set)
        n_classes = len(self.classes)
        ctx.channel.reset_direction()

        if disclosed:
            ctx.channel.client_sends([int(row[i]) for i in disclosed])

        # Plaintext offsets: priors + disclosed features' table entries.
        offsets = [
            self.int_priors[c]
            + sum(self.int_tables[f][c][int(row[f])] for f in disclosed)
            for c in range(n_classes)
        ]

        if not hidden:
            # Everything disclosed: plaintext argmax, one label message.
            winner = offsets.index(max(offsets))
            return int(ctx.channel.server_sends(self.classes[winner]))

        # Encrypted scores: start from offsets, add one indicator lookup
        # per hidden feature per class (indicators shipped once). The
        # per-class offset encryptions run as one engine batch.
        scores = ctx.server_encrypt_batch(offsets)
        for feature in hidden:
            indicators = encrypt_indicator_vector(
                ctx, int(row[feature]), self.features[feature].domain_size
            )
            for c in range(n_classes):
                contribution = encrypted_dot_product(
                    ctx, indicators, self.int_tables[feature][c]
                )
                scores[c] = ctx.add(scores[c], contribution)

        shift = 1 << (self.score_bits - 1)
        shifted = [ctx.add(score, shift) for score in scores]
        winner = secure_argmax(ctx, shifted, self.score_bits)
        return self.classes[winner]

    # -- analytic cost ----------------------------------------------------------

    def estimated_trace(self, disclosure_set: Iterable[int] = ()) -> ExecutionTrace:
        disclosed, hidden = self.partition(disclosure_set)
        trace = ExecutionTrace(label=f"naive-bayes|hidden={len(hidden)}")
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
        # Server encrypts the per-class offsets (the plaintext sums
        # themselves are free).
        trace.count(Op.PAILLIER_ENCRYPT, n_classes)
        for feature in hidden:
            domain = self.features[feature].domain_size
            add_encrypt_vector(trace, domain, self.sizes)
            # One lookup per class, each costing ``domain`` ops.
            add_indicator_lookup(trace, n_classes * domain, self.sizes)
            trace.count(Op.PAILLIER_ADD, n_classes)
        trace.count(Op.PAILLIER_ADD, n_classes)  # shift into [0, 2^bits)
        add_secure_argmax(trace, n_classes, self.score_bits, self.sizes)
        return trace
