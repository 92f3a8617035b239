"""Secure random-forest evaluation with partial disclosure.

Extends the single-tree protocol to an ensemble while revealing only
the *aggregate* decision:

1. disclosed values prune every tree; trees that resolve completely
   contribute their (server-computable) vote as a plaintext offset;
2. the client encrypts each hidden feature once, shared by all trees;
3. **all residual nodes of all trees** share one batched encrypted
   comparison -- the round count is independent of the ensemble size;
4. per tree, the server builds blinded leaf path-costs (as in the
   single tree) but does *not* attach labels; it ships the permuted
   cost lists;
5. the client locates each tree's zero-cost position and returns an
   encrypted one-hot vector per tree -- it learns only a per-tree
   permuted position, never the tree's class;
6. the server converts each one-hot into per-class vote increments
   (``[votes_c] += sum over leaves with label c of [e_leaf]``), adds
   the plaintext votes of fully-resolved trees, and the secure argmax
   gives the client the majority class -- and nothing else.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.classifiers.forest import RandomForestClassifier
from repro.crypto.paillier import PaillierCiphertext
from repro.secure.base import SecureClassificationError, SecureClassifier
from repro.secure.costing import (
    FRAME_OVERHEAD,
    LIST_OVERHEAD,
    SMALL_INT_BYTES,
    ProtocolSizes,
    add_compare_encrypted_batch,
    add_encrypt_vector,
    add_secure_argmax,
)
from repro.secure.secure_tree import (
    SecureDecisionTreeClassifier,
    _compare_residual_nodes,
    _encrypt_hidden_features,
    _ExpectedShape,
    _internal_nodes,
    _path_costs,
)
from repro.smc.argmax import secure_argmax
from repro.smc.context import TwoPartyContext
from repro.smc.protocol import ExecutionTrace, Op, protocol_entry


class SecureRandomForestClassifier(SecureClassifier):
    """Two-party evaluation of a fitted random forest."""

    def __init__(
        self,
        model: RandomForestClassifier,
        features,
        feature_marginals: Optional[Sequence[np.ndarray]] = None,
        sizes: ProtocolSizes = ProtocolSizes(),
    ) -> None:
        super().__init__(features, sizes)
        if model.n_features != self.n_features:
            raise SecureClassificationError(
                f"model has {model.n_features} features, schema has "
                f"{self.n_features}"
            )
        self.model = model
        self.classes = [int(c) for c in model.classes]
        # Per-tree helpers reuse the single-tree pruning/costing logic.
        self._tree_wrappers = [
            SecureDecisionTreeClassifier(
                tree, features, feature_marginals=feature_marginals,
                sizes=sizes,
            )
            for tree in model.trees
        ]

    # -- plaintext reference ---------------------------------------------

    def predict_quantized(self, row: np.ndarray) -> int:
        """Tree voting is integer-exact; delegate to the plain forest."""
        return self.model.predict_one(self.validate_row(row))

    # -- live protocol -----------------------------------------------------

    @protocol_entry(span="classify.forest")
    def classify(
        self,
        ctx: TwoPartyContext,
        row: np.ndarray,
        disclosure_set: Iterable[int] = (),
    ) -> int:
        row = self.validate_row(row)
        disclosed, hidden = self.partition(disclosure_set)
        n_classes = len(self.classes)
        class_position = {c: i for i, c in enumerate(self.classes)}
        ctx.channel.reset_direction()

        if disclosed:
            ctx.channel.client_sends([int(row[i]) for i in disclosed])

        residuals = [
            wrapper.pruned_tree(row, disclosed)
            for wrapper in self._tree_wrappers
        ]
        plaintext_votes = [0] * n_classes
        live_trees = []
        for residual in residuals:
            if residual.is_leaf:
                assert residual.label is not None
                plaintext_votes[class_position[int(residual.label)]] += 1
            else:
                live_trees.append(residual)

        if not live_trees:
            # Every tree resolved from disclosed values alone.
            winner = plaintext_votes.index(max(plaintext_votes))
            return int(ctx.channel.server_sends(self.classes[winner]))

        # Client encrypts each hidden feature used by any residual tree,
        # then one comparison batch runs across the whole ensemble.
        ctx.channel.reset_direction()
        encrypted = _encrypt_hidden_features(ctx, row, live_trees)
        branch_bits = _compare_residual_nodes(
            ctx, self.features, encrypted,
            [node for residual in live_trees
             for node in _internal_nodes(residual)],
        )

        # Per tree: blinded, permuted leaf path-costs (no labels attached).
        modulus = ctx.paillier.public_key.n
        per_tree_labels: List[List[int]] = []
        all_blinded: List[List[PaillierCiphertext]] = []
        for residual in live_trees:
            leaves = _path_costs(ctx, residual, branch_bits)
            order = list(range(len(leaves)))
            ctx.server_rng.shuffle(order)
            blinded = []
            labels = []
            for position in order:
                cost, label = leaves[position]
                rho = 1 + ctx.server_rng.randbelow(modulus - 1)
                blinded.extend(ctx.blind_batch([cost], [rho], [None]))
                labels.append(label)
            all_blinded.append(blinded)
            per_tree_labels.append(labels)
        ctx.channel.reset_direction()
        all_blinded = ctx.channel.server_sends(all_blinded)

        # Client: per tree, find the zero cost and answer with an
        # encrypted one-hot over the (permuted) leaf slots.
        one_hots: List[List[PaillierCiphertext]] = []
        for blinded in all_blinded:
            zero_position = None
            for position, cost_ct in enumerate(blinded):
                ctx.trace.count(Op.PAILLIER_DECRYPT)
                # Designed disclosure: the client learns which permuted
                # leaf slot matched -- that position is its protocol
                # output for this tree.
                # repro: allow[branch-on-secret]
                if ctx.paillier.private_key.decrypt_raw(cost_ct) == 0:
                    zero_position = position
                    break
            if zero_position is None:
                raise SecureClassificationError(
                    "no leaf path matched in a residual tree"
                )
            ctx.trace.count(Op.PAILLIER_ENCRYPT, len(blinded))
            one_hots.append([
                ctx.paillier.public_key.encrypt(
                    1 if position == zero_position else 0,
                    rng=ctx.client_rng,
                )
                for position in range(len(blinded))
            ])
        ctx.channel.reset_direction()
        one_hots = ctx.channel.client_sends(one_hots)

        # Server: votes_c = plaintext votes + sum of matching one-hots.
        votes = [ctx.server_encrypt(v) for v in plaintext_votes]
        for labels, indicators in zip(per_tree_labels, one_hots):
            for label, indicator in zip(labels, indicators):
                position = class_position[label]
                votes[position] = ctx.add(votes[position], indicator)

        vote_bits = max(1, len(self._tree_wrappers).bit_length())
        winner = secure_argmax(ctx, votes, vote_bits)
        return self.classes[winner]

    # -- analytic cost -------------------------------------------------------

    def estimated_trace(self, disclosure_set: Iterable[int] = ()) -> ExecutionTrace:
        disclosed, hidden = self.partition(disclosure_set)
        trace = ExecutionTrace(label=f"forest|hidden={len(hidden)}")
        n_classes = len(self.classes)

        if disclosed:
            trace.bytes_client_to_server += (
                FRAME_OVERHEAD + LIST_OVERHEAD
                + SMALL_INT_BYTES * len(disclosed)
            )
            trace.messages += 1
            trace.rounds += 1

        total_comparisons = 0.0
        total_leaves = 0.0
        used_hidden = set()
        disclosed_set = set(disclosed)
        for wrapper in self._tree_wrappers:
            shape = _ExpectedShape()
            wrapper._expected_shape(
                wrapper.model.root, 1.0, 0.0, disclosed_set, shape
            )
            total_comparisons += shape.comparisons
            total_leaves += shape.leaves
            used_hidden |= wrapper._used_features - disclosed_set

        comparisons = int(round(total_comparisons))
        if comparisons == 0:
            trace.bytes_server_to_client += FRAME_OVERHEAD + SMALL_INT_BYTES
            trace.messages += 1
            trace.rounds += 1
            return trace

        add_encrypt_vector(trace, len(used_hidden), self.sizes)
        bits = (
            max(self.features[f].bit_length for f in used_hidden)
            if used_hidden else 1
        )
        trace.count(Op.PAILLIER_ADD, 2 * comparisons)
        add_compare_encrypted_batch(trace, comparisons, bits, self.sizes)

        leaves = max(int(round(total_leaves)), 2)
        # Path-cost sums + blinding + permuted cost lists.
        trace.count(Op.PAILLIER_ADD, 2 * comparisons)
        trace.count(Op.PAILLIER_SCALAR_MUL, comparisons + leaves)
        trace.count(Op.PAILLIER_RERANDOMIZE, leaves)
        # Nested per-tree lists: one inner list per live tree.
        n_trees = len(self._tree_wrappers)
        nested = (
            FRAME_OVERHEAD + LIST_OVERHEAD + n_trees * LIST_OVERHEAD
            + leaves * self.sizes.paillier_ct_wire_bytes
        )
        trace.bytes_server_to_client += nested
        trace.messages += 1
        trace.rounds += 1
        # Client decrypt-scan + one-hot uploads.
        trace.count(Op.PAILLIER_DECRYPT, leaves)
        trace.count(Op.PAILLIER_ENCRYPT, leaves)
        trace.bytes_client_to_server += nested
        trace.messages += 1
        trace.rounds += 1
        # Vote accumulation + argmax.
        trace.count(Op.PAILLIER_ENCRYPT, n_classes)
        trace.count(Op.PAILLIER_ADD, leaves)
        vote_bits = max(1, len(self._tree_wrappers).bit_length())
        add_secure_argmax(trace, n_classes, vote_bits, self.sizes)
        return trace
