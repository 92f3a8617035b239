"""Secure decision-tree evaluation with disclosure-based pruning.

This is where selective disclosure buys the most: a node testing a
*disclosed* feature is resolved by the server in plaintext, discarding
an entire subtree. Only the residual tree -- whose internal nodes all
test hidden features -- is evaluated cryptographically:

1. the client sends plaintext values of disclosed features; the server
   prunes the tree with them;
2. the client Paillier-encrypts each hidden feature used by the
   residual tree (once, reused across nodes);
3. per residual internal node ``(f, t)`` the parties run the encrypted
   comparison, leaving the server an encryption of the branch bit
   ``b = (x_f > t)``;
4. the server forms, per leaf, the encrypted *path cost* -- the number
   of branch bits inconsistent with that leaf's root path (linear in
   the ``[b]``'s) -- multiplicatively blinds every cost with a fresh
   uniform element of ``Z_n`` (perfect blinding: a non-zero cost is
   coprime with the RSA modulus), pairs it with a blinded label slot
   ``[rho' * cost + label]``, permutes the leaf order and ships both
   lists;
5. exactly one cost decrypts to zero -- the true path; the client reads
   the label from the paired slot and learns nothing else; the server
   never sees which leaf fired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.classifiers.decision_tree import DecisionTreeClassifier, TreeNode
from repro.crypto.paillier import PaillierCiphertext
from repro.data.schema import FeatureSpec
from repro.secure.base import SecureClassificationError, SecureClassifier
from repro.secure.costing import (
    FRAME_OVERHEAD,
    LIST_OVERHEAD,
    SMALL_INT_BYTES,
    ProtocolSizes,
    add_compare_encrypted_batch,
    add_encrypt_vector,
    add_leaf_selection,
)
from repro.smc.comparison import compare_encrypted_many
from repro.smc.context import TwoPartyContext
from repro.smc.protocol import ExecutionTrace, Op, protocol_entry


@dataclass
class _ExpectedShape:
    """Expected residual-tree statistics under a disclosure set."""

    comparisons: float = 0.0
    leaves: float = 0.0
    depth_mass: float = 0.0  # sum over leaves of P(active) * hidden-depth

    @property
    def mean_depth(self) -> float:
        """Expected hidden-edge depth of an active leaf."""
        return self.depth_mass / self.leaves if self.leaves > 0 else 0.0


class SecureDecisionTreeClassifier(SecureClassifier):
    """Two-party evaluation of a fitted CART tree.

    Parameters
    ----------
    model:
        A fitted :class:`DecisionTreeClassifier`.
    features:
        Schema of the feature columns.
    feature_marginals:
        Optional per-feature categorical marginals (list of probability
        vectors) used by the analytic cost estimate to weight pruning
        outcomes; uniform marginals are assumed when omitted.
    sizes:
        Key sizes for analytic traffic estimates.
    """

    def __init__(
        self,
        model: DecisionTreeClassifier,
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
        # Fixed per model; the analytic trace prices its hidden ones.
        self._used_features = frozenset(
            node.feature for node in _internal_nodes(model.root)
        )
        if feature_marginals is None:
            self.feature_marginals = [
                np.full(spec.domain_size, 1.0 / spec.domain_size)
                for spec in self.features
            ]
        else:
            if len(feature_marginals) != self.n_features:
                raise SecureClassificationError(
                    f"{len(feature_marginals)} marginals for "
                    f"{self.n_features} features"
                )
            self.feature_marginals = [
                np.asarray(m, dtype=float) / np.asarray(m, dtype=float).sum()
                for m in feature_marginals
            ]

    # -- plaintext reference --------------------------------------------------

    def predict_quantized(self, row: np.ndarray) -> int:
        """Tree evaluation is already integer-exact; delegate."""
        return self.model.predict_one(self.validate_row(row))

    # -- pruning ----------------------------------------------------------------

    def pruned_tree(self, row: np.ndarray, disclosed: Iterable[int]) -> TreeNode:
        """Residual tree after resolving disclosed-feature nodes with
        the row's values."""
        disclosed_set = set(disclosed)

        def prune(node: TreeNode) -> TreeNode:
            if node.is_leaf:
                return node
            assert node.feature is not None and node.threshold is not None
            assert node.left is not None and node.right is not None
            if node.feature in disclosed_set:
                if int(row[node.feature]) <= node.threshold:
                    return prune(node.left)
                return prune(node.right)
            return TreeNode(
                feature=node.feature,
                threshold=node.threshold,
                left=prune(node.left),
                right=prune(node.right),
            )

        return prune(self.model.root)

    # -- live protocol -------------------------------------------------------------

    @protocol_entry(span="classify.tree")
    def classify(
        self,
        ctx: TwoPartyContext,
        row: np.ndarray,
        disclosure_set: Iterable[int] = (),
    ) -> int:
        row = self.validate_row(row)
        disclosed, hidden = self.partition(disclosure_set)
        ctx.channel.reset_direction()

        if disclosed:
            ctx.channel.client_sends([int(row[i]) for i in disclosed])
        residual = self.pruned_tree(row, disclosed)

        if residual.is_leaf:
            # Everything resolved in plaintext; the server returns the
            # prediction directly (the prediction is the protocol's
            # output, so nothing extra leaks).
            assert residual.label is not None
            return int(ctx.channel.server_sends(int(residual.label)))

        # Client encrypts each hidden feature the residual tree uses
        # (one engine batch), then one batched encrypted comparison runs
        # per residual internal node.
        nodes = _internal_nodes(residual)
        encrypted = _encrypt_hidden_features(ctx, row, nodes)
        branch_bits = _compare_residual_nodes(
            ctx, self.features, encrypted, nodes
        )
        leaves = _path_costs(ctx, residual, branch_bits)

        # Blind, permute, ship: each leaf's cost and label slot is
        # cost^rho (plus the label) under a fresh nonce, one engine batch
        # over the interleaved pairs.
        modulus = ctx.paillier.public_key.n
        rhos = [1 + ctx.server_rng.randbelow(modulus - 1)
                for _ in range(2 * len(leaves))]
        refreshed = ctx.blind_batch(
            [cost for cost, _ in leaves for _ in range(2)], rhos,
            [slot for _, label in leaves for slot in (None, label)],
        )
        blinded: List[Tuple[PaillierCiphertext, PaillierCiphertext]] = \
            list(zip(refreshed[0::2], refreshed[1::2]))
        ctx.server_rng.shuffle(blinded)
        ctx.channel.reset_direction()
        payload = ctx.channel.server_sends(
            [ct for pair in blinded for ct in pair]
        )

        # Client: batch-decrypt the cost list (CRT fast path), then read
        # the label paired with the single zero cost.
        raw_costs = ctx.client_decrypt_batch(payload[0::2], signed=False)
        for pair_index, raw in enumerate(raw_costs):
            # Designed disclosure: the client learns which permuted path
            # cost is zero -- that index selects its own classification
            # output.
            # repro: allow[branch-on-secret]
            if raw == 0:
                ctx.trace.count(Op.PAILLIER_DECRYPT)
                return int(
                    ctx.paillier.private_key.decrypt_raw(
                        payload[2 * pair_index + 1]
                    )
                )
        raise SecureClassificationError(
            "no leaf path matched; residual tree evaluation is inconsistent"
        )

    # -- analytic cost ---------------------------------------------------------------

    def estimated_trace(self, disclosure_set: Iterable[int] = ()) -> ExecutionTrace:
        disclosed, hidden = self.partition(disclosure_set)
        disclosed_set = set(disclosed)
        trace = ExecutionTrace(label=f"tree|hidden={len(hidden)}")

        shape = _ExpectedShape()
        self._expected_shape(
            self.model.root, 1.0, 0.0, disclosed_set, shape
        )

        if disclosed:
            trace.bytes_client_to_server += (
                FRAME_OVERHEAD + LIST_OVERHEAD
                + SMALL_INT_BYTES * len(disclosed)
            )
            trace.messages += 1
            trace.rounds += 1
        if shape.comparisons < 1e-9:
            # Fully resolved in plaintext: a single label message.
            trace.bytes_server_to_client += FRAME_OVERHEAD + SMALL_INT_BYTES
            trace.messages += 1
            trace.rounds += 1
            return trace

        used_hidden = sorted(self._used_features - disclosed_set)
        add_encrypt_vector(trace, len(used_hidden), self.sizes)

        batch_bits = (
            max(self.features[f].bit_length for f in used_hidden)
            if used_hidden
            else 1
        )
        comparisons = max(int(round(shape.comparisons)), 1)
        trace.count(Op.PAILLIER_ADD, 2 * comparisons)
        add_compare_encrypted_batch(trace, comparisons, batch_bits, self.sizes)

        leaves = max(int(round(shape.leaves)), 2)
        add_leaf_selection(
            trace, leaves, comparisons, shape.mean_depth, self.sizes
        )
        return trace

    def _expected_shape(
        self,
        node: TreeNode,
        probability: float,
        hidden_depth: float,
        disclosed: set,
        shape: _ExpectedShape,
    ) -> None:
        """Propagate activation probability through the tree.

        Disclosed nodes split probability by the feature's marginal;
        hidden nodes keep both children fully active (the residual tree
        contains them both) and cost one comparison.
        """
        if node.is_leaf:
            shape.leaves += probability
            shape.depth_mass += probability * hidden_depth
            return
        assert node.feature is not None and node.threshold is not None
        assert node.left is not None and node.right is not None
        if node.feature in disclosed:
            marginal = self.feature_marginals[node.feature]
            p_left = float(marginal[: node.threshold + 1].sum())
            self._expected_shape(
                node.left, probability * p_left, hidden_depth, disclosed, shape
            )
            self._expected_shape(
                node.right, probability * (1.0 - p_left), hidden_depth,
                disclosed, shape,
            )
            return
        shape.comparisons += probability
        self._expected_shape(
            node.left, probability, hidden_depth + 1, disclosed, shape
        )
        self._expected_shape(
            node.right, probability, hidden_depth + 1, disclosed, shape
        )


def _encrypt_hidden_features(
    ctx: TwoPartyContext, row: np.ndarray, nodes: Sequence[TreeNode]
) -> Dict[int, PaillierCiphertext]:
    """Client: encrypt (one engine batch) and ship every hidden feature
    the residual tree's ``nodes`` test; returns ``feature -> [x_f]``."""
    used_features = sorted({node.feature for node in nodes})
    ciphertexts = ctx.client_encrypt_batch(
        [int(row[f]) for f in used_features]
    )
    ciphertexts = ctx.channel.client_sends(ciphertexts)
    return dict(zip(used_features, ciphertexts))


def _compare_residual_nodes(
    ctx: TwoPartyContext,
    features: Sequence[FeatureSpec],
    encrypted: Dict[int, PaillierCiphertext],
    nodes: Sequence[TreeNode],
) -> Dict[int, PaillierCiphertext]:
    """Server-held branch bits ``[x_f >= t + 1]`` ("go right"), keyed by
    ``id(node)``.

    All nodes share one batched encrypted comparison (a single
    four-message exchange); a common bit width -- the widest encrypted
    feature -- keeps the batch uniform.
    """
    bits = max(features[f].bit_length for f in encrypted)
    z_batch: List[PaillierCiphertext] = []
    for node in nodes:
        assert node.feature is not None and node.threshold is not None
        ctx.trace.count(Op.PAILLIER_ADD, 2)
        z_batch.append(
            encrypted[node.feature] - (node.threshold + 1) + (1 << bits)
        )
    bit_ciphertexts = compare_encrypted_many(ctx, z_batch, bits)
    return {id(node): bit for node, bit in zip(nodes, bit_ciphertexts)}


def _path_costs(
    ctx: TwoPartyContext,
    residual: TreeNode,
    branch_bits: Dict[int, PaillierCiphertext],
) -> List[Tuple[PaillierCiphertext, int]]:
    """Server: ``([cost], label)`` per leaf, depth-first; the cost is the
    number of branch bits inconsistent with the leaf's path, so exactly
    the true path costs zero."""
    leaves: List[Tuple[PaillierCiphertext, int]] = []

    def collect(node: TreeNode, cost: PaillierCiphertext) -> None:
        if node.is_leaf:
            assert node.label is not None
            leaves.append((cost, int(node.label)))
            return
        assert node.left is not None and node.right is not None
        bit = branch_bits[id(node)]
        # Left edge requires b = 0 -> mismatch term b.
        ctx.trace.count(Op.PAILLIER_ADD, 1)
        collect(node.left, cost + bit)
        # Right edge requires b = 1 -> mismatch term (1 - b).
        ctx.trace.count(Op.PAILLIER_ADD, 2)
        ctx.trace.count(Op.PAILLIER_SCALAR_MUL, 1)
        collect(node.right, cost + ((bit * -1) + 1))

    collect(residual, ctx.server_encrypt(0))
    return leaves


def _internal_nodes(root: TreeNode) -> List[TreeNode]:
    """All decision nodes of a tree, depth-first pre-order."""
    if root.is_leaf:
        return []
    assert root.left is not None and root.right is not None
    return [root] + _internal_nodes(root.left) + _internal_nodes(root.right)
