"""CART decision tree with Gini impurity and ordinal threshold splits.

Every internal node tests ``x[feature] <= threshold`` over integer-coded
features, which maps one-to-one onto the secure comparison protocol:
each node on the (hidden-feature) evaluation frontier costs one
encrypted comparison. The tree structure is exposed publicly
(:class:`TreeNode`) because the secure evaluator and the
disclosure-based pruning both walk it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.classifiers.base import Classifier, ClassifierError, validate_row


@dataclass
class TreeNode:
    """One node of a fitted tree.

    Internal nodes carry ``feature``/``threshold`` and both children;
    leaves carry only ``label``.
    """

    feature: Optional[int] = None
    threshold: Optional[int] = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    label: Optional[int] = None

    @property
    def is_leaf(self) -> bool:
        """Whether this node carries a class label."""
        return self.label is not None

    def depth(self) -> int:
        """Height of the subtree rooted here (leaf = 0)."""
        if self.is_leaf:
            return 0
        assert self.left is not None and self.right is not None
        return 1 + max(self.left.depth(), self.right.depth())

    def count_internal(self) -> int:
        """Number of decision nodes in this subtree."""
        if self.is_leaf:
            return 0
        assert self.left is not None and self.right is not None
        return 1 + self.left.count_internal() + self.right.count_internal()

    def count_leaves(self) -> int:
        """Number of leaves in this subtree."""
        if self.is_leaf:
            return 1
        assert self.left is not None and self.right is not None
        return self.left.count_leaves() + self.right.count_leaves()

    def leaves(self) -> List["TreeNode"]:
        """All leaves of this subtree, left to right."""
        if self.is_leaf:
            return [self]
        assert self.left is not None and self.right is not None
        return self.left.leaves() + self.right.leaves()


class DecisionTreeClassifier(Classifier):
    """Greedy CART trainer.

    Parameters
    ----------
    max_depth:
        Depth cap (root at depth 0).
    min_samples_split:
        Do not split nodes with fewer samples.
    min_impurity_decrease:
        Minimum Gini improvement for a split to be kept.
    """

    def __init__(
        self,
        max_depth: int = 6,
        min_samples_split: int = 4,
        min_impurity_decrease: float = 1e-7,
    ) -> None:
        if max_depth < 0:
            raise ClassifierError(f"max_depth must be non-negative: {max_depth}")
        if min_samples_split < 2:
            raise ClassifierError(
                f"min_samples_split must be at least 2: {min_samples_split}"
            )
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_impurity_decrease = min_impurity_decrease
        self._root: Optional[TreeNode] = None

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "DecisionTreeClassifier":
        """Grow the tree greedily by Gini impurity."""
        features = np.asarray(features)
        labels = np.asarray(labels)
        self._register_training_shape(features, labels)
        search = _SplitSearch(features, labels, range(features.shape[1]))
        self._root = self._grow(search, np.arange(len(labels)), depth=0)
        return self

    @property
    def root(self) -> TreeNode:
        """Root of the fitted tree."""
        self._check_fitted()
        assert self._root is not None
        return self._root

    def predict_one(self, row: np.ndarray) -> int:
        """Route one row from root to a leaf."""
        row = validate_row(row, self.n_features)
        node = self.root
        while not node.is_leaf:
            assert node.feature is not None and node.threshold is not None
            assert node.left is not None and node.right is not None
            node = node.left if row[node.feature] <= node.threshold else node.right
        assert node.label is not None
        return int(node.label)

    def _grow(self, search: _SplitSearch, rows: np.ndarray, depth: int) -> TreeNode:
        labels = search.labels[rows]
        if (
            depth >= self.max_depth
            or len(labels) < self.min_samples_split
            or len(np.unique(labels)) == 1
        ):
            return TreeNode(label=_majority_label(labels))

        split = search.best_split(rows)
        if split is None:
            return TreeNode(label=_majority_label(labels))
        feature, threshold, gain = split
        if gain < self.min_impurity_decrease:
            return TreeNode(label=_majority_label(labels))

        mask = search.features[rows, feature] <= threshold
        return TreeNode(
            feature=feature,
            threshold=threshold,
            left=self._grow(search, rows[mask], depth + 1),
            right=self._grow(search, rows[~mask], depth + 1),
        )


class _SplitSearch:
    """Histogram split search over one training set.

    Each candidate column is recoded once to dense value ranks, and
    each ``(candidate, rank)`` pair is a *slot*. A node then costs one
    ``np.bincount`` over ``(slot, class)``: cumulative sums down each
    candidate's slots give the left-side class counts of every
    threshold, and the node's class totals minus those give the right
    side. Gains are computed with :func:`_gini`'s arithmetic, so the
    chosen split is the one a scan of every threshold would choose.
    """

    def __init__(
        self, features: np.ndarray, labels: np.ndarray, candidates: Iterable[int]
    ) -> None:
        self.features = features
        self.labels = labels
        self.candidates = list(candidates)
        classes, self.codes = np.unique(labels, return_inverse=True)
        self.n_classes = len(classes)
        self.values: List[np.ndarray] = []
        ranks = []
        for feature in self.candidates:
            values, column = np.unique(features[:, feature], return_inverse=True)
            self.values.append(values)
            ranks.append(column)
        sizes = [len(values) for values in self.values]
        #: Candidate index of every slot, and each candidate's first slot.
        self.slot_candidate = np.repeat(np.arange(len(sizes)), sizes)
        self.first_slot = np.cumsum([0] + sizes[:-1], dtype=np.intp)
        #: Row-by-candidate histogram cell, before adding the row's class.
        self.cells = (
            (np.column_stack(ranks) + self.first_slot) * self.n_classes
            if ranks
            else np.empty((len(labels), 0), dtype=np.intp)
        )

    def best_split(self, rows: np.ndarray) -> Optional[Tuple[int, int, float]]:
        """Best ``(feature, threshold, gain)`` over the node holding ``rows``.

        Thresholds are the values present at the node except its
        largest. Ties go to the first candidate, then the lowest
        threshold.
        """
        n = len(rows)
        codes = self.codes[rows]
        n_slots = len(self.slot_candidate)
        counts = np.bincount(
            (self.cells[rows] + codes[:, None]).ravel(),
            minlength=n_slots * self.n_classes,
        ).reshape(n_slots, self.n_classes)
        # Every row lands once in each candidate's slots, so the running
        # total before candidate j's first slot is j times the node's
        # class totals.
        totals = np.bincount(codes, minlength=self.n_classes)
        left = counts.cumsum(axis=0) - self.slot_candidate[:, None] * totals
        left_size = left.sum(axis=1)
        valid = np.flatnonzero((counts.sum(axis=1) > 0) & (left_size < n))
        if len(valid) == 0:
            return None
        left, left_size = left[valid], left_size[valid]
        impurity = _gini_rows(np.concatenate([left, totals - left]))
        weighted = (
            left_size / n * impurity[: len(valid)]
            + (n - left_size) / n * impurity[len(valid):]
        )
        gains = _gini(self.labels[rows]) - weighted
        best = int(np.argmax(gains))
        slot = valid[best]
        candidate = self.slot_candidate[slot]
        return (
            self.candidates[candidate],
            int(self.values[candidate][slot - self.first_slot[candidate]]),
            float(gains[best]),
        )


def _gini(labels: np.ndarray) -> float:
    """Gini impurity of a label vector."""
    if len(labels) == 0:
        return 0.0
    _, counts = np.unique(labels, return_counts=True)
    proportions = counts / counts.sum()
    return float(1.0 - (proportions**2).sum())


def _gini_rows(counts: np.ndarray) -> np.ndarray:
    """:func:`_gini` of every row of a class-count table, float for float.

    :func:`_gini` sums the squared proportions of the classes present
    only, and numpy groups a sum's terms by how many there are. So each
    row's present terms are packed to the front and summed together
    with the rows that have as many.
    """
    squares = (counts / counts.sum(axis=1)[:, None]) ** 2
    present = counts > 0
    packed = np.take_along_axis(
        squares, np.argsort(~present, axis=1, kind="stable"), axis=1
    )
    n_present = present.sum(axis=1)
    sums = np.empty(len(counts))
    for width in np.unique(n_present):
        same = n_present == width
        sums[same] = packed[same, :width].sum(axis=1)
    return 1.0 - sums


def _majority_label(labels: np.ndarray) -> int:
    """Most frequent label (lowest label wins ties, deterministically)."""
    values, counts = np.unique(labels, return_counts=True)
    return int(values[int(np.argmax(counts))])
