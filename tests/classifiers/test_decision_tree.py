"""Tests for the CART decision tree."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.classifiers.base import ClassifierError
from repro.classifiers.decision_tree import (
    DecisionTreeClassifier,
    TreeNode,
    _gini,
    _gini_rows,
    _majority_label,
    _SplitSearch,
)
from repro.classifiers.metrics import accuracy
from repro.data.splits import train_test_split
from repro.data.warfarin import generate_warfarin


def _xorish_data(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, size=(n, 3))
    y = X[:, 0] ^ X[:, 1]
    return X, y


class TestTraining:
    def test_learns_xor(self):
        X, y = _xorish_data()
        model = DecisionTreeClassifier(max_depth=4).fit(X, y)
        assert accuracy(y, model.predict(X)) == 1.0

    def test_depth_cap_respected(self):
        X, y = _xorish_data()
        model = DecisionTreeClassifier(max_depth=1).fit(X, y)
        assert model.root.depth() <= 1

    def test_pure_node_becomes_leaf(self):
        X = np.array([[0], [1], [2]])
        y = np.array([1, 1, 1])
        model = DecisionTreeClassifier().fit(X, y)
        assert model.root.is_leaf
        assert model.root.label == 1

    def test_min_samples_split(self):
        X, y = _xorish_data(6)
        model = DecisionTreeClassifier(min_samples_split=100).fit(X, y)
        assert model.root.is_leaf

    def test_multiclass(self):
        rng = np.random.default_rng(1)
        X = rng.integers(0, 3, size=(600, 2))
        y = X[:, 0]  # label equals feature 0
        model = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert accuracy(y, model.predict(X)) == 1.0


class TestTreeNode:
    def _small_tree(self) -> TreeNode:
        return TreeNode(
            feature=0,
            threshold=1,
            left=TreeNode(label=0),
            right=TreeNode(
                feature=1, threshold=0,
                left=TreeNode(label=1), right=TreeNode(label=2),
            ),
        )

    def test_counts(self):
        tree = self._small_tree()
        assert tree.count_internal() == 2
        assert tree.count_leaves() == 3
        assert tree.depth() == 2

    def test_leaves_ordering(self):
        labels = [leaf.label for leaf in self._small_tree().leaves()]
        assert labels == [0, 1, 2]

    def test_leaf_properties(self):
        leaf = TreeNode(label=5)
        assert leaf.is_leaf
        assert leaf.depth() == 0
        assert leaf.count_internal() == 0


class TestHelpers:
    def test_gini_pure(self):
        assert _gini(np.array([1, 1, 1])) == 0.0

    def test_gini_balanced_binary(self):
        assert _gini(np.array([0, 1, 0, 1])) == pytest.approx(0.5)

    def test_gini_empty(self):
        assert _gini(np.array([])) == 0.0

    def test_majority_label_tie_breaks_low(self):
        assert _majority_label(np.array([0, 1])) == 0
        assert _majority_label(np.array([2, 2, 5])) == 2


class TestValidation:
    def test_bad_depth_rejected(self):
        with pytest.raises(ClassifierError):
            DecisionTreeClassifier(max_depth=-1)

    def test_bad_min_samples_rejected(self):
        with pytest.raises(ClassifierError):
            DecisionTreeClassifier(min_samples_split=1)

    def test_unfitted_predict_rejected(self):
        with pytest.raises(ClassifierError):
            DecisionTreeClassifier().predict_one(np.zeros(2))


# -- histogram split search vs an exhaustive threshold scan ----------------


def _scan_best_split(features, labels, candidates):
    """Reference split search: a mask and a Gini of each side for every
    threshold of every candidate, keeping the first strictly best."""
    parent_impurity = _gini(labels)
    n = len(labels)
    best = None
    for feature in candidates:
        column = features[:, feature]
        for threshold in np.unique(column)[:-1]:
            mask = column <= threshold
            left, right = labels[mask], labels[~mask]
            weighted = (
                len(left) / n * _gini(left) + len(right) / n * _gini(right)
            )
            gain = parent_impurity - weighted
            if best is None or gain > best[2]:
                best = (feature, int(threshold), gain)
    return best


def _scan_tree(features, labels, candidates, depth, max_depth,
               min_samples_split=4, min_impurity_decrease=1e-7):
    """Reference fit, in the preorder form of :func:`_preorder`."""
    leaf = [["leaf", _majority_label(labels)]]
    if (depth >= max_depth or len(labels) < min_samples_split
            or len(np.unique(labels)) == 1):
        return leaf
    split = _scan_best_split(features, labels, candidates)
    if split is None or split[2] < min_impurity_decrease:
        return leaf
    feature, threshold, _ = split
    mask = features[:, feature] <= threshold
    return (
        [[feature, threshold]]
        + _scan_tree(features[mask], labels[mask], candidates, depth + 1,
                     max_depth, min_samples_split, min_impurity_decrease)
        + _scan_tree(features[~mask], labels[~mask], candidates, depth + 1,
                     max_depth, min_samples_split, min_impurity_decrease)
    )


def _preorder(node):
    if node.is_leaf:
        return [["leaf", node.label]]
    return (
        [[node.feature, node.threshold]]
        + _preorder(node.left) + _preorder(node.right)
    )


@st.composite
def _training_sets(draw):
    """Integer matrices whose columns take 1-5 codes from a wide range
    (negative, sparse, large), labels from up to 10 arbitrary codes,
    duplicated columns for exact gain ties, and a candidate subset in
    any order."""
    n = draw(st.integers(1, 60))
    code = st.integers(-(10**12), 10**12)
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        if columns and draw(st.booleans()):
            columns.append(columns[draw(st.integers(0, len(columns) - 1))])
            continue
        codes = draw(st.lists(code, min_size=1, max_size=5, unique=True))
        picks = draw(st.lists(st.integers(0, len(codes) - 1),
                              min_size=n, max_size=n))
        columns.append([codes[i] for i in picks])
    classes = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=10,
                            unique=True))
    labels = draw(st.lists(st.sampled_from(classes), min_size=n, max_size=n))
    features = np.array(columns, dtype=np.int64).T
    candidates = draw(st.one_of(
        st.none(),
        st.permutations(range(features.shape[1])).flatmap(
            lambda order: st.integers(0, len(order)).map(
                lambda k: list(order[:k]))),
    ))
    return features, np.array(labels, dtype=np.int64), candidates


class TestHistogramSplitSearch:
    @settings(max_examples=300, deadline=None)
    @given(_training_sets(), st.randoms(use_true_random=False))
    def test_best_split_matches_scan(self, data, random):
        features, labels, candidates = data
        if candidates is None:
            candidates = list(range(features.shape[1]))
        search = _SplitSearch(features, labels, candidates)
        rows = np.array(sorted(random.sample(
            range(len(labels)), random.randint(1, len(labels)))))
        got = search.best_split(rows)
        want = _scan_best_split(features[rows], labels[rows], candidates)
        if want is None:
            assert got is None
        else:
            assert got[:2] == want[:2]
            assert got[2] == want[2]

    @settings(max_examples=150, deadline=None)
    @given(_training_sets(), st.integers(0, 4))
    def test_fit_matches_scan(self, data, max_depth):
        features, labels, _ = data
        tree = DecisionTreeClassifier(
            max_depth=max_depth, min_samples_split=2,
            min_impurity_decrease=0.0,
        ).fit(features, labels)
        assert _preorder(tree.root) == _scan_tree(
            features, labels, list(range(features.shape[1])), 0, max_depth,
            min_samples_split=2, min_impurity_decrease=0.0,
        )

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 40), min_size=1, max_size=14),
                    min_size=1, max_size=6))
    def test_gini_rows_is_gini_float_for_float(self, rows):
        # Up to 14 classes with gaps, so some rows hold 8 or more
        # classes (summed pairwise by numpy) and some miss the first.
        width = max(len(row) for row in rows)
        counts = np.array([row + [0] * (width - len(row)) for row in rows])
        counts[counts.sum(axis=1) == 0, 0] = 1
        for row, impurity in zip(counts, _gini_rows(counts)):
            labels = np.repeat(np.arange(width), row)
            assert impurity == _gini(labels)

    def test_constant_columns_give_no_split(self):
        features = np.full((10, 3), -7)
        labels = np.arange(10) % 2
        search = _SplitSearch(features, labels, range(3))
        assert search.best_split(np.arange(10)) is None


def _digest(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def test_warfarin_depth6_tree_pinned():
    # The optimizer benchmark's tree: its structure must not move when
    # the trainer's internals change.
    train, _ = train_test_split(
        generate_warfarin(n_samples=4000, seed=0), seed=0
    )
    tree = DecisionTreeClassifier(max_depth=6).fit(train.X, train.y)
    assert tree.root.count_internal() == 53
    assert _digest(_preorder(tree.root)) == (
        "4c6a3ec618bd42cd6d228acdeb4d5b1dceffa41ad7a7df36c9db5b3955d2eae7"
    )
