"""Tests for the random-forest trainer."""

import hashlib
import json

import numpy as np
import pytest

from repro.classifiers.base import ClassifierError
from repro.classifiers.forest import RandomForestClassifier
from repro.classifiers.metrics import accuracy
from repro.data.splits import train_test_split
from repro.data.warfarin import generate_warfarin


class TestTraining:
    def test_learns_warfarin(self, warfarin_split):
        train, test = warfarin_split
        forest = RandomForestClassifier(n_trees=9, max_depth=5, seed=0).fit(
            train.X, train.y
        )
        assert accuracy(test.y, forest.predict(test.X)) > 0.75

    def test_forest_at_least_matches_single_stump(self, warfarin_split):
        from repro.classifiers import DecisionTreeClassifier

        train, test = warfarin_split
        stump = DecisionTreeClassifier(max_depth=2).fit(train.X, train.y)
        forest = RandomForestClassifier(n_trees=11, max_depth=5, seed=0).fit(
            train.X, train.y
        )
        assert accuracy(test.y, forest.predict(test.X)) >= \
            accuracy(test.y, stump.predict(test.X))

    def test_tree_count(self, warfarin_split):
        train, _ = warfarin_split
        forest = RandomForestClassifier(n_trees=5, seed=1).fit(
            train.X[:500], train.y[:500]
        )
        assert len(forest.trees) == 5

    def test_feature_subsampling_restricts_splits(self, warfarin_split):
        train, _ = warfarin_split
        forest = RandomForestClassifier(
            n_trees=4, feature_fraction=0.3, seed=2
        ).fit(train.X[:800], train.y[:800])
        for tree in forest.trees:
            assert tree.candidate_features is not None
            used = {
                node.feature
                for node in _collect_internal(tree.root)
            }
            assert used <= set(tree.candidate_features)

    def test_bagging_diversifies_trees(self, warfarin_split):
        train, _ = warfarin_split
        forest = RandomForestClassifier(n_trees=6, seed=3).fit(
            train.X, train.y
        )
        roots = {
            (tree.root.feature, tree.root.threshold)
            for tree in forest.trees
            if not tree.root.is_leaf
        }
        assert len(roots) > 1  # not all trees identical

    def test_deterministic_for_seed(self, warfarin_split):
        train, test = warfarin_split
        a = RandomForestClassifier(n_trees=4, seed=7).fit(train.X, train.y)
        b = RandomForestClassifier(n_trees=4, seed=7).fit(train.X, train.y)
        assert np.array_equal(a.predict(test.X[:50]), b.predict(test.X[:50]))


class TestVoting:
    def test_vote_counts_sum_to_trees(self, warfarin_split):
        train, test = warfarin_split
        forest = RandomForestClassifier(n_trees=7, seed=4).fit(
            train.X, train.y
        )
        counts = forest.vote_counts(test.X[0])
        assert counts.sum() == 7

    def test_prediction_is_argmax_of_votes(self, warfarin_split):
        train, test = warfarin_split
        forest = RandomForestClassifier(n_trees=7, seed=5).fit(
            train.X, train.y
        )
        for row in test.X[:20]:
            counts = forest.vote_counts(row)
            assert forest.predict_one(row) == int(
                forest.classes[int(np.argmax(counts))]
            )


class TestValidation:
    def test_bad_tree_count_rejected(self):
        with pytest.raises(ClassifierError):
            RandomForestClassifier(n_trees=0)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ClassifierError):
            RandomForestClassifier(feature_fraction=0.0)
        with pytest.raises(ClassifierError):
            RandomForestClassifier(feature_fraction=1.5)

    def test_unfitted_rejected(self):
        with pytest.raises(ClassifierError):
            RandomForestClassifier().predict_one(np.zeros(3))


def _collect_internal(node):
    if node.is_leaf:
        return []
    return [node] + _collect_internal(node.left) + _collect_internal(node.right)


def _preorder(node):
    if node.is_leaf:
        return [["leaf", node.label]]
    return (
        [[node.feature, node.threshold]]
        + _preorder(node.left) + _preorder(node.right)
    )


def test_seeded_forest_pinned():
    # Bootstrap rows and feature subsets fixed by the seed: every
    # tree's structure must not move when the trainer's internals change.
    train, _ = train_test_split(
        generate_warfarin(n_samples=4000, seed=0), seed=0
    )
    forest = RandomForestClassifier(n_trees=5, seed=3).fit(train.X, train.y)
    shapes = [_preorder(tree.root) for tree in forest.trees]
    assert sum(tree.root.count_internal() for tree in forest.trees) == 259
    assert hashlib.sha256(json.dumps(shapes).encode()).hexdigest() == (
        "9e0862653b1b01ead5e6ea71f907e09766b7241cbdc9b17a5f1228bb7b51885c"
    )
