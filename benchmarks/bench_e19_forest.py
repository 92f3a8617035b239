"""E19 -- Extension: secure random forests.

Ensembles are the future-work model family of the secure-classifier
literature. This bench measures what the library's forest protocol
delivers:

1. accuracy: the bagged forest vs the single tree on the warfarin task;
2. the disclosure curve for the ensemble (cross-tree comparison
   batching keeps the round count flat in the ensemble size);
3. ensemble-size scaling: modeled cost per query vs number of trees,
   pure SMC and at budget 0.1.

The benchmarked kernel is one live partially-disclosed forest query.
"""

import numpy as np
import pytest

from repro.bench import Table
from repro.classifiers import (
    DecisionTreeClassifier,
    RandomForestClassifier,
    accuracy,
)
from repro.core.session import SessionConfig
from repro.secure.costing import ProtocolSizes
from repro.secure.secure_forest import SecureRandomForestClassifier
from repro.smc.context import make_context
from repro.smc.cost_model import CostModel, NATIVE_1024

from conftest import BENCH_DGK_BITS, BENCH_PAILLIER_BITS


def _secure_forest(train, n_trees, max_depth=5, seed=0):
    forest = RandomForestClassifier(
        n_trees=n_trees, max_depth=max_depth, seed=seed
    ).fit(train.X, train.y)
    marginals = [
        np.bincount(train.X[:, f], minlength=spec.domain_size)
        for f, spec in enumerate(train.features)
    ]
    return forest, SecureRandomForestClassifier(
        forest, train.features, feature_marginals=marginals,
        sizes=ProtocolSizes(BENCH_PAILLIER_BITS, BENCH_DGK_BITS),
    )


def test_e19_secure_forest(warfarin_train_test, benchmark):
    train, test = warfarin_train_test
    cost_model = CostModel(hardware=NATIVE_1024, traffic_scale=2.0)

    # 1. Accuracy: forest vs single tree.
    tree = DecisionTreeClassifier(max_depth=5).fit(train.X, train.y)
    forest, secure = _secure_forest(train, n_trees=9)
    tree_acc = accuracy(test.y, tree.predict(test.X))
    forest_acc = accuracy(test.y, forest.predict(test.X))
    head = Table("E19a: ensemble accuracy", ["model", "accuracy"])
    head.add_row(["single tree (d=5)", tree_acc])
    head.add_row(["forest (9 x d=5)", forest_acc])
    head.print()
    assert forest_acc >= tree_acc - 0.02

    # 2. Disclosure curve for the ensemble.
    curve = Table("E19b: forest cost vs |disclosed| (modeled s/query)",
                  ["|S|", "seconds", "bytes", "rounds"])
    costs = []
    for level in (0, 4, 8, 12):
        trace = secure.estimated_trace(list(range(level)))
        seconds = cost_model.total_seconds(trace)
        costs.append(seconds)
        curve.add_row([level, seconds, trace.total_bytes, trace.rounds])
    curve.print()
    assert costs == sorted(costs, reverse=True)
    assert costs[0] / costs[-1] > 100

    # 3. Ensemble-size scaling.
    scaling = Table("E19c: modeled s/query vs ensemble size",
                    ["trees", "pure SMC", "disclosed 10", "rounds (pure)"])
    for n_trees in (1, 5, 9, 15):
        _, sec = _secure_forest(train, n_trees=n_trees, seed=n_trees)
        pure_trace = sec.estimated_trace([])
        pure = cost_model.total_seconds(pure_trace)
        partial = cost_model.total_seconds(
            sec.estimated_trace(list(range(10)))
        )
        scaling.add_row([n_trees, pure, partial, pure_trace.rounds])
        # Cross-tree batching keeps rounds flat in the ensemble size.
        assert pure_trace.rounds < 30
    scaling.print()

    # Live spot check.
    ctx = make_context(config=SessionConfig(
        seed=6, paillier_bits=BENCH_PAILLIER_BITS, dgk_bits=BENCH_DGK_BITS,
        dgk_plaintext_bits=16,
    ))
    row = test.X[0]
    label = secure.classify(ctx, row, list(range(8)))
    counts = forest.vote_counts(row)
    assert counts[secure.classes.index(label)] == counts.max()

    benchmark(lambda: secure.classify(ctx, row, list(range(8))))
