"""Random Bayesian-network datasets of arbitrary dimension.

The optimizer-scalability experiments (E6, E8) need datasets with tens
of features and controllable correlation structure. This generator
samples a random DAG (bounded in-degree), random conditional
probability tables, then draws a cohort by ancestral sampling. The
label is a noisy threshold over a random subset of features; a chosen
fraction of features is marked sensitive.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.data.schema import Dataset, FeatureSpec


def random_dag(
    n_nodes: int, max_parents: int, rng: np.random.Generator
) -> List[List[int]]:
    """Random DAG over ``0..n_nodes-1`` with bounded in-degree.

    Returns each node's parents as a sorted list, indexed by node.
    Every parent index is below its child's, which both guarantees
    acyclicity and gives a topological order for free.
    """
    if n_nodes <= 0:
        raise ValueError(f"n_nodes must be positive, got {n_nodes}")
    if max_parents < 0:
        raise ValueError(f"max_parents must be non-negative, got {max_parents}")
    parent_lists: List[List[int]] = [[] for _ in range(n_nodes)]
    for node in range(1, n_nodes):
        available = min(node, max_parents)
        if available == 0:
            continue
        n_parents = int(rng.integers(0, available + 1))
        parents = rng.choice(node, size=n_parents, replace=False)
        parent_lists[node] = sorted(int(parent) for parent in parents)
    return parent_lists


def generate_bayesnet_dataset(
    n_samples: int = 2000,
    n_features: int = 16,
    domain_size: int = 3,
    max_parents: int = 2,
    n_sensitive: int = 2,
    seed: int = 0,
    concentration: float = 0.6,
) -> Dataset:
    """Sample a dataset from a random Bayesian network.

    Parameters
    ----------
    n_samples, n_features, domain_size:
        Shape of the generated cohort (all features share one domain
        size for simplicity).
    max_parents:
        In-degree bound of the random DAG; higher values give stronger
        multivariate correlation.
    n_sensitive:
        How many features (the last ones in index order, which tend to
        have parents and thus be predictable) are marked sensitive.
    seed:
        Determines the DAG, the CPTs and the samples.
    concentration:
        Dirichlet concentration of the random CPT rows; small values
        give sharp (informative) conditionals.
    """
    if n_sensitive >= n_features:
        raise ValueError(
            f"n_sensitive={n_sensitive} must be below n_features={n_features}"
        )
    rng = np.random.default_rng(seed)
    parent_lists = random_dag(n_features, max_parents, rng)

    # Random CPTs: for each node, one Dirichlet row per parent config.
    tables: List[np.ndarray] = []
    for parents in parent_lists:
        n_configs = domain_size ** len(parents)
        tables.append(
            rng.dirichlet(np.full(domain_size, concentration), size=n_configs)
        )

    # Ancestral sampling (node order is already topological): a node's
    # code is the number of cumulative CPT levels its uniform draw
    # exceeds.
    columns: List[np.ndarray] = []
    for node in range(n_features):
        config = np.zeros(n_samples, dtype=np.int64)
        for parent in parent_lists[node]:
            config = config * domain_size + columns[parent]
        uniform = rng.random(n_samples)
        column = np.zeros(n_samples, dtype=np.int64)
        for thresholds in tables[node].cumsum(axis=1).T:
            column += uniform > thresholds[config]
        columns.append(column)
    samples = np.column_stack(columns)

    # Label: noisy threshold over a random feature subset.
    weight_count = max(2, n_features // 3)
    chosen = rng.choice(n_features, size=weight_count, replace=False)
    weights = rng.normal(0, 1, weight_count)
    score = samples[:, chosen] @ weights + rng.normal(0, 0.5, n_samples)
    label = (score > np.median(score)).astype(np.int64)

    sensitive_set = set(range(n_features - n_sensitive, n_features))
    features = [
        FeatureSpec(
            name=f"f{index}",
            domain_size=domain_size,
            sensitive=index in sensitive_set,
            description=f"synthetic BN node {index} "
            f"(parents={parent_lists[index] or 'none'})",
        )
        for index in range(n_features)
    ]
    return Dataset(
        name=f"bayesnet-d{n_features}",
        features=features,
        X=samples,
        y=label,
        label_name="threshold_class",
    )
