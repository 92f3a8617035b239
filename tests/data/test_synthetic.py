"""Tests for the random Bayesian-network dataset generator."""

import hashlib

import numpy as np
import pytest

from repro.data.synthetic import generate_bayesnet_dataset, random_dag


class TestRandomDag:
    def test_acyclic(self):
        rng = np.random.default_rng(0)
        dag = random_dag(20, 3, rng)
        assert len(dag) == 20
        assert all(
            parent < node for node, parents in enumerate(dag) for parent in parents
        )

    def test_in_degree_bounded(self):
        rng = np.random.default_rng(1)
        dag = random_dag(30, 2, rng)
        assert max(len(parents) for parents in dag) <= 2

    def test_zero_parents_allowed(self):
        rng = np.random.default_rng(2)
        dag = random_dag(5, 0, rng)
        assert dag == [[]] * 5

    def test_bad_params_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            random_dag(0, 2, rng)
        with pytest.raises(ValueError):
            random_dag(5, -1, rng)


class TestGenerateBayesnet:
    def test_shape_and_domains(self):
        ds = generate_bayesnet_dataset(
            n_samples=500, n_features=12, domain_size=3, seed=0
        )
        assert ds.X.shape == (500, 12)
        assert ds.X.max() < 3
        assert ds.X.min() >= 0
        assert all(size == 3 for size in ds.domain_sizes)

    def test_sensitive_count(self):
        ds = generate_bayesnet_dataset(n_features=10, n_sensitive=3, seed=1)
        assert len(ds.sensitive_indices) == 3

    def test_balanced_labels(self):
        ds = generate_bayesnet_dataset(n_samples=1000, seed=2)
        assert 0.4 < ds.y.mean() < 0.6

    def test_optimizer_cohort_pinned(self):
        # The optimizer benchmark's 48-feature cohort: its bytes must
        # not move when the generator's internals change.
        ds = generate_bayesnet_dataset(
            n_samples=1500, n_features=48, domain_size=3, n_sensitive=2,
            seed=148,
        )
        digest = hashlib.sha256()
        digest.update(ds.X.astype("<i8").tobytes())
        digest.update(ds.y.astype("<i8").tobytes())
        assert digest.hexdigest() == (
            "e04f5ef8d9357d8715934824d5fdab1ae29c89234132dc321ffa410523c440ad"
        )

    def test_deterministic(self):
        a = generate_bayesnet_dataset(n_samples=100, seed=7)
        b = generate_bayesnet_dataset(n_samples=100, seed=7)
        assert np.array_equal(a.X, b.X)

    def test_parents_induce_correlation(self):
        # With sharp CPTs, children correlate with their parents; verify
        # at least one strong pairwise dependence exists.
        ds = generate_bayesnet_dataset(
            n_samples=3000, n_features=10, max_parents=2,
            concentration=0.2, seed=3,
        )
        best = 0.0
        for a in range(10):
            for b in range(a + 1, 10):
                corr = abs(np.corrcoef(ds.X[:, a], ds.X[:, b])[0, 1])
                best = max(best, corr)
        assert best > 0.3

    def test_all_sensitive_rejected(self):
        with pytest.raises(ValueError):
            generate_bayesnet_dataset(n_features=4, n_sensitive=4)
