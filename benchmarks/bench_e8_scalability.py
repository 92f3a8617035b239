"""E8 -- Optimizer scalability in the number of features.

Solve time of lazy greedy vs eager greedy vs branch-and-bound as the
feature count grows (random Bayesian-network cohorts, naive-Bayes
classifier cost). Greedy stays fast at d = 64 while exact search grows
quickly; lazy evaluation saves a large fraction of risk evaluations.

The benchmarked kernel is lazy greedy at d = 48.

A fitted pipeline prices each disclosure set once, so every solver and
every benchmark round gets a freshly fitted pipeline: the solve times
are cold, not cache hits left by the solver before.
"""

import functools
import time

from repro.api import PrivacyAwareClassifier
from repro.bench import Table
from repro.selection import solve_branch_and_bound, solve_greedy

from conftest import bench_config

DIMENSIONS = (8, 16, 32, 48, 64)
BUDGET = 0.15


@functools.lru_cache(maxsize=None)
def _dataset_for(d: int):
    from repro.data import generate_bayesnet_dataset

    return generate_bayesnet_dataset(
        n_samples=1500, n_features=d, domain_size=3, n_sensitive=2,
        seed=100 + d,
    )


def _fresh_problem(d: int):
    """The budget-``BUDGET`` problem over a newly fitted pipeline."""
    pipeline = PrivacyAwareClassifier(
        bench_config("naive_bayes", risk_sample_rows=150)
    ).fit(_dataset_for(d))
    return pipeline.build_problem(BUDGET)


def test_e8_solver_scalability(benchmark):
    table = Table(
        "E8: solve time vs feature count (budget 0.15)",
        ["d", "lazy (ms)", "lazy evals", "eager (ms)", "eager evals",
         "b&b (ms)", "b&b nodes"],
    )
    lazy_times = {}
    for d in DIMENSIONS:
        problem = _fresh_problem(d)
        start = time.perf_counter()
        lazy = solve_greedy(problem, lazy=True)
        lazy_ms = (time.perf_counter() - start) * 1e3
        lazy_evals = problem.evaluation_counts["risk"]
        lazy_times[d] = lazy_ms

        problem = _fresh_problem(d)
        start = time.perf_counter()
        eager = solve_greedy(problem, lazy=False)
        eager_ms = (time.perf_counter() - start) * 1e3
        eager_evals = problem.evaluation_counts["risk"]

        if d <= 16:
            problem = _fresh_problem(d)
            start = time.perf_counter()
            bnb = solve_branch_and_bound(problem, max_nodes=50_000)
            bnb_ms = (time.perf_counter() - start) * 1e3
            bnb_nodes = bnb.nodes_explored
        else:
            bnb_ms, bnb_nodes = float("nan"), "-"

        table.add_row([d, lazy_ms, lazy_evals, eager_ms, eager_evals,
                       bnb_ms, bnb_nodes])

        # Shape: lazy never does more risk evaluations than eager, and
        # both stay within the budget.
        assert lazy_evals <= eager_evals
        assert lazy.risk <= BUDGET + 1e-9
        assert eager.risk <= BUDGET + 1e-9
    table.print()

    # Greedy scales to d=64 in interactive time.
    assert lazy_times[64] < 10_000

    benchmark.pedantic(
        solve_greedy, setup=lambda: ((_fresh_problem(48),), {}), rounds=20
    )
