"""E18 -- Extension: online/offline split and session amortization.

Production deployments of the paper's protocols pay three distinguishable
cost classes: one-time session setup (key generation), offline
precomputation (Paillier blinding factors), and the online per-query
work. This bench measures each on live crypto:

1. Paillier encryption with a precomputed-factor pool vs the full
   exponentiation (the pool's speedup *grows* with key size);
2. a client session serving N queries: wall time of the first query
   (including key generation) vs the steady-state per-query time.

The benchmarked kernel is a pooled online encryption.
"""

import time

import pytest

from repro.bench import Table
from repro.core.session import SessionConfig
from repro.crypto.paillier import PaillierKeyPair
from repro.crypto.precompute import PrecomputedEncryptionPool
from repro.crypto.rand import fresh_rng
from repro.smc.context import make_context

from conftest import BENCH_DGK_BITS, BENCH_PAILLIER_BITS, bench_config


def _mean_seconds(fn, repeats):
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats


def test_e18_online_offline_split(fitted_pipelines, warfarin_train_test,
                                  benchmark):
    # 1. Pooled vs full encryption across key sizes.
    table = Table(
        "E18a: Paillier encryption, precomputed pool vs full (live)",
        ["key bits", "full (ms)", "pooled online (ms)", "speedup"],
    )
    for key_bits in (384, 512, 768):
        keys = PaillierKeyPair.generate(key_bits=key_bits,
                                        rng=fresh_rng(key_bits))
        repeats = 40
        pool = PrecomputedEncryptionPool(
            keys.public_key, size=repeats, rng=fresh_rng(1)
        )
        rng = fresh_rng(2)
        full = _mean_seconds(lambda: keys.public_key.encrypt(123, rng=rng),
                             repeats)
        counter = iter(range(repeats))
        pooled = _mean_seconds(lambda: pool.encrypt(next(counter)), repeats)
        table.add_row([key_bits, full * 1e3, pooled * 1e3, full / pooled])
        assert pooled < full
    table.print()

    # 2. Session amortization: first query (with key generation) vs
    # steady state.
    train, test = warfarin_train_test
    pipeline = fitted_pipelines["naive_bayes"]
    secure = pipeline.secure_model
    disclosure = list(range(8))

    start = time.perf_counter()
    ctx = make_context(config=SessionConfig(
        seed=31337, paillier_bits=BENCH_PAILLIER_BITS,
        dgk_bits=BENCH_DGK_BITS, dgk_plaintext_bits=16,
    ))
    secure.classify(ctx, test.X[0], disclosure)
    first_query = time.perf_counter() - start

    steady = _mean_seconds(
        lambda: secure.classify(ctx, test.X[1], disclosure), 5
    )
    amortized_10 = (first_query + 9 * steady) / 10

    session = Table(
        "E18b: session amortization (naive Bayes, |S|=8, live crypto)",
        ["quantity", "seconds"],
    )
    session.add_row(["first query (incl. keygen)", first_query])
    session.add_row(["steady-state query", steady])
    session.add_row(["amortized over 10 queries", amortized_10])
    session.print()
    assert steady < first_query
    assert steady < amortized_10 <= first_query

    keys = PaillierKeyPair.generate(key_bits=512, rng=fresh_rng(99))
    pool = PrecomputedEncryptionPool(keys.public_key, size=100_000 // 128,
                                     rng=fresh_rng(3))

    def pooled_encrypt():
        if pool.remaining == 0:
            pool.refill(64)
        return pool.encrypt(7)

    benchmark(pooled_encrypt)
