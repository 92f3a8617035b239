"""Shared fixtures: session-scoped keys and datasets.

Key generation and dataset synthesis dominate test runtime, so they are
generated once per session with fixed seeds; tests never mutate them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto import modexp
from repro.crypto.dgk import DgkKeyPair
from repro.crypto.paillier import PaillierKeyPair
from repro.crypto.rand import fresh_rng
from repro.data import (
    generate_adult_like,
    generate_cancer_like,
    generate_warfarin,
    train_test_split,
)
from repro.core.session import SessionConfig
from repro.smc.context import TwoPartyContext, make_context
from repro.smc.network import Channel

def pytest_addoption(parser):
    parser.addoption(
        "--crypto-backend",
        choices=modexp.MODEXP_BACKENDS,
        default=None,
        help="run the whole suite under this bignum backend "
             "(the CI crypto-backends job passes gmpy2 here)",
    )


def pytest_configure(config):
    backend = config.getoption("--crypto-backend")
    if backend is not None:
        # Fail fast with a clear message if an explicit backend (e.g.
        # gmpy2 in CI) cannot actually be constructed.
        modexp.set_default_backend(backend)


# Small-but-correct key sizes for fast tests. The cost model covers
# production sizes; protocol correctness is size-independent.
TEST_PAILLIER_BITS = 384
TEST_DGK_BITS = 192


@pytest.fixture(scope="session")
def paillier_keys() -> PaillierKeyPair:
    return PaillierKeyPair.generate(
        key_bits=TEST_PAILLIER_BITS, rng=fresh_rng(101)
    )


@pytest.fixture(scope="session")
def dgk_keys() -> DgkKeyPair:
    return DgkKeyPair.generate(
        key_bits=TEST_DGK_BITS, plaintext_bits=12, rng=fresh_rng(103)
    )


@pytest.fixture(scope="session")
def session_context() -> TwoPartyContext:
    """One shared two-party context; its trace accumulates across tests
    (tests must assert on deltas or local channels, not absolutes)."""
    return make_context(config=SessionConfig(
        seed=7,
        paillier_bits=TEST_PAILLIER_BITS,
        dgk_bits=TEST_DGK_BITS,
        dgk_plaintext_bits=16,
    ))


@pytest.fixture()
def fresh_context() -> TwoPartyContext:
    """A context with a clean trace (fresh channel, shared keys are
    regenerated deterministically -- still fast at test sizes)."""
    return make_context(config=SessionConfig(
        seed=11,
        paillier_bits=TEST_PAILLIER_BITS,
        dgk_bits=TEST_DGK_BITS,
        dgk_plaintext_bits=16,
    ))


@pytest.fixture(scope="session")
def warfarin():
    return generate_warfarin(n_samples=2000, seed=0)


@pytest.fixture(scope="session")
def warfarin_split(warfarin):
    return train_test_split(warfarin, test_fraction=0.25, seed=0)


@pytest.fixture(scope="session")
def adult():
    return generate_adult_like(n_samples=3000, seed=1)


@pytest.fixture(scope="session")
def cancer():
    return generate_cancer_like(n_samples=600, seed=2)
