"""Share arithmetic properties of the share protocol layer.

:class:`repro.smc.shares.ShareSession` is the one share engine: linear
operations on :class:`~repro.smc.shares.SharedValue` are local, Beaver
products drain the session's triple store, and every sharing and
opening is accounted on the session channel.
"""

import dataclasses
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.session import SessionConfig
from repro.crypto.beaver import TrustedDealer
from repro.crypto.rand import fresh_rng
from repro.crypto.secret_sharing import SecretSharingError
from repro.crypto.triples import TripleStore, TripleStoreExhaustedError
from repro.smc.context import make_context
from repro.smc.network import Channel
from repro.smc.protocol import Op
from repro.smc.shares import ShareProtocolError, ShareSession

values = st.integers(-(2**20), 2**20)


@functools.lru_cache(maxsize=1)
def _base_context():
    return make_context(config=SessionConfig(
        seed=1, paillier_bits=384, dgk_bits=192, dgk_plaintext_bits=16,
    ))


def _session(modulus: int = 1 << 64, seed: int = 1) -> ShareSession:
    """A session on a fresh channel over its own triple store."""
    ctx = dataclasses.replace(
        _base_context(), channel=Channel(),
        client_rng=fresh_rng(seed), server_rng=fresh_rng(seed + 1),
    )
    dealer = TrustedDealer(rng=fresh_rng(seed + 2), modulus=modulus)
    return ShareSession(ctx, TripleStore(dealer))


def _open(session: ShareSession, value) -> int:
    return session.reveal_to_client(value)


@pytest.fixture()
def session():
    return _session()


class TestLinearOps:
    @given(values, values)
    @settings(max_examples=25, deadline=None)
    def test_addition(self, a, b):
        s = _session()
        [x] = s.input_client([a])
        [y] = s.input_server([b])
        assert _open(s, x + y) == a + b

    @given(values, values)
    @settings(max_examples=25, deadline=None)
    def test_subtraction(self, a, b):
        s = _session()
        [x] = s.input_client([a])
        [y] = s.input_server([b])
        assert _open(s, x - y) == a - b

    @given(values, st.integers(-1000, 1000))
    @settings(max_examples=25, deadline=None)
    def test_scalar_mul(self, a, k):
        s = _session()
        [x] = s.input_client([a])
        assert _open(s, x * k) == a * k

    def test_public_constant_add(self, session):
        [x] = session.input_client([40])
        assert _open(session, x + 2) == 42
        assert _open(session, session.constant(-5) + x) == 35


class TestMultiplication:
    @given(values, values)
    @settings(max_examples=25, deadline=None)
    def test_beaver_product(self, a, b):
        s = _session()
        [x] = s.input_client([a])
        [y] = s.input_server([b])
        [product] = s.multiply_batch([x], [y])
        assert _open(s, product) == a * b

    def test_multiplication_consumes_triple(self, session):
        trace = session.ctx.trace
        xs = session.input_client([2, 5])
        ys = session.input_server([3, 7])
        before = trace.op_count(Op.SHARE_MUL_TRIPLE)
        session.multiply_batch(xs, ys)
        assert trace.op_count(Op.SHARE_MUL_TRIPLE) == before + 2

    def test_openings_recorded(self, session):
        trace = session.ctx.trace
        xs = session.input_client([2, 5, 11])
        ys = session.input_server([3, 7, 13])
        before = trace.messages
        session.multiply_batch(xs, ys)
        # One batched opening: each party announces its share vector.
        assert trace.messages - before == 2

    def test_exhausted_store_raises(self):
        s = _session()
        s.store.refill(triples=2)
        xs = s.input_client([2, 5])
        ys = s.input_server([3, 7])
        products = s.multiply_batch(xs, ys)
        assert [_open(s, p) for p in products] == [6, 35]
        with pytest.raises(TripleStoreExhaustedError):
            s.store.take_triples(1)


class TestDotProduct:
    def test_matches_plain(self, session):
        xs = session.input_client([2, -3, 4])
        ys = session.input_server([5, 6, -7])
        total = session.constant(0)
        for product in session.multiply_batch(xs, ys):
            total = total + product
        assert _open(session, total) == 2 * 5 - 3 * 6 - 4 * 7

    def test_empty(self, session):
        assert session.multiply_batch([], []) == []

    def test_length_mismatch_rejected(self, session):
        with pytest.raises(ShareProtocolError):
            session.multiply_batch(session.input_client([1]), [])


class TestLinearCombination:
    def test_matches_plain(self, session):
        vals = session.input_client([1, 2, 3])
        total = session.constant(0)
        for value, coefficient in zip(vals, [10, 20, 30]):
            total = total + value * coefficient
        assert _open(session, total) == 140


class TestConstruction:
    def test_modulus_mismatch_rejected(self):
        [x] = _session(modulus=1 << 64).input_client([1])
        [y] = _session(modulus=1 << 16).input_client([1])
        with pytest.raises(SecretSharingError):
            x + y
