"""The protocol-backend seam: paillier/shares parity and traces.

The acceptance bar for the backend redesign:

* both backends produce *identical labels* on the same model and rows
  (binary and multi-class), and both reveal the plaintext dot product
  through ``encrypt_features -> dot_products -> reveal_score_to_client``;
* the shares backend's analytic trace equals its live trace **exactly**
  (fixed-width share encoding + data-independent triple counts);
* a shares-backend online phase performs *zero* homomorphic operations
  (the ``op.paillier.*`` / ``op.dgk.*`` telemetry counters stay silent);
* a context cannot be built without a protocol backend.
"""

import numpy as np
import pytest

import repro.telemetry as telemetry
from repro.classifiers.linear import LogisticRegressionClassifier
from repro.core.exceptions import ReproError
from repro.core.session import PROTOCOL_BACKENDS as CONFIG_BACKENDS
from repro.core.session import SessionConfig
from repro.data.schema import FeatureSpec
from repro.secure.backends import (
    PROTOCOL_BACKENDS,
    BackendError,
    PaillierBackend,
    SharesBackend,
    make_protocol_backend,
)
from repro.secure.costing import ProtocolSizes
from repro.secure.secure_linear import SecureLinearClassifier
from repro.smc.context import make_context
from repro.smc.protocol import ExecutionTrace

TEST_SIZES = ProtocolSizes(paillier_bits=384, dgk_bits=192)
_BITS = {"paillier_bits": 384, "dgk_bits": 192, "dgk_plaintext_bits": 16}


def _context(backend: str, seed: int = 23):
    return make_context(config=SessionConfig(
        seed=seed, protocol_backend=backend, **_BITS
    ))


@pytest.fixture(scope="module")
def cohort():
    rng = np.random.default_rng(7)
    X = rng.integers(0, 8, size=(80, 5))
    features = [
        FeatureSpec(name=f"f{i}", domain_size=8) for i in range(X.shape[1])
    ]
    return X, features


@pytest.fixture(scope="module")
def binary(cohort):
    X, features = cohort
    w = np.array([2.0, -1.5, 0.5, 1.0, -0.5])
    y = (X @ w > np.median(X @ w)).astype(int)
    model = LogisticRegressionClassifier(iterations=150).fit(X, y)
    return SecureLinearClassifier(model, features, sizes=TEST_SIZES)


@pytest.fixture(scope="module")
def multiclass(cohort):
    X, features = cohort
    scores = X @ np.array([2.0, -1.5, 0.5, 1.0, -0.5])
    y = np.digitize(scores, np.quantile(scores, [0.33, 0.66]))
    model = LogisticRegressionClassifier(iterations=150).fit(X, y)
    assert len(model.classes) == 3
    return SecureLinearClassifier(model, features, sizes=TEST_SIZES)


#: A signed score reveal: weights, public offset and magnitude bound.
_REVEAL_WEIGHTS = [8, -3, 0, 5, -2]
_REVEAL_OFFSET = -40
_REVEAL_BITS = 12


def _reveal_score(ctx, values):
    """One protected dot product over the backend, opened to the client."""
    backend = ctx.protocol_backend
    state = backend.begin_query(ctx, _REVEAL_BITS)
    protected = backend.encrypt_features(state, values)
    score = backend.dot_products(
        state, protected, [_REVEAL_WEIGHTS], [_REVEAL_OFFSET]
    )[0]
    return backend.reveal_score_to_client(state, score)


class TestRegistry:
    def test_registry_mirrors_session_config_literal(self):
        assert tuple(PROTOCOL_BACKENDS) == tuple(CONFIG_BACKENDS)

    def test_factory_builds_the_named_backend(self):
        assert isinstance(make_protocol_backend("paillier"), PaillierBackend)
        assert isinstance(make_protocol_backend("shares"), SharesBackend)

    def test_unknown_name_raises(self):
        with pytest.raises(BackendError):
            make_protocol_backend("garbled")

    def test_session_config_rejects_unknown_backend(self):
        with pytest.raises(ReproError):
            SessionConfig(protocol_backend="garbled")

    def test_context_carries_the_configured_backend(self):
        ctx = _context("shares")
        assert ctx.protocol_backend.name == "shares"
        assert _context("paillier").protocol_backend.name == "paillier"


class TestLabelParity:
    """`--backend shares` and `--backend paillier`: identical labels."""

    def test_binary_linear(self, binary, cohort):
        X, _ = cohort
        paillier, shares = _context("paillier"), _context("shares")
        for row in X[:6]:
            expected = binary.predict_quantized(row)
            assert binary.classify(paillier, row) == expected
            assert binary.classify(shares, row) == expected

    def test_multiclass_linear(self, multiclass, cohort):
        X, _ = cohort
        paillier, shares = _context("paillier"), _context("shares")
        for row in X[:5]:
            expected = multiclass.predict_quantized(row)
            assert multiclass.classify(paillier, row) == expected
            assert multiclass.classify(shares, row) == expected

    def test_partial_disclosure_parity(self, binary, cohort):
        X, _ = cohort
        paillier, shares = _context("paillier"), _context("shares")
        disclosure = [0, 2]
        for row in X[:4]:
            expected = binary.predict_quantized(row)
            assert binary.classify(paillier, row, disclosure) == expected
            assert binary.classify(shares, row, disclosure) == expected

    def test_reveal_score_is_the_plaintext_dot_product(self, cohort):
        X, _ = cohort
        paillier, shares = _context("paillier"), _context("shares")
        for row in X[:4]:
            values = [int(v) for v in row]
            expected = _REVEAL_OFFSET + int(np.dot(_REVEAL_WEIGHTS, values))
            assert _reveal_score(paillier, values) == expected
            assert _reveal_score(shares, values) == expected


class TestSharesTraceParity:
    """The shares analytic model is exact, not an estimate: every byte,
    message, round and op of a live run must match the prediction."""

    def _assert_exact(self, secure, ctx, classify):
        classify()
        self._assert_equal_traces(
            secure.estimated_trace(backend=ctx.protocol_backend), ctx.trace
        )

    @staticmethod
    def _assert_equal_traces(estimated, live):
        assert estimated.bytes_client_to_server == live.bytes_client_to_server
        assert estimated.bytes_server_to_client == live.bytes_server_to_client
        assert estimated.total_bytes == live.total_bytes
        assert estimated.messages == live.messages
        assert estimated.rounds == live.rounds
        assert estimated.ops == live.ops

    def test_binary(self, binary, cohort):
        X, _ = cohort
        ctx = _context("shares")
        self._assert_exact(binary, ctx, lambda: binary.classify(ctx, X[0]))

    def test_multiclass(self, multiclass, cohort):
        X, _ = cohort
        ctx = _context("shares")
        self._assert_exact(
            multiclass, ctx, lambda: multiclass.classify(ctx, X[0])
        )

    def test_reveal_score(self, cohort):
        X, _ = cohort
        ctx = _context("shares")
        backend = ctx.protocol_backend
        _reveal_score(ctx, [int(v) for v in X[0]])
        estimated = ExecutionTrace()
        backend.trace_encrypt_vector(
            estimated, len(_REVEAL_WEIGHTS), TEST_SIZES, _REVEAL_BITS
        )
        backend.trace_dot_products(
            estimated, [sum(1 for w in _REVEAL_WEIGHTS if w)],
            TEST_SIZES, _REVEAL_BITS,
        )
        backend.trace_reveal_score(estimated, TEST_SIZES, _REVEAL_BITS)
        self._assert_equal_traces(estimated, ctx.trace)


class TestSharesOnlinePhase:
    def test_no_homomorphic_ops_in_the_online_phase(self, binary, cohort):
        """With the shares backend, classification is ring arithmetic:
        the op.paillier.* / op.dgk.* counters must stay at zero."""
        X, _ = cohort
        ctx = _context("shares")
        telemetry.configure(True, reset=True)
        try:
            label = binary.classify(ctx, X[0])
            counters = telemetry.snapshot()["counters"]
        finally:
            telemetry.configure(False, reset=True)
        assert label == binary.predict_quantized(X[0])
        heavy = [
            name for name in counters
            if name.startswith(("op.paillier", "op.dgk", "op.ot"))
        ]
        assert heavy == []
        assert counters.get("op.share_mul_triple", 0) > 0

    def test_offline_trace_accounts_distributed_material(self, binary, cohort):
        X, _ = cohort
        ctx = _context("shares")
        backend = ctx.protocol_backend
        nonzero_total = sum(
            1 for weights in binary.weight_rows for w in weights if w != 0
        )
        need = backend.query_requirements(
            nonzero_total=nonzero_total, n_classes=2,
            bits=binary.score_bits,
        )
        backend.prepare_offline(
            ctx, binary.score_bits,
            triples=need["triples"], comparisons=need["comparisons"],
        )
        offline = backend.offline_trace()
        assert offline is not None
        assert offline.total_bytes > 0
        online_before = ctx.trace.total_bytes
        binary.classify(ctx, X[0])
        assert ctx.trace.total_bytes > online_before
        # A provisioned query consumes the stockpile instead of dealing.
        store = backend.store_for(ctx, binary.score_bits)
        assert store.total_dealt[0] == need["triples"]

    def test_paillier_backend_has_no_offline_phase(self):
        assert make_protocol_backend("paillier").offline_trace() is None


class TestContextBackend:
    def test_context_requires_a_protocol_backend(self):
        from repro.smc.context import TwoPartyContext

        ctx = _context("paillier")
        with pytest.raises(TypeError):
            TwoPartyContext(
                channel=ctx.channel, paillier=ctx.paillier, dgk=ctx.dgk,
                client_rng=ctx.client_rng, server_rng=ctx.server_rng,
            )


class TestPipelineIntegration:
    def test_non_linear_classifier_rejected_early(self):
        from repro.core.pipeline import PipelineConfig

        with pytest.raises(ReproError):
            PipelineConfig(classifier="naive_bayes",
                           protocol_backend="shares")

    def test_linear_pipeline_accepts_shares(self):
        from repro.core.pipeline import PipelineConfig

        config = PipelineConfig(classifier="linear",
                                protocol_backend="shares")
        assert config.session_config().protocol_backend == "shares"
