"""Live-protocol tests for the secure naive-Bayes classifier."""

import numpy as np
import pytest

import itertools

from repro.classifiers.naive_bayes import NaiveBayesClassifier
from repro.core.pipeline import PipelineConfig
from repro.secure.base import SecureClassificationError
from repro.secure.secure_naive_bayes import SecureNaiveBayesClassifier
from repro.secure.costing import (
    FRAME_OVERHEAD,
    LIST_OVERHEAD,
    SMALL_INT_BYTES,
    ProtocolSizes,
    add_encrypt_vector,
    add_indicator_lookup,
    add_secure_argmax,
)
from repro.smc.protocol import ExecutionTrace, Op

TEST_SIZES = ProtocolSizes(paillier_bits=384, dgk_bits=192)


@pytest.fixture(scope="module")
def trained(warfarin_split):
    train, test = warfarin_split
    model = NaiveBayesClassifier(domain_sizes=train.domain_sizes).fit(
        train.X, train.y
    )
    secure = SecureNaiveBayesClassifier(model, train.features, sizes=TEST_SIZES)
    return secure, test


class TestParity:
    def test_pure_smc_matches_quantized(self, trained, session_context):
        secure, test = trained
        for row in test.X[:3]:
            assert secure.classify(session_context, row) == \
                secure.predict_quantized(row)

    def test_partial_disclosure_matches(self, trained, session_context):
        secure, test = trained
        disclosure = [0, 1, 2, 5, 9]
        for row in test.X[:3]:
            assert secure.classify(session_context, row, disclosure) == \
                secure.predict_quantized(row)

    def test_full_disclosure_fast_path(self, trained, session_context):
        secure, test = trained
        everything = list(range(secure.n_features))
        for row in test.X[:6]:
            assert secure.classify(session_context, row, everything) == \
                secure.predict_quantized(row)

    def test_quantized_close_to_float_model(self, trained):
        secure, test = trained
        agreements = sum(
            secure.predict_quantized(row) == secure.model.predict_one(row)
            for row in test.X[:100]
        )
        assert agreements >= 98


class TestConstruction:
    def test_domain_mismatch_rejected(self, warfarin_split):
        train, _ = warfarin_split
        model = NaiveBayesClassifier().fit(train.X[:, :3], train.y)
        with pytest.raises(SecureClassificationError):
            SecureNaiveBayesClassifier(model, train.features, sizes=TEST_SIZES)

    def test_score_bits_positive(self, trained):
        secure, _ = trained
        assert secure.score_bits > 8


class TestCostStructure:
    def test_disclosure_removes_indicator_traffic(self, trained):
        secure, _ = trained
        pure = secure.estimated_trace([])
        partial = secure.estimated_trace(list(range(10)))
        assert partial.op_count(Op.PAILLIER_ENCRYPT) < pure.op_count(
            Op.PAILLIER_ENCRYPT
        )
        assert partial.total_bytes < pure.total_bytes

    def test_full_disclosure_trace_trivial(self, trained):
        secure, _ = trained
        trace = secure.estimated_trace(list(range(secure.n_features)))
        assert trace.op_count(Op.PAILLIER_ENCRYPT) == 0
        assert trace.rounds == 2


class TestEstimatedVsLive:
    @pytest.mark.parametrize("n_disclosed", [0, 6, 10])
    def test_op_counts_within_tolerance(self, trained, fresh_context, n_disclosed):
        secure, test = trained
        disclosure = list(range(n_disclosed))
        estimated = secure.estimated_trace(disclosure)
        secure.classify(fresh_context, test.X[0], disclosure)
        live = fresh_context.trace
        for op in (Op.PAILLIER_ENCRYPT, Op.PAILLIER_SCALAR_MUL,
                   Op.DGK_ENCRYPT):
            assert estimated.op_count(op) == pytest.approx(
                live.op_count(op), rel=0.25, abs=4
            )

    def test_traffic_within_tolerance(self, trained, fresh_context):
        secure, test = trained
        estimated = secure.estimated_trace([0, 1, 2, 3])
        secure.classify(fresh_context, test.X[1], [0, 1, 2, 3])
        assert estimated.total_bytes == pytest.approx(
            fresh_context.trace.total_bytes, rel=0.25
        )


def _per_class_trace(secure, disclosure_set):
    """The trace built with one indicator lookup per (feature, class)."""
    disclosed, hidden = secure.partition(disclosure_set)
    trace = ExecutionTrace(label=f"naive-bayes|hidden={len(hidden)}")
    n_classes = len(secure.classes)
    if disclosed:
        trace.bytes_client_to_server += (
            FRAME_OVERHEAD + LIST_OVERHEAD + SMALL_INT_BYTES * len(disclosed)
        )
        trace.messages += 1
        trace.rounds += 1
    if not hidden:
        trace.bytes_server_to_client += FRAME_OVERHEAD + SMALL_INT_BYTES
        trace.messages += 1
        trace.rounds += 1
        return trace
    trace.count(Op.PAILLIER_ENCRYPT, n_classes)
    for feature in hidden:
        domain = secure.features[feature].domain_size
        add_encrypt_vector(trace, domain, secure.sizes)
        for _ in range(n_classes):
            add_indicator_lookup(trace, domain, secure.sizes)
        trace.count(Op.PAILLIER_ADD, n_classes)
    trace.count(Op.PAILLIER_ADD, n_classes)
    add_secure_argmax(trace, n_classes, secure.score_bits, secure.sizes)
    return trace


def test_estimated_trace_matches_per_class_lookups(warfarin_split):
    # One lookup of n_classes * domain ops per hidden feature must give
    # the per-class loop's counts, op order and priced seconds exactly.
    train, _ = warfarin_split
    columns = 7
    model = NaiveBayesClassifier(
        domain_sizes=train.domain_sizes[:columns]
    ).fit(train.X[:, :columns], train.y)
    secure = SecureNaiveBayesClassifier(
        model, train.features[:columns], sizes=TEST_SIZES
    )
    assert len(secure.classes) > 1
    cost_model = PipelineConfig().cost_model
    for size in range(columns + 1):
        for subset in itertools.combinations(range(columns), size):
            got = secure.estimated_trace(subset)
            want = _per_class_trace(secure, subset)
            assert got.summary() == want.summary()
            assert list(got.ops.items()) == list(want.ops.items())
            assert cost_model.total_seconds(got) == \
                cost_model.total_seconds(want)
