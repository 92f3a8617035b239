"""Tests for deployment serialization."""

import json
import pickle

import numpy as np
import pytest

from repro.api import PipelineConfig, PrivacyAwareClassifier, ReproError
from repro.core.serialization import (
    FORMAT_VERSION,
    deployment_from_dict,
    deployment_to_dict,
    linear_from_dict,
    linear_to_dict,
    load_deployment,
    naive_bayes_from_dict,
    naive_bayes_to_dict,
    save_deployment,
    tree_from_dict,
    tree_to_dict,
)


def _fitted(kind, train):
    pipeline = PrivacyAwareClassifier(
        PipelineConfig(classifier=kind, paillier_bits=384, dgk_bits=192,
                       risk_sample_rows=100)
    ).fit(train)
    pipeline.select_disclosure(0.1)
    return pipeline


class TestModelRoundtrips:
    def test_linear(self, warfarin_split):
        train, test = warfarin_split
        pipeline = _fitted("linear", train)
        restored = linear_from_dict(linear_to_dict(pipeline.plain_model))
        assert np.array_equal(
            restored.predict(test.X[:100]),
            pipeline.plain_model.predict(test.X[:100]),
        )

    def test_naive_bayes(self, warfarin_split):
        train, test = warfarin_split
        pipeline = _fitted("naive_bayes", train)
        restored = naive_bayes_from_dict(
            naive_bayes_to_dict(pipeline.plain_model)
        )
        assert np.array_equal(
            restored.predict(test.X[:100]),
            pipeline.plain_model.predict(test.X[:100]),
        )

    def test_tree(self, warfarin_split):
        train, test = warfarin_split
        pipeline = _fitted("tree", train)
        restored = tree_from_dict(tree_to_dict(pipeline.plain_model))
        assert np.array_equal(
            restored.predict(test.X[:100]),
            pipeline.plain_model.predict(test.X[:100]),
        )


class TestDeploymentBundle:
    @pytest.mark.parametrize("kind", ["linear", "naive_bayes", "tree"])
    def test_bundle_roundtrip_live_parity(self, warfarin_split, kind):
        train, test = warfarin_split
        pipeline = _fitted(kind, train)
        bundle = deployment_to_dict(pipeline)
        deployed = deployment_from_dict(bundle)
        # The serving fleet ships the built classifier itself to its
        # shard processes, so it must survive pickling.
        shipped = pickle.loads(pickle.dumps(deployed))

        assert deployed.disclosure == list(pipeline.solution.disclosed)
        ctx = pipeline.make_context(seed=404)
        for row in test.X[:2]:
            live = deployed.classify(ctx, row)
            expected = pipeline.secure_model.predict_quantized(row)
            assert live == expected
            assert shipped.classify(ctx, row) == expected

    def test_bundle_is_json_serialisable(self, warfarin_split):
        train, _ = warfarin_split
        pipeline = _fitted("naive_bayes", train)
        text = json.dumps(deployment_to_dict(pipeline))
        assert "format_version" in text

    def test_file_roundtrip(self, warfarin_split, tmp_path):
        train, test = warfarin_split
        pipeline = _fitted("tree", train)
        path = tmp_path / "deployment.json"
        save_deployment(str(path), pipeline)
        deployed = load_deployment(str(path))
        ctx = pipeline.make_context(seed=405)
        assert deployed.classify(ctx, test.X[0]) == \
            pipeline.secure_model.predict_quantized(test.X[0])

    def test_requires_selected_disclosure(self, warfarin_split):
        train, _ = warfarin_split
        pipeline = PrivacyAwareClassifier(
            PipelineConfig(classifier="tree", paillier_bits=384,
                           dgk_bits=192, risk_sample_rows=100)
        ).fit(train)
        with pytest.raises(ReproError):
            deployment_to_dict(pipeline)

    def test_unknown_version_rejected(self, warfarin_split):
        train, _ = warfarin_split
        bundle = deployment_to_dict(_fitted("tree", train))
        bundle["format_version"] = 99
        with pytest.raises(ReproError, match="version"):
            deployment_from_dict(bundle)

    def test_unknown_kind_rejected(self, warfarin_split):
        train, _ = warfarin_split
        bundle = deployment_to_dict(_fitted("tree", train))
        bundle["classifier"] = "svm"
        with pytest.raises(ReproError):
            deployment_from_dict(bundle)

    def test_bundle_records_risk(self, warfarin_split):
        train, _ = warfarin_split
        pipeline = _fitted("naive_bayes", train)
        bundle = deployment_to_dict(pipeline)
        assert bundle["disclosure_risk"] == pytest.approx(
            pipeline.solution.risk
        )
