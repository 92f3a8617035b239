"""Deployment serialization: ship a trained model + disclosure policy.

A production split of the paper's system: the *offline* side (training,
adversary fitting, disclosure optimization) runs once where the cohort
lives; the *online* side (the classification service) only needs the
model parameters, the feature schema and the chosen disclosure set.
This module serialises exactly that bundle to JSON:

* :func:`save_deployment` / :func:`load_deployment` -- write/read the
  bundle; loading returns a :class:`DeployedClassifier` that can serve
  live hybrid queries without the training data;
* per-family ``*_to_dict`` / ``*_from_dict`` converters, exposed for
  tests and for tooling that inspects bundles.

The format is versioned and refuses unknown versions loudly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.classifiers.decision_tree import DecisionTreeClassifier, TreeNode
from repro.classifiers.linear import LogisticRegressionClassifier
from repro.classifiers.naive_bayes import NaiveBayesClassifier
from repro.core.exceptions import ReproError
from repro.core.pipeline import PrivacyAwareClassifier
from repro.data.schema import FeatureSpec
from repro.privacy.pricing import risk_model_to_dict
from repro.secure.costing import ProtocolSizes
from repro.secure.encoding import FixedPointEncoder
from repro.secure.secure_linear import SecureLinearClassifier
from repro.secure.secure_naive_bayes import SecureNaiveBayesClassifier
from repro.secure.secure_tree import SecureDecisionTreeClassifier
from repro.smc.context import TwoPartyContext

FORMAT_VERSION = 1


# -- model converters ---------------------------------------------------------


def linear_to_dict(model: LogisticRegressionClassifier) -> Dict:
    """Serialise a fitted logistic regression."""
    return {
        "kind": "linear",
        "weights": model.weights.tolist(),
        "biases": model.biases.tolist(),
        "classes": [int(c) for c in model.classes],
    }


def linear_from_dict(payload: Dict) -> LogisticRegressionClassifier:
    """Rebuild a logistic regression without retraining."""
    model = LogisticRegressionClassifier()
    model._weights = np.asarray(payload["weights"], dtype=float)
    model._biases = np.asarray(payload["biases"], dtype=float)
    model._classes = np.asarray(payload["classes"])
    model._n_features = model._weights.shape[1]
    return model


def naive_bayes_to_dict(model: NaiveBayesClassifier) -> Dict:
    """Serialise a fitted naive Bayes model."""
    return {
        "kind": "naive_bayes",
        "log_priors": model.log_priors.tolist(),
        "log_likelihoods": [t.tolist() for t in model.log_likelihoods],
        "domain_sizes": list(model.domain_sizes),
        "classes": [int(c) for c in model.classes],
    }


def naive_bayes_from_dict(payload: Dict) -> NaiveBayesClassifier:
    """Rebuild a naive Bayes model without retraining."""
    model = NaiveBayesClassifier(domain_sizes=payload["domain_sizes"])
    model._log_priors = np.asarray(payload["log_priors"], dtype=float)
    model._log_likelihoods = [
        np.asarray(t, dtype=float) for t in payload["log_likelihoods"]
    ]
    model._domain_sizes = list(payload["domain_sizes"])
    model._classes = np.asarray(payload["classes"])
    model._n_features = len(model._domain_sizes)
    return model


def _tree_node_to_dict(node: TreeNode) -> Dict:
    if node.is_leaf:
        return {"label": int(node.label)}  # type: ignore[arg-type]
    assert node.left is not None and node.right is not None
    return {
        "feature": int(node.feature),      # type: ignore[arg-type]
        "threshold": int(node.threshold),  # type: ignore[arg-type]
        "left": _tree_node_to_dict(node.left),
        "right": _tree_node_to_dict(node.right),
    }


def _tree_node_from_dict(payload: Dict) -> TreeNode:
    if "label" in payload:
        return TreeNode(label=int(payload["label"]))
    return TreeNode(
        feature=int(payload["feature"]),
        threshold=int(payload["threshold"]),
        left=_tree_node_from_dict(payload["left"]),
        right=_tree_node_from_dict(payload["right"]),
    )


def tree_to_dict(model: DecisionTreeClassifier) -> Dict:
    """Serialise a fitted decision tree."""
    return {
        "kind": "tree",
        "root": _tree_node_to_dict(model.root),
        "n_features": model.n_features,
        "classes": [int(c) for c in model.classes],
    }


def tree_from_dict(payload: Dict) -> DecisionTreeClassifier:
    """Rebuild a decision tree without retraining."""
    model = DecisionTreeClassifier()
    model._root = _tree_node_from_dict(payload["root"])
    model._n_features = int(payload["n_features"])
    model._classes = np.asarray(payload["classes"])
    return model


_TO_DICT = {
    "linear": linear_to_dict,
    "naive_bayes": naive_bayes_to_dict,
    "tree": tree_to_dict,
}
_FROM_DICT = {
    "linear": linear_from_dict,
    "naive_bayes": naive_bayes_from_dict,
    "tree": tree_from_dict,
}


def feature_spec_to_dict(spec: FeatureSpec) -> Dict:
    """Serialise one feature spec."""
    return {
        "name": spec.name,
        "domain_size": spec.domain_size,
        "sensitive": spec.sensitive,
        "public": spec.public,
        "description": spec.description,
    }


def feature_spec_from_dict(payload: Dict) -> FeatureSpec:
    """Rebuild one feature spec."""
    return FeatureSpec(
        name=payload["name"],
        domain_size=int(payload["domain_size"]),
        sensitive=bool(payload["sensitive"]),
        public=bool(payload["public"]),
        description=payload.get("description", ""),
    )


# -- deployment bundle ---------------------------------------------------------


@dataclass
class DeployedClassifier:
    """The online half of the system: model + schema + policy.

    Serves live hybrid queries through :meth:`classify`; carries no
    training data or optimizer state. The optional ``risk_model``
    section carries the adversary's *aggregate* smoothed tables (never
    raw records) so a serving host can price cumulative disclosure for
    the privacy-budget ledger.
    """

    kind: str
    plain_model: object
    features: List[FeatureSpec]
    disclosure: List[int]
    precision_bits: int
    paillier_bits: int
    dgk_bits: int
    #: Optional serialized pricing state (see
    #: :func:`repro.privacy.pricing.risk_model_to_dict`). When present,
    #: a serving host can price per-client cumulative disclosure for
    #: the privacy-budget ledger without the training pipeline; when
    #: absent, budget enforcement is unavailable for this bundle.
    risk_model: Optional[Dict] = None

    def __post_init__(self) -> None:
        encoder = FixedPointEncoder(self.precision_bits)
        sizes = ProtocolSizes(
            paillier_bits=self.paillier_bits, dgk_bits=self.dgk_bits
        )
        if self.kind == "linear":
            self.secure_model = SecureLinearClassifier(
                self.plain_model, self.features, encoder=encoder, sizes=sizes
            )
        elif self.kind == "naive_bayes":
            self.secure_model = SecureNaiveBayesClassifier(
                self.plain_model, self.features, encoder=encoder, sizes=sizes
            )
        elif self.kind == "tree":
            self.secure_model = SecureDecisionTreeClassifier(
                self.plain_model, self.features, sizes=sizes
            )
        else:
            raise ReproError(f"unknown deployed model kind {self.kind!r}")

    def classify(
        self,
        ctx: TwoPartyContext,
        row: np.ndarray,
        disclosure: Optional[Sequence[int]] = None,
    ) -> int:
        """One live hybrid query.

        ``disclosure`` overrides the shipped policy for this call only;
        the bundle's own ``self.disclosure`` is never mutated, so
        concurrent requests with different overrides cannot observe
        each other's policy (the serving runtime relies on this).
        """
        effective = (
            list(self.disclosure) if disclosure is None
            else [int(i) for i in disclosure]
        )
        return self.secure_model.classify(ctx, np.asarray(row), effective)


def deployment_to_dict(pipeline: PrivacyAwareClassifier) -> Dict:
    """The JSON-ready bundle for a fitted, disclosure-selected pipeline."""
    kind = pipeline.config.classifier
    if kind not in _TO_DICT:
        raise ReproError(f"cannot serialise classifier kind {kind!r}")
    solution = pipeline.solution
    dataset = pipeline._require_fitted()
    bundle = {
        "format_version": FORMAT_VERSION,
        "classifier": kind,
        "model": _TO_DICT[kind](pipeline.plain_model),
        "features": [feature_spec_to_dict(s) for s in dataset.features],
        "disclosure": [int(i) for i in solution.disclosed],
        "disclosure_risk": solution.risk,
        "precision_bits": pipeline.config.precision_bits,
        "paillier_bits": pipeline.config.paillier_bits,
        "dgk_bits": pipeline.config.dgk_bits,
        # The fitted pricing state, so the serving side can enforce
        # per-client privacy budgets (repro.privacy.ledger).
        "risk_model": risk_model_to_dict(pipeline.risk_evaluator),
    }
    return bundle


def deployment_from_dict(payload: Dict) -> DeployedClassifier:
    """Rebuild the online classifier from a bundle dict."""
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ReproError(
            f"unsupported deployment format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    kind = payload["classifier"]
    if kind not in _FROM_DICT:
        raise ReproError(f"unknown classifier kind {kind!r} in bundle")
    return DeployedClassifier(
        kind=kind,
        plain_model=_FROM_DICT[kind](payload["model"]),
        features=[feature_spec_from_dict(f) for f in payload["features"]],
        disclosure=[int(i) for i in payload["disclosure"]],
        precision_bits=int(payload["precision_bits"]),
        paillier_bits=int(payload["paillier_bits"]),
        dgk_bits=int(payload["dgk_bits"]),
        risk_model=payload.get("risk_model"),
    )


def save_deployment(path: str, pipeline: PrivacyAwareClassifier) -> None:
    """Write the deployment bundle to ``path`` as JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(deployment_to_dict(pipeline), handle, indent=1)


def load_deployment(path: str) -> DeployedClassifier:
    """Read a deployment bundle from ``path``."""
    with open(path, encoding="utf-8") as handle:
        return deployment_from_dict(json.load(handle))
