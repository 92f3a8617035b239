#!/usr/bin/env python
"""Offline/online split: train once, ship a bundle, serve anywhere.

The realistic deployment of the paper's system separates two roles:

* the **offline** side (data owner): trains the model, fits the
  adversary, optimizes the disclosure policy -- and exports a JSON
  bundle containing only the model parameters, the schema and the
  chosen policy;
* the **online** side (the service): loads the bundle and serves live
  hybrid (disclose-then-SMC) queries without ever seeing the cohort.

This script runs both halves and verifies the served answers.

Run:  python examples/deployment_roundtrip.py
"""

import json
import tempfile

from repro.api import PipelineConfig, PrivacyAwareClassifier
from repro.core.serialization import load_deployment, save_deployment
from repro.core.session import SessionConfig
from repro.data import generate_warfarin, train_test_split
from repro.smc.context import make_context


def main() -> None:
    # ---- offline: the data owner's side --------------------------------
    cohort = generate_warfarin(n_samples=3000, seed=0)
    train, test = train_test_split(cohort, seed=0)

    pipeline = PrivacyAwareClassifier(
        PipelineConfig(classifier="tree", paillier_bits=384, dgk_bits=192)
    ).fit(train)
    solution = pipeline.select_disclosure(risk_budget=0.05)
    print("offline: trained tree, selected disclosure "
          f"(risk {solution.risk:.4f}, speedup {pipeline.speedup():.1f}x)")

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        bundle_path = f.name
    save_deployment(bundle_path, pipeline)
    with open(bundle_path) as handle:
        bundle = json.load(handle)
    print(f"offline: wrote bundle ({len(json.dumps(bundle))} bytes, "
          f"format v{bundle['format_version']}, "
          f"{len(bundle['disclosure'])} disclosed features)")

    # ---- online: the service's side (no cohort, no optimizer) ----------
    deployed = load_deployment(bundle_path)
    ctx = make_context(config=SessionConfig(
        seed=99, paillier_bits=384, dgk_bits=192, dgk_plaintext_bits=16,
    ))
    print("\nonline: serving 5 live hybrid queries from the bundle")
    for patient_id, row in enumerate(test.X[:5]):
        label = deployed.classify(ctx, row)
        expected = pipeline.secure_model.predict_quantized(row)
        status = "OK" if label == expected else "MISMATCH"
        print(f"  patient {patient_id}: class {label} [{status}]")
    print(f"online: session traffic {ctx.trace.total_bytes} bytes, "
          f"{ctx.trace.rounds} rounds")


if __name__ == "__main__":
    main()
