"""E15 -- Extension: the continuous dosing service (secure regression).

The IWPC scenario's native output is a continuous weekly dose; this
bench evaluates the secure-regression protocol that serves it:

1. accuracy of the ridge dosing model (MAE / R^2) and parity of the
   fixed-point secure output;
2. modeled per-query cost vs disclosure level -- regression has no
   comparison/argmax phase, so it is the cheapest protocol family and
   the disclosure curve bottoms out at two messages;
3. output-granularity inversion: how much the *output itself* leaks
   about VKORC1 when released as an exact dose decile vs the 3-class
   bucket vs nothing -- finer outputs leak more, quantifying the
   "disclosing personalized drug dosage recommendations" clause of the
   motivation.

The benchmarked kernel is one live secure-regression query.
"""

import numpy as np
import pytest

from repro.bench import Table
from repro.classifiers.regression import (
    RidgeRegression,
    mean_absolute_error,
    r2_score,
)
from repro.core.session import SessionConfig
from repro.data.schema import Dataset, FeatureSpec
from repro.data.warfarin import generate_warfarin_with_dose
from repro.privacy.adversary import NaiveBayesAdversary
from repro.secure.costing import ProtocolSizes
from repro.secure.secure_regression import SecureRegression
from repro.smc.context import make_context

from conftest import BENCH_DGK_BITS, BENCH_PAILLIER_BITS


def _with_output_column(dataset: Dataset, codes: np.ndarray, name: str,
                        domain: int) -> Dataset:
    spec = FeatureSpec(name, domain, description="released service output")
    return Dataset(
        name=dataset.name + "+" + name,
        features=list(dataset.features) + [spec],
        X=np.column_stack([dataset.X, codes.astype(np.int64)]),
        y=dataset.y,
        label_name=dataset.label_name,
    )


def _map_accuracy(adversary, rows, target, known):
    hits = 0
    for row in rows:
        evidence = {c: int(row[c]) for c in known}
        posterior = adversary.posterior(target, evidence)
        hits += int(np.argmax(posterior)) == int(row[target])
    return hits / len(rows)


def test_e15_secure_regression(benchmark):
    dataset, dose = generate_warfarin_with_dose(4000, seed=0)
    split = 3000
    model = RidgeRegression().fit(dataset.X[:split], dose[:split])
    predictions = model.predict(dataset.X[split:])

    secure = SecureRegression(
        model, dataset.features,
        sizes=ProtocolSizes(BENCH_PAILLIER_BITS, BENCH_DGK_BITS),
    )
    ctx = make_context(config=SessionConfig(
        seed=5, paillier_bits=BENCH_PAILLIER_BITS, dgk_bits=BENCH_DGK_BITS,
        dgk_plaintext_bits=16,
    ))

    quality = Table("E15a: dosing-model quality and secure parity",
                    ["metric", "value"])
    quality.add_row(["MAE (mg/week)", mean_absolute_error(dose[split:], predictions)])
    quality.add_row(["R^2", r2_score(dose[split:], predictions)])
    row = dataset.X[split]
    live = secure.predict_secure(ctx, row, [0, 1, 2])
    quality.add_row(["live - quantized", abs(live - secure.quantized_prediction(row))])
    quality.print()
    assert r2_score(dose[split:], predictions) > 0.8
    assert live == pytest.approx(secure.quantized_prediction(row))

    cost = Table("E15b: modeled traffic vs disclosure (regression)",
                 ["|S|", "bytes", "rounds"])
    series = []
    for level in (0, 4, 8, 12):
        trace = secure.estimated_trace(list(range(level)))
        series.append(trace.total_bytes)
        cost.add_row([level, trace.total_bytes, trace.rounds])
    cost.print()
    assert series == sorted(series, reverse=True)

    # Output-granularity inversion.
    deciles = np.clip(
        np.digitize(dose, np.percentile(dose, np.arange(10, 100, 10))), 0, 9
    )
    with_decile = _with_output_column(dataset, deciles, "dose_decile", 10)
    with_bucket = _with_output_column(dataset, dataset.y, "dose_bucket_out", 3)

    vkorc1 = dataset.feature_index("vkorc1")
    demographics = [dataset.feature_index(n)
                    for n in ("race", "age_decade", "weight_bin")]
    rows_slice = slice(split, split + 500)

    inversion = Table(
        "E15c: VKORC1 inference accuracy by released output granularity",
        ["released output", "attack accuracy"],
    )
    accuracies = {}
    for label, population in (
        ("none (pure SMC)", dataset),
        ("3-class bucket", with_bucket),
        ("dose decile", with_decile),
    ):
        adversary = NaiveBayesAdversary(
            population.X, population.domain_sizes, [vkorc1]
        )
        known = list(demographics)
        if population is not dataset:
            known.append(population.n_features - 1)
        accuracy = _map_accuracy(
            adversary, population.X[rows_slice], vkorc1, known
        )
        accuracies[label] = accuracy
        inversion.add_row([label, accuracy])
    inversion.print()

    # Finer-grained outputs leak at least as much as coarser ones.
    assert accuracies["3-class bucket"] >= accuracies["none (pure SMC)"] - 0.01
    assert accuracies["dose decile"] >= accuracies["3-class bucket"] - 0.01
    assert accuracies["dose decile"] > accuracies["none (pure SMC)"]

    benchmark(lambda: secure.predict_secure(ctx, row, [0, 1, 2]))
