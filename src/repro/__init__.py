"""repro -- privacy-aware feature selection for secure classification.

A from-scratch reproduction of Pattuk, Kantarcioglu, Ulusoy & Malin,
*"Optimizing secure classification performance with privacy-aware
feature selection"* (ICDE 2016): selectively disclose low-risk features
before secure multi-party classification to cut its cost by orders of
magnitude while bounding a Bayesian adversary's inference gain on
sensitive attributes.

The public surface lives in :mod:`repro.api`::

    from repro.api import PrivacyAwareClassifier, PipelineConfig
    from repro.data import generate_warfarin, train_test_split

    train, test = train_test_split(generate_warfarin(), seed=0)
    pac = PrivacyAwareClassifier(PipelineConfig(classifier="naive_bayes"))
    pac.fit(train)
    pac.select_disclosure(risk_budget=0.05)
    print(pac.speedup(), "x faster than pure SMC")
    print(pac.classify(test.X[0]))      # live crypto, hybrid protocol

Package map: :mod:`repro.crypto` (Paillier/DGK/OT primitives),
:mod:`repro.smc` (two-party runtime and protocols),
:mod:`repro.classifiers` (plaintext trainers), :mod:`repro.secure`
(Bost-style secure classifiers with partial disclosure),
:mod:`repro.privacy` (Bayesian adversary and risk),
:mod:`repro.selection` (disclosure optimizers), :mod:`repro.data`
(structure-preserving dataset generators), :mod:`repro.core` (the
pipeline tying it together), :mod:`repro.telemetry` (spans, counters,
metrics export), :mod:`repro.api` (the unified facade).
"""

from repro.core.exceptions import ReproError

__version__ = "1.0.0"

__all__ = ["ReproError", "__version__"]
