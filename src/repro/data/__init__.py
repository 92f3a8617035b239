"""Data substrate: schemas, generators and the train/test split.

The paper evaluates on a pharmacogenomic cohort (the IWPC warfarin
dataset targeted by the Fredrikson et al. model-inversion attack) plus
standard benchmark datasets. None of those are redistributable, so this
package provides *structure-preserving synthetic generators*:

* :func:`repro.data.warfarin.generate_warfarin` -- demographics, two
  pharmacogenes (``VKORC1``, ``CYP2C9``) with race-dependent published
  allele frequencies, and a dose label produced by the published IWPC
  linear dosing equation plus noise. This reproduces the attack surface
  (demographics correlate with genotype; the label is a function of
  both) that the paper's privacy risk model is about.
* :func:`repro.data.uci_like.generate_adult_like` and
  :func:`repro.data.uci_like.generate_cancer_like` -- census-income and
  cytology-style datasets with realistic correlation structure.
* :func:`repro.data.synthetic.generate_bayesnet_dataset` -- arbitrary-
  dimension datasets sampled from random Bayesian networks, used by the
  optimizer scalability benchmarks.

All generators emit :class:`repro.data.schema.Dataset` objects with
integer-coded categorical features and per-feature
:class:`repro.data.schema.FeatureSpec` metadata (domain size, whether
the attribute is *sensitive* -- an inference target -- or already
*public*).
"""

from repro.data.schema import Dataset, FeatureSpec
from repro.data.splits import train_test_split
from repro.data.synthetic import generate_bayesnet_dataset
from repro.data.uci_like import generate_adult_like, generate_cancer_like
from repro.data.warfarin import generate_warfarin, generate_warfarin_with_dose

__all__ = [
    "Dataset",
    "FeatureSpec",
    "generate_adult_like",
    "generate_bayesnet_dataset",
    "generate_cancer_like",
    "generate_warfarin",
    "generate_warfarin_with_dose",
    "train_test_split",
]
