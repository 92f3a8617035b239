"""Dataset and feature metadata containers.

Every dataset in this library is a matrix of integer-coded categorical
features plus per-feature metadata. The metadata drives the whole
pipeline: the privacy model needs domain sizes and the sensitive flag,
the disclosure optimizer needs to know which features are candidates
for disclosure, and the secure protocols need the bit widths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np


class SchemaError(Exception):
    """Raised on inconsistent dataset construction."""


@dataclass(frozen=True)
class FeatureSpec:
    """Metadata of one categorical feature.

    Attributes
    ----------
    name:
        Human-readable identifier (unique within a dataset).
    domain_size:
        Number of category codes; values are ``0..domain_size - 1``.
    sensitive:
        Whether the attribute is an adversary's inference target (e.g.
        a SNP genotype). Disclosing a sensitive attribute is maximal
        privacy loss for it, so only a budget of ~1 ever allows it.
    public:
        Whether the attribute is considered already public knowledge
        (e.g. coarse demographics); public features can be disclosed at
        zero privacy cost and the optimizer discloses them first.
    description:
        Free-text documentation shown in dataset summaries.
    """

    name: str
    domain_size: int
    sensitive: bool = False
    public: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        if self.domain_size < 2:
            raise SchemaError(
                f"feature {self.name!r} needs a domain of at least 2, "
                f"got {self.domain_size}"
            )
        if self.sensitive and self.public:
            raise SchemaError(
                f"feature {self.name!r} cannot be both sensitive and public"
            )

    @property
    def bit_length(self) -> int:
        """Bits needed to represent a code of this feature."""
        return max(1, (self.domain_size - 1).bit_length())


@dataclass
class Dataset:
    """A fully categorical dataset with schema metadata.

    Attributes
    ----------
    name:
        Dataset identifier used in reports.
    features:
        Column metadata, in column order.
    X:
        ``(n_samples, n_features)`` integer code matrix.
    y:
        ``(n_samples,)`` integer class labels.
    label_name:
        Name of the prediction target.
    """

    name: str
    features: List[FeatureSpec]
    X: np.ndarray
    y: np.ndarray
    label_name: str = "label"

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X)
        self.y = np.asarray(self.y)
        if self.X.ndim != 2:
            raise SchemaError(f"X must be 2-d, got shape {self.X.shape}")
        if self.X.shape[1] != len(self.features):
            raise SchemaError(
                f"{self.X.shape[1]} columns vs {len(self.features)} feature specs"
            )
        if len(self.X) != len(self.y):
            raise SchemaError(f"{len(self.X)} rows vs {len(self.y)} labels")
        if not np.issubdtype(self.X.dtype, np.integer):
            raise SchemaError(f"X must be integer-coded, got dtype {self.X.dtype}")
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise SchemaError("feature names must be unique")
        if len(self.X):
            domains = np.array([spec.domain_size for spec in self.features])
            outside = (self.X.min(axis=0) < 0) | (self.X.max(axis=0) >= domains)
            if outside.any():
                spec = self.features[int(np.argmax(outside))]
                raise SchemaError(
                    f"feature {spec.name!r} has codes outside "
                    f"[0, {spec.domain_size})"
                )

    # -- basic views ----------------------------------------------------

    @property
    def n_samples(self) -> int:
        """Number of rows."""
        return len(self.X)

    @property
    def n_features(self) -> int:
        """Number of feature columns."""
        return len(self.features)

    @property
    def n_classes(self) -> int:
        """Number of distinct labels."""
        return len(np.unique(self.y))

    @property
    def feature_names(self) -> List[str]:
        """Column names in order."""
        return [f.name for f in self.features]

    @property
    def domain_sizes(self) -> List[int]:
        """Per-column category counts."""
        return [f.domain_size for f in self.features]

    def feature_index(self, name: str) -> int:
        """Column index of a feature by name."""
        for index, spec in enumerate(self.features):
            if spec.name == name:
                return index
        raise SchemaError(f"no feature named {name!r} in dataset {self.name!r}")

    # -- privacy-relevant partitions --------------------------------------

    @property
    def sensitive_indices(self) -> List[int]:
        """Columns the adversary tries to infer; never disclosable."""
        return [i for i, f in enumerate(self.features) if f.sensitive]

    @property
    def public_indices(self) -> List[int]:
        """Columns that are already public knowledge."""
        return [i for i, f in enumerate(self.features) if f.public]

    @property
    def disclosable_indices(self) -> List[int]:
        """Columns disclosable without *total* loss on a sensitive
        attribute (i.e. the non-sensitive columns). The optimizer may
        still consider sensitive columns -- at maximal risk -- when the
        caller passes them explicitly."""
        return [i for i, f in enumerate(self.features) if not f.sensitive]

    def subset(self, row_indices: Sequence[int], name_suffix: str = "") -> "Dataset":
        """Row-subset view (copies data) preserving the schema."""
        row_indices = np.asarray(row_indices)
        return Dataset(
            name=self.name + name_suffix,
            features=list(self.features),
            X=self.X[row_indices].copy(),
            y=self.y[row_indices].copy(),
            label_name=self.label_name,
        )

    def summary_rows(self) -> List[Tuple[str, int, str]]:
        """Per-feature ``(name, domain, flags)`` rows for reports."""
        rows = []
        for spec in self.features:
            flags = []
            if spec.sensitive:
                flags.append("sensitive")
            if spec.public:
                flags.append("public")
            rows.append((spec.name, spec.domain_size, ",".join(flags) or "-"))
        return rows

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"Dataset {self.name!r}: {self.n_samples} samples, "
            f"{self.n_features} features, {self.n_classes} classes "
            f"(label={self.label_name!r})",
        ]
        for name, domain, flags in self.summary_rows():
            lines.append(f"  {name:<22} domain={domain:<3} {flags}")
        return "\n".join(lines)
