"""Common machinery for the secure classifiers.

A secure classifier binds a trained plaintext model to a dataset schema
and supports two operations per disclosure set:

* :meth:`SecureClassifier.classify` -- actually run the protocol over a
  live :class:`~repro.smc.context.TwoPartyContext` (real crypto, real
  byte accounting) and return the label to the client;
* :meth:`SecureClassifier.estimated_trace` -- produce the analytic
  execution trace of one query, which a
  :class:`~repro.smc.cost_model.CostModel` prices in seconds. This is
  the optimizer's cost function.

The disclosure set semantics are shared: features in the set are sent
in plaintext (free), sensitive features can never be disclosed, and the
hidden set is the complement.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, FrozenSet, Iterable, List, Sequence, Tuple

import numpy as np

from repro.data.schema import FeatureSpec
from repro.secure.costing import ProtocolSizes
from repro.smc.context import TwoPartyContext
from repro.smc.protocol import ExecutionTrace

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.secure.backends import ProtocolBackend


class SecureClassificationError(Exception):
    """Raised on schema violations or illegal disclosure sets."""


#: Cached default backend for analytic estimates.
_default_backend = None


def default_backend() -> "ProtocolBackend":
    """The process-wide default :class:`PaillierBackend` instance, used
    for analytic estimates when no backend is specified."""
    global _default_backend
    if _default_backend is None:
        from repro.secure.backends import PaillierBackend

        _default_backend = PaillierBackend()
    return _default_backend


class SecureClassifier(abc.ABC):
    """Base class: disclosure-set handling shared by all protocols.

    Parameters
    ----------
    features:
        The dataset's feature specs (order matches model columns).
    sizes:
        Key-size parameters for analytic traffic estimates.
    """

    def __init__(
        self,
        features: Sequence[FeatureSpec],
        sizes: ProtocolSizes = ProtocolSizes(),
    ) -> None:
        self.features = list(features)
        self.sizes = sizes
        self._sensitive = frozenset(
            i for i, f in enumerate(self.features) if f.sensitive
        )

    @property
    def n_features(self) -> int:
        """Number of feature columns the model consumes."""
        return len(self.features)

    def validate_disclosure(self, disclosure_set: Iterable[int]) -> FrozenSet[int]:
        """Check a disclosure set against the schema; returns it frozen.

        Sensitive features *may* appear here: the protocol layer is
        policy-free, and disclosing a sensitive attribute is simply
        priced at maximal risk by the privacy model. Whether that is
        acceptable is the privacy budget's decision, not the wire
        protocol's.
        """
        disclosed = frozenset(int(i) for i in disclosure_set)
        for index in disclosed:
            if not 0 <= index < self.n_features:
                raise SecureClassificationError(
                    f"feature index {index} outside 0..{self.n_features - 1}"
                )
        return disclosed

    def partition(
        self, disclosure_set: Iterable[int]
    ) -> Tuple[List[int], List[int]]:
        """Split columns into ``(disclosed, hidden)``, both sorted."""
        disclosed = self.validate_disclosure(disclosure_set)
        hidden = [i for i in range(self.n_features) if i not in disclosed]
        return sorted(disclosed), hidden

    def validate_row(self, row: np.ndarray) -> np.ndarray:
        """Shape/domain-check one feature row."""
        row = np.asarray(row)
        if row.ndim != 1 or len(row) != self.n_features:
            raise SecureClassificationError(
                f"expected a row of {self.n_features} features, "
                f"got shape {row.shape}"
            )
        for index, spec in enumerate(self.features):
            value = int(row[index])
            if not 0 <= value < spec.domain_size:
                raise SecureClassificationError(
                    f"feature {spec.name!r} value {value} outside "
                    f"[0, {spec.domain_size})"
                )
        return row

    @abc.abstractmethod
    def classify(
        self,
        ctx: TwoPartyContext,
        row: np.ndarray,
        disclosure_set: Iterable[int] = (),
    ) -> int:
        """Run the live protocol; the client learns the predicted label."""

    @abc.abstractmethod
    def estimated_trace(self, disclosure_set: Iterable[int] = ()) -> ExecutionTrace:
        """Analytic per-query execution trace for the given disclosure."""
