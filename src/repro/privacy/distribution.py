"""Exact empirical joint distributions over small column subsets.

An :class:`EmpiricalJoint` is a dense probability tensor over a handful
of categorical columns, estimated from data with Laplace smoothing. It
is the reference model for the exact Bayesian adversary (exponential
in the number of columns; it validates the factorised adversaries).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np


class DistributionError(Exception):
    """Raised on invalid distribution construction or queries."""


class EmpiricalJoint:
    """Dense joint distribution over selected categorical columns.

    Parameters
    ----------
    table:
        Probability tensor; axis ``k`` ranges over the domain of
        ``column_indices[k]``.
    column_indices:
        The dataset column each axis corresponds to.
    """

    def __init__(self, table: np.ndarray, column_indices: Sequence[int]) -> None:
        table = np.asarray(table, dtype=float)
        if table.ndim != len(column_indices):
            raise DistributionError(
                f"table rank {table.ndim} vs {len(column_indices)} columns"
            )
        if table.size == 0:
            raise DistributionError("empty probability table")
        if not np.isclose(table.sum(), 1.0, atol=1e-8):
            raise DistributionError(
                f"probabilities sum to {table.sum():.6f}, expected 1"
            )
        if (table < 0).any():
            raise DistributionError("negative probabilities")
        self.table = table
        self.column_indices = list(column_indices)

    @staticmethod
    def from_data(
        data: np.ndarray,
        column_indices: Sequence[int],
        domain_sizes: Sequence[int],
        alpha: float = 0.5,
    ) -> "EmpiricalJoint":
        """Estimate a smoothed joint over ``column_indices``.

        Parameters
        ----------
        data:
            Full integer-coded matrix (all columns).
        column_indices:
            Which columns to model (the tensor axes, in this order).
        domain_sizes:
            Domain size per *selected* column.
        alpha:
            Laplace pseudo-count per cell.
        """
        if alpha < 0:
            raise DistributionError(f"alpha must be non-negative, got {alpha}")
        if len(column_indices) != len(domain_sizes):
            raise DistributionError(
                f"{len(column_indices)} columns vs {len(domain_sizes)} domains"
            )
        shape = tuple(domain_sizes)
        counts = np.full(shape, alpha, dtype=float)
        selected = np.asarray(data)[:, list(column_indices)]
        np.add.at(counts, tuple(selected[:, k] for k in range(len(column_indices))), 1.0)
        return EmpiricalJoint(counts / counts.sum(), column_indices)

    @property
    def domain_sizes(self) -> Tuple[int, ...]:
        """Axis lengths of the probability tensor."""
        return self.table.shape

    def condition(self, evidence: Dict[int, int]) -> "EmpiricalJoint":
        """Condition on ``{column: value}`` evidence; remaining columns
        keep their order."""
        table = self.table
        remaining = list(self.column_indices)
        for column, value in evidence.items():
            axis = remaining.index(column) if column in remaining else None
            if axis is None:
                raise DistributionError(f"column {column} not in this joint")
            size = table.shape[axis]
            if not 0 <= value < size:
                raise DistributionError(
                    f"value {value} outside domain [0, {size}) of column {column}"
                )
            table = np.take(table, value, axis=axis)
            remaining.pop(axis)
        total = table.sum()
        if total <= 0:
            raise DistributionError(
                f"evidence {evidence} has zero probability (increase smoothing)"
            )
        return EmpiricalJoint(table / total, remaining)
