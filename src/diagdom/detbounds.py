"""Determinant bracketing for SDD1 matrices in the dominance ordering.

Both brackets are sequential-elimination products over A's rows in dominance
order, non-dominant rows first (``dominance_ordering``'s stable permutation),
built from A's own partition, so A may come in any row order.  ``huang_bracket``
uses one global scaling weight per dominance class; ``dominance_bracket`` weighs
each later column by its own dominance ratio, which keeps every lower factor > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificates import FORMULA_DET_HUANG, FORMULA_DET_NEW
from .classify import _require_sdd1
from .core import IndexPartition, _checked, _frozen, as_matrix, dominance_partition
from .errors import HypothesisError, ValidationError
from .oracle import determinant

__all__ = [
    "DetBracket",
    "DominanceOrdering",
    "bracket_nesting_check",
    "dominance_bracket",
    "dominance_ordering",
    "huang_bracket",
]

NESTING_RTOL = 1e-9  # relative slack when comparing bracket endpoints


@dataclass(frozen=True)
class DominanceOrdering:
    """Stable permutation putting all non-dominant rows first.

    ``permutation[t]`` is the original index placed at position ``t``;
    ``s`` is the number of non-dominant rows.  Relative order inside each
    class is the original increasing order, and a symmetric permutation
    leaves |det| unchanged.
    """

    permutation: tuple[int, ...]
    s: int

    def apply(self, A) -> np.ndarray:
        """``A`` with rows and columns permuted, as a view of its own ``bytes``.

        It can never be made writable, so a call that reads it next finds its
        record by identity; applying it records nothing.  The brackets take A
        itself: the copy's sums run over permuted columns and can round otherwise.
        """
        A = _checked(A)
        p = list(self.permutation)
        if A.shape[0] != len(p):
            raise ValidationError(f"expected a matrix of order {len(p)}, got order {A.shape[0]}")
        return _frozen(A[np.ix_(p, p)])


@dataclass(frozen=True)
class DetBracket:
    """Lower/upper determinant bracket with its per-row factors.

    ``factors[t]`` is the (lower, upper) pair of the row at position t of the
    dominance ordering, row ``permutation[t]`` of A.  ``lower`` is the product
    of the lower factors, clamped to zero only when some factor is negative (a
    negative lower bound on |det| is vacuous); the raw factors stay available.
    ``weights`` is the column-weight vector the factors were built with, in
    the same order, and ``theta`` the global scaling weight where one exists.
    """

    lower: float
    upper: float
    factors: np.ndarray
    formula_id: str
    weights: np.ndarray
    theta: float | None = None

    def __post_init__(self):
        self.factors.setflags(write=False)
        self.weights.setflags(write=False)


def dominance_ordering(A) -> DominanceOrdering:
    """Stable reordering with the non-dominant rows leading; needs both classes."""
    part = _two_class_partition(A)
    return DominanceOrdering(permutation=part.n1 + part.n2, s=len(part.n1))


def _two_class_partition(A) -> IndexPartition:
    """The partition of ``A`` after checking that both row classes occur."""
    part = dominance_partition(A)
    if not part.n1 or not part.n2:
        raise HypothesisError(
            "n1 or n2 is empty",
            "the dominance ordering is defined only when both row classes occur",
        )
    return part


def _sequential_bracket(part, weights, divisor, formula_id, theta=None) -> DetBracket:
    """Factors |a_ii| -/+ sum_{j after i} |a_ij| weights_j / divisor_i and their products
    over the rows i of n1 + n2; ``weights`` and ``divisor`` are indexed by A's rows."""
    off, diag = part.off, part.diag
    if part.n1[-1] != len(part.n1) - 1:  # n1 increases, so it leads iff it ends at s - 1
        p = np.array(part.n1 + part.n2)  # gather once into dominance order
        off, diag, weights, divisor = off[np.ix_(p, p)], diag[p], weights[p], divisor[p]
    spill = np.array([
        (off[t, t + 1:] * weights[t + 1:]).sum() / divisor[t] for t in range(part.n)
    ])
    lower_f, upper_f = diag - spill, diag + spill
    return DetBracket(
        lower=float(np.prod(lower_f)) if (lower_f >= 0).all() else 0.0,
        upper=float(np.prod(upper_f)),
        factors=np.column_stack([lower_f, upper_f]),
        formula_id=formula_id,
        weights=weights,
        theta=theta,
    )


def huang_bracket(A) -> DetBracket:
    """Sequential bracket with one global weight theta on the dominant class.

    ``A`` may come in any row order.  theta is the minimum over non-dominant
    rows of (|a_ii| - P_i) / R^{n2}_i, skipping rows with no dominant-column
    mass; if every row is skipped the bracket is unavailable and a
    ``HypothesisError`` is raised rather than extrapolating with an infinite
    weight.  Row i's sum is divided by its weight x_i.
    """
    part = _two_class_partition(A)
    d, n1, n2 = part.diag, np.array(part.n1), np.array(part.n2)
    rs = part.r_n2[n1]
    coupled = rs > 0.0
    if not coupled.any():
        raise HypothesisError(
            "theta undefined",
            "every non-dominant row decouples from the dominant columns, "
            "so the global weight has no finite definition",
        )
    _require_sdd1(part)
    theta = float(((d[n1] - part.p_values[n1])[coupled] / rs[coupled]).min())
    x = np.ones(part.n)
    x[n2] = theta + part.row_sums[n2] / d[n2]
    return _sequential_bracket(part, x, x, FORMULA_DET_HUANG, theta)


def dominance_bracket(A) -> DetBracket:
    """Sequential bracket weighing each column by its own dominance ratio.

    ``A`` may come in any row order.  Column weights are P_i/|a_ii| on the
    non-dominant rows and R_i/|a_ii| on the dominant rows.  Every lower factor
    satisfies f_i >= |a_ii| - P_i > 0, so the lower endpoint is strictly positive.
    """
    part = _two_class_partition(A)
    _require_sdd1(part)
    d = part.diag
    y = np.empty(part.n)
    n1, n2 = np.array(part.n1), np.array(part.n2)
    y[n1] = part.p_values[n1] / d[n1]
    y[n2] = part.row_sums[n2] / d[n2]
    return _sequential_bracket(part, y, np.ones(part.n), FORMULA_DET_NEW)


def bracket_nesting_check(A) -> bool:
    """Verify huang.lower <= ratio.lower <= |det| <= ratio.upper <= huang.upper.

    The determinant comes from the oracle; comparisons allow a relative slack
    of ``NESTING_RTOL``.  A non-finite endpoint or oracle value (the products
    overflow float64 at large orders) raises a ``HypothesisError`` naming it
    instead of passing on ``inf <= inf``.
    """
    A = as_matrix(A)
    broad = huang_bracket(A)
    tight = dominance_bracket(A)
    exact = abs(determinant(A))
    chain = {
        "huang.lower": broad.lower,
        "dominance_ratio.lower": tight.lower,
        "oracle |det|": exact,
        "dominance_ratio.upper": tight.upper,
        "huang.upper": broad.upper,
    }
    overflowed = ", ".join(f"{k} = {v}" for k, v in chain.items() if not math.isfinite(v))
    if overflowed:
        raise HypothesisError(
            "bracket or determinant not finite",
            f"not finite, so the nesting cannot be judged: {overflowed}",
        )

    def le(a, b):
        return a <= b + NESTING_RTOL * max(1.0, abs(a), abs(b))

    values = list(chain.values())
    return all(le(a, b) for a, b in zip(values, values[1:]))
