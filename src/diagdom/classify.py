"""Class-membership predicates for the SDD / SDD1 / S-SDD1 / B1 hierarchy.

Strict inequalities are evaluated exactly; boundary matrices classify as NOT
in the class.  Callers needing robustness against ties must perturb their
input themselves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import IndexPartition, as_index_set, as_matrix, dominance_partition
from .errors import HypothesisError, SizeLimitError, WitnessError

__all__ = [
    "B1Split",
    "ClassReport",
    "b1_split",
    "classify",
    "dominance_degrees",
    "find_s_sdd1_witness",
    "is_b1",
    "is_s_sdd1",
    "is_sdd",
    "is_sdd1",
]

WITNESS_SEARCH_MAX = 15  # exhaustive subset search guard on |n2|


@dataclass(frozen=True)
class ClassReport:
    """Summary of every classification for one matrix."""

    is_sdd: bool
    is_sdd1: bool
    s_sdd1_witness: tuple[int, ...] | None
    dominance_degrees: np.ndarray
    partition: IndexPartition

    def __post_init__(self):
        self.dominance_degrees.setflags(write=False)


@dataclass(frozen=True)
class B1Split:
    """Decomposition M = a + c with constant-row shift part c.

    ``r[i]`` is max{0, max of row i's off-diagonal entries}; row i of ``c``
    is constant equal to ``r[i]`` and ``a = M - c`` entrywise.
    """

    a: np.ndarray
    c: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        for arr in (self.a, self.c, self.r):
            arr.setflags(write=False)


def is_sdd(A) -> bool:
    """Strict diagonal dominance: |a_ii| > R_i for every row."""
    part = dominance_partition(A)
    return len(part.n1) == 0


def dominance_degrees(A) -> np.ndarray:
    """Per-row margins |a_ii| - P_i; all positive exactly when the matrix is SDD1."""
    part = dominance_partition(A)
    return part.diag - part.p_values


def is_sdd1(A) -> bool:
    """Generalized dominance |a_ii| > P_i for every row."""
    return _is_sdd1(dominance_partition(A))


def _is_sdd1(part) -> bool:
    """The SDD1 inequality |a_ii| > P_i for every row of the matrix partitioned as ``part``."""
    return bool((part.diag > part.p_values).all())


def _require_sdd1(part):
    """Raise unless the matrix partitioned as ``part`` is SDD1."""
    if not _is_sdd1(part):
        raise HypothesisError("matrix is not SDD1")


def _s_sdd1_margins(part, S) -> np.ndarray:
    """Margins |a_ii| - R^{Sbar}_i - Q^S_i for all rows; S must be validated."""
    off, d = part.off, part.diag
    S = list(S)
    Sset = set(S)
    sbar = [j for j in range(part.n) if j not in Sset]
    w = part.row_sums[S] / d[S]
    margins = d.copy()
    if sbar:
        margins -= off[:, sbar].sum(axis=1)
    margins -= off[:, S] @ w
    return margins


def _validate_witness(part, S) -> tuple[int, ...]:
    S = as_index_set(S, part.n, allow_empty=True, name="witness set")
    if not S:
        raise WitnessError("witness set must be nonempty")
    if not set(S) <= set(part.n2):
        raise WitnessError("witness set must be a subset of the dominant row set")
    return S


def is_s_sdd1(A, S) -> bool:
    """S-restricted dominance: |a_ii| - R^{Sbar}_i - Q^S_i > 0 for every row.

    ``S`` must be a nonempty subset of the dominant set n2; otherwise a
    ``WitnessError`` is raised.
    """
    part = dominance_partition(A)
    return bool((_s_sdd1_margins(part, _validate_witness(part, S)) > 0).all())


def find_s_sdd1_witness(A) -> tuple[int, ...] | None:
    """Search for a subset S of n2 making the matrix S-restricted dominant.

    Exhaustive over subsets, largest cardinality first, lexicographically
    first winner reported.  Guarded to |n2| <= 15.
    """
    return _find_witness(dominance_partition(A))


def _find_witness(part) -> tuple[int, ...] | None:
    """``find_s_sdd1_witness`` of the matrix partitioned as ``part``."""
    n2 = part.n2
    if len(n2) > WITNESS_SEARCH_MAX:
        raise SizeLimitError(
            f"witness search is exhaustive and limited to |n2| <= {WITNESS_SEARCH_MAX}"
        )
    for size in range(len(n2), 0, -1):
        for S in itertools.combinations(n2, size):
            if (_s_sdd1_margins(part, S) > 0).all():
                return S
    return None


def classify(A) -> ClassReport:
    """Assemble the full class report for one matrix."""
    part = dominance_partition(A)
    witness = None
    if part.n2 and len(part.n2) <= WITNESS_SEARCH_MAX:
        witness = _find_witness(part)
    return ClassReport(
        is_sdd=len(part.n1) == 0,
        is_sdd1=_is_sdd1(part),
        s_sdd1_witness=witness,
        dominance_degrees=part.diag - part.p_values,
        partition=part,
    )


def b1_split(M) -> B1Split:
    """Exact shift decomposition M = a + c; asserts nothing about class membership."""
    M = as_matrix(M)
    n = M.shape[0]
    masked = np.array(M)
    np.fill_diagonal(masked, -np.inf)
    r = np.maximum(0.0, masked.max(axis=1))
    c = np.tile(r[:, None], (1, n))
    a = M - c
    return B1Split(a=a, c=c, r=r)


def _positive_sdd1(A) -> IndexPartition | None:
    """Partition of ``A`` when it is SDD1 with positive diagonal, else None.  ``A`` is
    validated after the diagonal test: a shift part M - c can overflow where M does not."""
    if not (A.diagonal() > 0).all():
        return None
    part = dominance_partition(A)
    return part if _is_sdd1(part) else None


def is_b1(M) -> bool:
    """True iff the shift part of the split is SDD1 with all-positive diagonal."""
    return _positive_sdd1(b1_split(M).a) is not None
