"""Class-membership predicates for the SDD / SDD1 / S-SDD1 / B1 hierarchy.

Each class is a strict inequality tested as a float comparison with no
tolerance, so boundary matrices classify as NOT in the class, also where the
exact sums of the stored doubles stay below |a_ii| (``core.IndexPartition``).
Callers needing robustness against ties must perturb their input themselves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import IndexPartition, _checked, _frozen, as_index_set, dominance_partition
from .errors import HypothesisError, SizeLimitError, ValidationError, WitnessError

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
    """Summary of every classification for one matrix.

    ``s_sdd1_witness`` is None both when no witness exists and when the
    witness search was skipped because |n2| exceeds ``WITNESS_SEARCH_MAX``;
    ``witness_skipped`` says which.
    """

    is_sdd: bool
    is_sdd1: bool
    s_sdd1_witness: tuple[int, ...] | None
    dominance_degrees: np.ndarray
    partition: IndexPartition
    witness_skipped: bool

    def __post_init__(self):
        self.dominance_degrees.setflags(write=False)


@dataclass(frozen=True)
class B1Split:
    """Decomposition M = a + c with constant-row shift part c.

    ``r[i]`` is max{0, max of row i's off-diagonal entries}; row i of ``c``
    is constant equal to ``r[i]`` and ``a = M - c`` entrywise.  ``c`` is a
    read-only broadcast of ``r`` down the rows and holds no memory of its
    own.  ``a`` is a view of its own ``bytes`` and can never be made
    writable, so passing it on to the bounds finds its record by identity.
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


def _restricted_sums(part, S) -> tuple[np.ndarray, np.ndarray]:
    """R^S_i and R^{Sbar}_i + Q^S_i for every row i; S must be validated.

    For S = n2 they are the partition's ``r_n2`` and P: S-SDD1 is SDD1 to the bit.
    """
    if tuple(S) == part.n2:
        return part.r_n2, part.p_values
    off, S = part.off, list(S)
    off_S, w = off[:, S], part.row_sums[S] / part.diag[S]
    return off_S.sum(axis=1), off[:, np.delete(np.arange(part.n), S)].sum(axis=1) + off_S @ w


def _is_s_sdd1(part, S) -> bool:
    """The S-SDD1 inequality |a_ii| > R^{Sbar}_i + Q^S_i for every row; S must be validated."""
    return bool((part.diag > _restricted_sums(part, S)[1]).all())


def _validate_witness(part, S) -> tuple[int, ...]:
    S = as_index_set(S, part.n, allow_empty=True, name="witness set")
    if not S:
        raise WitnessError("witness set must be nonempty")
    if not set(S) <= set(part.n2):
        raise WitnessError("witness set must be a subset of the dominant row set")
    return S


def is_s_sdd1(A, S) -> bool:
    """S-restricted dominance: |a_ii| > R^{Sbar}_i + Q^S_i for every row.

    ``S`` must be a nonempty subset of the dominant set n2; otherwise a
    ``WitnessError`` is raised.  With S = n2 this is ``is_sdd1``.
    """
    part = dominance_partition(A)
    return _is_s_sdd1(part, _validate_witness(part, S))


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
            if _is_s_sdd1(part, S):
                return S
    return None


def classify(A) -> ClassReport:
    """Assemble the full class report for one matrix."""
    part = dominance_partition(A)
    skipped = len(part.n2) > WITNESS_SEARCH_MAX
    return ClassReport(
        is_sdd=len(part.n1) == 0,
        is_sdd1=_is_sdd1(part),
        s_sdd1_witness=None if skipped else _find_witness(part),
        dominance_degrees=part.diag - part.p_values,
        partition=part,
        witness_skipped=skipped,
    )


def b1_split(M) -> B1Split:
    """Exact shift decomposition M = a + c; asserts nothing about class membership.

    Raises ``ValidationError`` when ``a = M - c`` overflows, which a finite M
    holding large entries of both signs in one row can do.  ``a`` views its
    own ``bytes``, so the memo adopts it uncopied when it is analysed.
    """
    M = _checked(M)
    a = np.array(M)  # M with its diagonal masked out finds r, then holds M - c
    np.fill_diagonal(a, -np.inf)
    r = np.maximum(0.0, a.max(axis=1))
    with np.errstate(over="ignore"):
        np.subtract(M, r[:, None], out=a)
    if not np.isfinite(a).all():
        raise ValidationError("the shift part M - c overflows")
    return B1Split(a=_frozen(a), c=np.broadcast_to(r[:, None], M.shape), r=r)


def _positive_sdd1(A) -> IndexPartition | None:
    """Partition of the validated ``A`` when it is SDD1 with positive diagonal, else None."""
    if not (A.diagonal() > 0).all():
        return None
    part = dominance_partition(A)
    return part if _is_sdd1(part) else None


def is_b1(M) -> bool:
    """True iff the shift part of the split is SDD1 with all-positive diagonal."""
    return _positive_sdd1(b1_split(M).a) is not None
