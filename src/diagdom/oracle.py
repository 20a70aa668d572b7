"""Exact dense reference computations used to verify every certified bound.

These are the floating-point oracles: LU with partial pivoting, inverse,
determinant, infinity norm, and the exponential-cost structural scans
(principal minors, comparison-matrix inverse nonnegativity).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import as_matrix, comparison_matrix
from .errors import SingularMatrixError, SizeLimitError

__all__ = [
    "LuFactorization",
    "determinant",
    "inf_norm",
    "inverse",
    "is_h_matrix",
    "is_p_matrix",
    "lu_factor",
    "lu_solve",
]

# Module-level tolerance knobs.  Fixed constants at desk scale; override in
# one place if a different regime is ever needed.
SINGULAR_PIVOT_RTOL = 1e-13  # pivot threshold relative to the matrix infinity norm
INVERSE_NONNEG_TOL = 1e-10   # entrywise slack for inverse-nonnegativity tests
P_MATRIX_MAX_ORDER = 20      # hard guard for the 2^n principal-minor scan
LU_BLOCK = 32                # panel width of the blocked LU factorization
STACK_CHUNK_ENTRIES = 2**16  # entries per stacked chunk of small matrices (512 KiB of float64)


@dataclass(frozen=True)
class LuFactorization:
    """Packed LU factors with the row permutation applied by partial pivoting.

    ``packed`` holds the strict lower triangle of L (unit diagonal implied)
    and the full upper triangle of U.  Row ``k`` of the factorization
    corresponds to original row ``perm[k]``, and ``sign`` is the permutation
    parity, so det(A) = sign * prod(diag(U)).
    """

    packed: np.ndarray
    perm: tuple[int, ...]
    sign: int

    def __post_init__(self):
        self.packed.setflags(write=False)

    @property
    def lower(self) -> np.ndarray:
        L = np.tril(self.packed, -1)
        np.fill_diagonal(L, 1.0)
        return L

    @property
    def upper(self) -> np.ndarray:
        return np.triu(self.packed)


def inf_norm(A) -> float:
    """Maximum absolute row sum."""
    A = as_matrix(A)
    return float(np.abs(A).sum(axis=1).max())


def lu_factor(A) -> LuFactorization:
    """Blocked right-looking LU factorization with partial pivoting.

    Columns are eliminated in panels of ``LU_BLOCK`` columns.  Inside a panel
    each column picks its pivot as the first entry of largest modulus and
    updates only the panel's own columns; a unit-lower solve then forms the
    panel's block row of U and one matrix product updates the trailing
    block.  Up to order ``LU_BLOCK`` this is the plain column-by-column
    elimination, operation for operation; above it the pivot rule is the
    same and only the rounding of the trailing updates differs.

    A pivot of modulus at most ``SINGULAR_PIVOT_RTOL`` times the matrix
    infinity norm stops the elimination with a ``SingularMatrixError`` that
    names the failing column; near-singular input is never silently factored.
    """
    return _lu_factor(as_matrix(A))


def _lu_factor(A) -> LuFactorization:
    """``lu_factor`` of an array that ``as_matrix`` has already validated."""
    n = A.shape[0]
    lu = np.array(A)
    perm = np.arange(n)
    sign = 1
    thresh = SINGULAR_PIVOT_RTOL * float(np.abs(A).sum(axis=1).max())
    for k0 in range(0, n, LU_BLOCK):
        k1 = min(k0 + LU_BLOCK, n)
        for k in range(k0, k1):
            p = k + int(np.argmax(np.abs(lu[k:, k])))
            if abs(lu[p, k]) <= thresh:
                raise SingularMatrixError(f"singular pivot in column {k}", column=k)
            if p != k:
                lu[[k, p]] = lu[[p, k]]
                perm[[k, p]] = perm[[p, k]]
                sign = -sign
            if k + 1 < n:
                lu[k + 1:, k] /= lu[k, k]
                lu[k + 1:, k + 1:k1] -= lu[k + 1:, k, None] * lu[k, k + 1:k1]
        if k1 < n:
            for k in range(k0 + 1, k1):  # U12 = L11^{-1} A12, row by row
                lu[k, k1:] -= lu[k, k0:k] @ lu[k0:k, k1:]
            lu[k1:, k1:] -= lu[k1:, k0:k1] @ lu[k0:k1, k1:]
    return LuFactorization(packed=lu, perm=tuple(int(i) for i in perm), sign=sign)


def lu_solve(fact: LuFactorization, b) -> np.ndarray:
    """Solve A x = b given a factorization of A. ``b`` may be a vector or matrix."""
    b = np.asarray(b, dtype=np.float64)
    vector = b.ndim == 1
    B = b[:, None] if vector else b.copy()
    n = fact.packed.shape[0]
    X = np.array(B[list(fact.perm)], dtype=np.float64)
    lu = fact.packed
    for k in range(1, n):  # forward substitution, unit lower triangle
        X[k] -= lu[k, :k] @ X[:k]
    for k in range(n - 1, -1, -1):  # back substitution
        if k + 1 < n:
            X[k] -= lu[k, k + 1:] @ X[k + 1:]
        X[k] /= lu[k, k]
    return X[:, 0] if vector else X


def determinant(A) -> float:
    """Determinant via the pivoted LU product; singular input yields 0.0."""
    A = as_matrix(A)
    if A.shape[0] == 1:
        return float(A[0, 0])
    try:
        fact = _lu_factor(A)
    except SingularMatrixError:
        return 0.0
    return float(fact.sign * np.prod(fact.packed.diagonal()))


def inverse(A) -> np.ndarray:
    """Matrix inverse; raises ``SingularMatrixError`` on singular input.

    Backed by LAPACK through numpy for speed; the hand-rolled factorization
    above stays the authority for pivot-level diagnostics.
    """
    return _inverse(as_matrix(A))


def _inverse(A) -> np.ndarray:
    """``inverse`` of an array that ``as_matrix`` has already validated."""
    try:
        inv = np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    if not np.isfinite(inv).all():
        raise SingularMatrixError("inverse overflowed; matrix is numerically singular")
    return inv


def _chunk_length(order) -> int:
    """How many matrices of the given order one stacked chunk holds.

    ``STACK_CHUNK_ENTRIES // order**2``, at least one: 1337 matrices of
    order 7, 1024 of order 8, 163 of order 20.  Every stacked oracle works
    through its matrices in chunks of this length, so its memory stays
    bounded however many matrices it visits.
    """
    return max(1, STACK_CHUNK_ENTRIES // (order * order))


def _stack_determinants(stack) -> np.ndarray:
    """``determinant`` of every matrix in a C-ordered (m, s, s) stack, 2 <= s <= LU_BLOCK.

    Eliminates the whole stack column by column with the unblocked rule of
    ``lu_factor``: the first pivot of largest modulus, the same division and
    outer-product update, each matrix's own ``SINGULAR_PIVOT_RTOL`` times
    infinity-norm threshold, and sign times the product of U's diagonal.
    Every value therefore equals ``determinant`` of that matrix bit for bit;
    a matrix that meets a singular pivot gets 0.0 and leaves the stack.
    Only the columns from the pivot on are swapped and updated, because the
    determinant never reads the multipliers of earlier columns.
    """
    m, s, _ = stack.shape
    lu = np.array(stack)
    thresh = SINGULAR_PIVOT_RTOL * np.abs(stack).sum(axis=2).max(axis=1)
    sign = np.ones(m)
    live = np.arange(m)  # position in ``stack`` of each matrix still in ``lu``
    det = np.zeros(m)
    for k in range(s):
        p = k + np.abs(lu[:, k:, k]).argmax(axis=1)
        at = np.arange(len(live))
        singular = np.abs(lu[at, p, k]) <= thresh
        if singular.any():
            keep = ~singular
            lu, p, thresh, sign, live = lu[keep], p[keep], thresh[keep], sign[keep], live[keep]
            at = at[:len(live)]
        row_k = lu[at, k, k:]
        lu[at, k, k:] = lu[at, p, k:]
        lu[at, p, k:] = row_k
        sign[p != k] *= -1.0
        if k + 1 < s:
            mult = lu[:, k + 1:, k] / lu[:, k, k, None]
            lu[:, k + 1:, k + 1:] -= mult[:, :, None] * lu[:, k, None, k + 1:]
    det[live] = sign * np.prod(np.diagonal(lu, axis1=1, axis2=2), axis=1)
    return det


def _inverse_inf_norms(stack) -> np.ndarray:
    """``inf_norm(inverse(S))`` for every matrix S of an (m, n, n) stack, bit for bit.

    One LAPACK call inverts the whole stack.  A singular member, or one whose
    inverse is not finite, raises ``SingularMatrixError`` with ``index`` set
    to the first such member.
    """
    try:
        inv = np.linalg.inv(stack)
    except np.linalg.LinAlgError:
        # Some member has an exact zero pivot: invert one by one to name the first failure.
        for k, member in enumerate(stack):
            try:
                inverse(member)
            except SingularMatrixError as exc:
                raise SingularMatrixError(f"stack member {k}: {exc}", index=k) from exc
        raise
    bad = ~np.isfinite(inv).all(axis=(1, 2))
    if bad.any():
        k = int(bad.argmax())
        raise SingularMatrixError(
            f"stack member {k}: inverse overflowed; matrix is numerically singular", index=k
        )
    return np.abs(inv).sum(axis=2).max(axis=1)


def is_p_matrix(A) -> bool:
    """True iff every principal minor is strictly positive.

    Scans all 2^n - 1 principal submatrices in order of increasing size.  The
    submatrices of one size are stacked in chunks of ``_chunk_length(size)``
    and their minors computed together by the elimination of ``determinant``,
    so each minor equals ``determinant`` of that submatrix bit for bit.  The
    scan stops after the first chunk that holds a non-positive minor.
    Guarded to order ``P_MATRIX_MAX_ORDER`` because of the exponential cost.
    """
    A = as_matrix(A)
    n = A.shape[0]
    if n > P_MATRIX_MAX_ORDER:
        raise SizeLimitError(
            f"principal-minor scan is limited to order {P_MATRIX_MAX_ORDER}, got {n}"
        )
    if (A.diagonal() <= 0).any():
        return False
    for size in range(2, n + 1):
        combos = itertools.combinations(range(n), size)
        step = _chunk_length(size)
        while batch := list(itertools.islice(combos, step)):
            rows = np.array(batch, dtype=np.intp)
            if (_stack_determinants(A[rows[:, :, None], rows[:, None, :]]) <= 0.0).any():
                return False
    return True


def _nonneg_inverse(C) -> np.ndarray | None:
    """Inverse of a comparison matrix ``C`` if it is (numerically) nonnegative, else None.

    ``None`` also covers a singular comparison matrix.
    """
    try:
        inv = _inverse(C)
    except SingularMatrixError:
        return None
    return inv if (inv >= -INVERSE_NONNEG_TOL).all() else None


def is_h_matrix(A) -> bool:
    """True iff the comparison matrix has a (numerically) nonnegative inverse.

    For Z-matrices this inverse-nonnegativity test is equivalent to being a
    nonsingular M-matrix, so it avoids any eigensolver.  Singular comparison
    matrices report False.
    """
    return _nonneg_inverse(comparison_matrix(A)) is not None
