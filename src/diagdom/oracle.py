"""Exact dense reference computations used to verify every certified bound.

These are the floating-point oracles: LU with partial pivoting, inverse,
determinant, infinity norm, the exponential-cost principal-minor scan, and
the H-matrix test with its scaling witness.

The H-matrix test rests on a property of Z-matrices such as the comparison
matrix <A>: <A> is a nonsingular M-matrix if and only if some x > 0 has
<A>x > 0, and then x = <A>^{-1} 1 is one (Berman & Plemmons, *Nonnegative
Matrices in the Mathematical Sciences*, 1994, ch. 6).  So one linear solve
decides it, and the x it finds scales A into strict diagonal dominance:
A diag(x) is SDD by rows.  ``h_scaling`` returns that x as an auditable
witness; ``is_h_matrix`` asks whether it exists.
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
    "h_scaling",
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
P_MATRIX_MAX_ORDER = 20      # hard guard for the 2^n principal-minor scan
LU_BLOCK = 32                # panel width of the blocked LU factorization
LU_SCALAR_MAX = 16           # largest order the LU eliminates on Python floats (measured crossover)
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
    """LU factorization with partial pivoting.

    Each column's pivot is its first entry of largest modulus (the first NaN
    once the elimination has overflowed, as ``np.argmax`` does).  Up to
    order ``LU_SCALAR_MAX`` the columns are eliminated on Python floats,
    where one IEEE operation costs less than one NumPy call.  Above it they
    are eliminated in panels of ``LU_BLOCK``, each in a transposed
    C-contiguous copy so that pivot search, scaling and rank-1 update run on
    contiguous rows; a unit-lower solve then forms the panel's block row of
    U and one matrix product updates the trailing block.  Both kernels give
    every element the same IEEE operations in the same order as the blocked
    loop on the factor array itself, so the factors are bit-identical to it
    at every order.  Up to order ``LU_BLOCK`` that is the plain column-by-
    column elimination; above it the trailing updates may round differently.

    A pivot of modulus at most ``SINGULAR_PIVOT_RTOL`` times the matrix
    infinity norm stops the elimination with a ``SingularMatrixError`` that
    names the failing column; near-singular input is never silently factored.
    """
    return _lu_factor(as_matrix(A))


def _lu_factor(A) -> LuFactorization:
    """``lu_factor`` of an array that ``as_matrix`` has already validated."""
    n = A.shape[0]
    thresh = SINGULAR_PIVOT_RTOL * float(np.abs(A).sum(axis=1).max())
    if n <= LU_SCALAR_MAX:
        return _lu_scalar(A, thresh)
    lu = np.array(A)
    perm = list(range(n))
    sign = 1
    for k0 in range(0, n, LU_BLOCK):
        k1 = min(k0 + LU_BLOCK, n)
        panel = lu[k0:, k0:k1].T.copy()  # row c holds column k0 + c from row k0 down
        for c in range(k1 - k0):
            k, col = k0 + c, panel[c]
            p = c + int(np.abs(col[c:]).argmax())
            if abs(col[p]) <= thresh:
                raise SingularMatrixError(f"singular pivot in column {k}", column=k)
            if p != c:
                # Slices, not a fancy-index swap, which costs three times as much.
                panel[:, c], panel[:, p] = panel[:, p].copy(), panel[:, c].copy()
                lu[k], lu[k0 + p] = lu[k0 + p].copy(), lu[k].copy()  # panel columns rewritten below
                perm[k], perm[k0 + p] = perm[k0 + p], perm[k]
                sign = -sign
            if k + 1 < n:
                col[c + 1:] /= col[c]
                panel[c + 1:, c + 1:] -= panel[c + 1:, c, None] * col[c + 1:]
        lu[k0:, k0:k1] = panel.T
        if k1 < n:
            for k in range(k0 + 1, k1):  # U12 = L11^{-1} A12, row by row
                lu[k, k1:] -= lu[k, k0:k] @ lu[k0:k, k1:]
            lu[k1:, k1:] -= lu[k1:, k0:k1] @ lu[k0:k1, k1:]
    return LuFactorization(packed=lu, perm=tuple(perm), sign=sign)


def _lu_scalar(A, thresh) -> LuFactorization:
    """The column-by-column elimination on Python floats, operation for operation."""
    n = A.shape[0]
    rows = A.tolist()
    perm = list(range(n))
    sign = 1
    for k in range(n):
        p, top = k, abs(rows[k][k])
        if top == top:  # as np.argmax: the first NaN, else the first largest modulus
            for i in range(k + 1, n):
                v = abs(rows[i][k])
                if v > top:
                    p, top = i, v
                elif v != v:
                    p = i
                    break
        if abs(rows[p][k]) <= thresh:
            raise SingularMatrixError(f"singular pivot in column {k}", column=k)
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            perm[k], perm[p] = perm[p], perm[k]
            sign = -sign
        pivot = rows[k]
        for row in rows[k + 1:]:
            m = row[k] = row[k] / pivot[k]
            for j in range(k + 1, n):
                row[j] -= m * pivot[j]
    return LuFactorization(packed=np.array(rows), perm=tuple(perm), sign=sign)


def lu_solve(fact: LuFactorization, b) -> np.ndarray:
    """Solve A x = b given a factorization of A. ``b`` may be a vector or matrix."""
    b = np.asarray(b, dtype=np.float64)
    vector = b.ndim == 1
    n = fact.packed.shape[0]
    X = (b[:, None] if vector else b)[list(fact.perm)]  # the one copy of b
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


def _stack_pivots(stack) -> tuple[np.ndarray, np.ndarray]:
    """U's diagonal for every matrix in a C-ordered (m, s, s) stack, 2 <= s <= LU_BLOCK,
    and the sign of each determinant, decided from the pivots.

    Eliminates the whole stack column by column with the unblocked rule of
    ``lu_factor``: the first pivot of largest modulus, the same division and
    outer-product update, and each matrix's own ``SINGULAR_PIVOT_RTOL`` times
    infinity-norm threshold.  Each row of pivots therefore equals
    ``lu_factor(S).packed.diagonal()`` bit for bit; a matrix that meets a
    singular pivot gets a row of zeros and leaves the stack.  Only the
    columns from the pivot on are swapped and updated, because U's diagonal
    never reads the multipliers of earlier columns.  A sign is the
    permutation sign times the pivots' signs, 0.0 if singular: no product of
    pivots is formed, so it cannot underflow or overflow.
    """
    m, s, _ = stack.shape
    lu = np.array(stack)
    thresh = SINGULAR_PIVOT_RTOL * np.abs(stack).sum(axis=2).max(axis=1)
    sign = np.ones(m)
    live = np.arange(m)  # position in ``stack`` of each matrix still in ``lu``
    pivots, signs = np.zeros((m, s)), np.zeros(m)
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
    pivots[live] = np.diagonal(lu, axis1=1, axis2=2)
    signs[live] = sign * np.prod(np.sign(pivots[live]), axis=1)
    return pivots, signs


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
    and eliminated together by the rule of ``lu_factor``.  Each minor's
    sign is the permutation sign times the signs of its pivots, and no
    product of pivots is formed, so input scaled by 1e-200 or 2^600 gets the
    same answer as unscaled input; a pivot under the singular threshold
    counts as a zero minor.
    The scan stops after the first chunk that holds a non-positive minor.
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
            if (_stack_pivots(A[rows[:, :, None], rows[:, None, :]])[1] <= 0.0).any():
                return False
    return True


def h_scaling(A) -> np.ndarray | None:
    """The H-matrix witness: x = <A>^{-1} 1 if it proves <A> a nonsingular M-matrix, else None.

    Solves <A> x = 1 once, with ``<A> = comparison_matrix(A)``.  The
    read-only x is returned only if it is finite, x > 0, and the computed
    ``comparison_matrix(A) @ x`` is > 0 in every row: exactly the inequalities
    that make |a_ii| x_i > sum_{j != i} |a_ij| x_j, so A diag(x) is strictly
    diagonally dominant by rows.  A singular <A>, a solve that overflows, and
    an x that fails either inequality give None.
    """
    return _m_matrix_witness(comparison_matrix(A))


def _m_matrix_witness(C) -> np.ndarray | None:
    """``h_scaling`` of any matrix whose comparison matrix is the Z-matrix ``C``.

    The one M-matrix test: the Schur ``delta`` applies it to its pivot block.
    """
    try:
        x = np.linalg.solve(C, np.ones(C.shape[0]))
    except np.linalg.LinAlgError:  # an exact zero pivot
        return None
    if not (np.isfinite(x).all() and (x > 0.0).all()):
        return None
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing product fails the test
        residual = C @ x
    if not (residual > 0.0).all():
        return None
    x.setflags(write=False)
    return x


def is_h_matrix(A) -> bool:
    """True iff ``h_scaling`` finds a witness: <A> is a nonsingular M-matrix.

    One solve with <A>, no inverse and no eigensolver; see ``h_scaling`` and
    the module docstring for the method and its source.
    """
    return h_scaling(A) is not None
