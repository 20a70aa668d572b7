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

Each matrix is factored once.  ``lu_factor`` and ``determinant`` keep the
factorization in the matrix's record in ``core``'s table of at most
``core.MEMO_RECORDS`` records, so factoring a matrix that is still recorded
(``determinant(A)`` and then ``lu_factor(A)``, as an audit does) returns the
same read-only factorization.  Singular input is never stored.  The oracles
that read their matrix once (``inverse``, ``inf_norm``, ``is_p_matrix``,
``h_scaling``) leave no record, nor does a Schur complement's pivot block.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import _checked, _frozen, _record, comparison_matrix
from .errors import SingularMatrixError, SizeLimitError, ValidationError

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

# Fixed constants, not options: every oracle, test and report reads these values.
SINGULAR_PIVOT_RTOL = 1e-13  # pivot threshold relative to the matrix infinity norm
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
    return float(np.abs(_checked(A)).sum(axis=1).max())


def lu_factor(A) -> LuFactorization:
    """LU factorization with partial pivoting.

    Each column's pivot is its first entry of largest modulus (the first NaN
    once the elimination has overflowed, as ``np.argmax`` does).  The
    columns are eliminated in panels of ``LU_BLOCK``, each in a transposed
    C-contiguous copy so that pivot search, scaling and rank-1 update run on
    contiguous rows; a unit-lower solve then forms the panel's block row of
    U and one matrix product updates the trailing block.  Every element gets
    the same IEEE operations in the same order as the blocked loop on the
    factor array itself, so the factors are bit-identical to it at every
    order.  Up to order ``LU_BLOCK`` that is the plain column-by-column
    elimination; above it the trailing updates may round differently.  An
    elimination that overflows to inf or NaN does so without a warning.

    A pivot of modulus at most ``SINGULAR_PIVOT_RTOL`` times the matrix
    infinity norm stops the elimination with a ``SingularMatrixError`` that
    names the failing column; near-singular input is never silently factored.

    The factorization is kept in the matrix's record in the memo of
    ``as_matrix``, so input with the same bytes (0.0 and -0.0 differ) gets the
    same read-only factorization back without a new elimination while the
    record lasts; a singular input raises on every call and is never kept.
    """
    return _record(A).result("factorization", _factorize)


def _factorize(A) -> LuFactorization:
    """The factorization of a validated matrix, eliminated afresh.

    ``packed`` is a view of the factor's own ``bytes``, so it can never be
    made writable and a shared factorization stays what it was.
    """
    lu, perm, sign = _eliminate(A)
    return LuFactorization(packed=_frozen(lu), perm=tuple(perm), sign=sign)


def _eliminate(A):
    """``lu_factor``'s elimination of a validated matrix: (factor array, perm, sign)."""
    n = A.shape[0]
    lu = np.array(A)
    perm = list(range(n))
    sign = 1
    with np.errstate(all="ignore"):  # growth may overflow to inf and then NaN; that must not warn
        thresh = SINGULAR_PIVOT_RTOL * float(np.abs(A).sum(axis=1).max())
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
    return lu, perm, sign


def lu_solve(fact: LuFactorization, b) -> np.ndarray:
    """Solve A x = b given a factorization of A; ``b`` is a real, finite vector or matrix."""
    b = np.asarray(b)
    if b.dtype.kind == "c":  # the cast would drop the imaginary parts
        raise ValidationError("complex right-hand sides are not supported")
    b = np.asarray(b, dtype=np.float64)
    vector = b.ndim == 1
    n = fact.packed.shape[0]
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValidationError(f"right-hand side must have {n} rows, got shape {b.shape}")
    if not np.isfinite(b).all():
        raise ValidationError("right-hand side entries must be finite")
    X = (b[:, None] if vector else b)[list(fact.perm)]  # the one copy of b
    _substitute(fact.packed[None], X[None])  # solved in place as a stack of one
    return X[:, 0] if vector else X


def determinant(A) -> float:
    """Determinant via the pivoted LU product; singular input yields 0.0."""
    A = _checked(A, finite=False)  # lu_factor runs the finite check, on a miss only
    if A.shape[0] == 1:  # its own determinant: nothing to factor, so checked in place, no record
        return float(_checked(A)[0, 0])
    try:
        fact = lu_factor(A)
    except SingularMatrixError:
        return 0.0
    return float(fact.sign * np.prod(fact.packed.diagonal()))


def inverse(A) -> np.ndarray:
    """Matrix inverse; raises ``SingularMatrixError`` on singular input.

    Backed by LAPACK through numpy for speed; the hand-rolled factorization
    above stays the authority for pivot-level diagnostics.
    """
    try:
        inv = np.linalg.inv(_checked(A))
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
    bounded however many matrices it visits, and ``schur_complement``
    sweeps a family of complements together only if it fits one chunk.  In
    ``is_p_matrix`` a chunk's largest arrays hold at most
    ``STACK_CHUNK_ENTRIES`` entries each (512 KiB): the flat indices of its
    minors, their (m, s, s) gather, and the (s, s, m) copy and update
    temporary of ``_stack_pivots``.
    """
    return max(1, STACK_CHUNK_ENTRIES // (order * order))


def _stack_pivots(stack, factors=False):
    """U's diagonal for every matrix in a C-ordered (m, s, s) stack, 2 <= s <= LU_BLOCK,
    and the sign of each determinant, decided from the pivots.

    Eliminates the whole stack column by column with the unblocked rule of
    ``lu_factor``: the first pivot of largest modulus, the same division and
    outer-product update, and each matrix's own ``SINGULAR_PIVOT_RTOL`` times
    infinity-norm threshold.  Each row of pivots therefore equals
    ``lu_factor(S).packed.diagonal()`` bit for bit while one panel of
    ``LU_BLOCK`` columns covers S, that is for s <= LU_BLOCK; a matrix that
    meets a singular pivot gets a row of zeros and leaves the stack.  Only the
    columns from the pivot on are swapped and updated, because U's diagonal
    never reads the multipliers of earlier columns.  A sign is the
    permutation sign times the pivots' signs, 0.0 if singular: no product of
    pivots is formed, so it cannot underflow or overflow.

    With ``factors``, the stacked kernel of ``_factor_stack``, it keeps what
    ``lu_factor`` keeps, for 1 <= s <= LU_BLOCK: swaps move whole rows and each
    multiplier is stored under the diagonal.  It returns instead the (m, s, s)
    packed factors, the (m, s) row permutations, the permutation signs and the
    column of each matrix's singular pivot (-1 if none); a nonsingular matrix's
    packed, perm and sign equal ``lu_factor``'s bit for bit, a singular one's are zeros.

    The elimination runs on an (s, s, m) copy, the matrix index last, so the
    pivot search, the scaling and the rank-1 update work on contiguous
    vectors over the matrices, and a row swap touches only the matrices whose
    pivot moved.  That copy, the (m, s, s) input and one update temporary of
    at most (s-1)^2 m entries are the largest arrays it holds.
    """
    m, s, _ = stack.shape
    thresh = SINGULAR_PIVOT_RTOL * np.abs(stack).sum(axis=2).max(axis=1)
    lu = stack.transpose(1, 2, 0).copy()  # lu[i, j] holds entry (i, j) of every live matrix
    sign = np.ones(m)
    live = np.arange(m)  # position in ``stack`` of each matrix still in ``lu``
    perm = np.repeat(np.arange(s)[:, None], m, axis=1) if factors else None  # perm[i] over matrices
    failed = np.full(m, -1)
    for k in range(s):
        col = np.abs(lu[k:, k])
        p = k + col.argmax(axis=0)
        singular = col.max(axis=0) <= thresh  # the modulus at p: the largest, or NaN
        if singular.any():
            keep = ~singular
            failed[live[singular]] = k
            lu, p, thresh, sign, live = lu[:, :, keep], p[keep], thresh[keep], sign[keep], live[keep]
            if factors:
                perm = perm[:, keep]
        moved = (p != k).nonzero()[0]
        if moved.size:
            to, first = p[moved], 0 if factors else k
            row_k = lu[k, first:, moved]
            lu[k, first:, moved] = lu[to, first:, moved]
            lu[to, first:, moved] = row_k
            sign[moved] *= -1.0
            if factors:
                perm[k, moved], perm[to, moved] = perm[to, moved], perm[k, moved]
        if k + 1 < s:
            mult = lu[k + 1:, k] / lu[k, k]
            if factors:
                lu[k + 1:, k] = mult
            lu[k + 1:, k + 1:] -= mult[:, None] * lu[k, k + 1:]
    if factors:
        packed, perms, signs = np.zeros((m, s, s)), np.zeros((m, s), dtype=np.intp), np.zeros(m)
        packed[live], perms[live], signs[live] = lu.transpose(2, 0, 1), perm.T, sign
        return packed, perms, signs, failed
    pivots, signs = np.zeros((m, s)), np.zeros(m)
    pivots[live] = np.diagonal(lu, axis1=0, axis2=1)
    signs[live] = sign * np.prod(np.sign(pivots[live]), axis=1)
    return pivots, signs


def _factor_stack(stack):
    """``lu_factor``'s factors of each matrix of a C-ordered (m, s, s) stack, unrecorded: the
    packed factors, (m, s) permutations, signs and singular columns (-1 if none), zeros for
    a singular matrix.  Two or more of order at most ``LU_BLOCK`` are eliminated together
    by ``_stack_pivots``; a lone matrix, and each matrix of a stack of larger order, goes
    through ``_eliminate``, ``lu_factor``'s one kernel, whatever its order."""
    m, s, _ = stack.shape
    if m > 1 and s <= LU_BLOCK:
        return _stack_pivots(stack, factors=True)
    packed, perm = np.zeros((m, s, s)), np.zeros((m, s), dtype=np.intp)
    sign, failed = np.zeros(m), np.full(m, -1)
    for j, block in enumerate(stack):
        try:
            packed[j], perm[j], sign[j] = _eliminate(block)
        except SingularMatrixError as exc:
            failed[j] = exc.column
    return packed, perm, sign, failed


def _substitute(lu, X):
    """Solve L U Y = X in place for each member of an (m, s, s) stack of packed factors and
    an (m, s, b) stack X with its rows in pivot order; returns X.  Each step is one stacked
    ``matmul``, which numpy runs as one BLAS call per member with that member's shapes and
    strides, so each member gets the bits of its own 2-D loop (``tests/test_vectorized.py``)."""
    s = lu.shape[1]
    lu_rows = list(lu[:, :, None].swapaxes(0, 1))  # lu_rows[k]: row k of each member, (m, 1, s)
    x_rows = list(X[:, :, None].swapaxes(0, 1))    # x_rows[k]: row k of each X, (m, 1, b)
    for k in range(1, s):  # forward substitution, unit lower triangle
        x_rows[k] -= lu_rows[k][..., :k] @ X[:, :k]
    for k in range(s - 1, -1, -1):  # back substitution
        if k + 1 < s:
            x_rows[k] -= lu_rows[k][..., k + 1:] @ X[:, k + 1:]
        x_rows[k] /= lu_rows[k][..., k, None]
    return X


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
    submatrices of one size are stacked in chunks of ``_chunk_length(size)``,
    in ``itertools.combinations`` order: ``np.fromiter`` reads a chunk's index
    sets, one take from the flattened matrix gathers its minors, and
    ``_stack_pivots`` eliminates them together by the rule of ``lu_factor``.
    Each minor's sign is the permutation sign times the signs of its pivots,
    and no product of pivots is formed, so input scaled by 1e-200 or 2^600
    gets the same answer as unscaled input; a pivot under the singular
    threshold counts as a zero minor.  The scan stops after the first chunk
    that holds a non-positive minor.  Guarded to order ``P_MATRIX_MAX_ORDER``
    because of the exponential cost.
    """
    A = _checked(A)
    n = A.shape[0]
    if n > P_MATRIX_MAX_ORDER:
        raise SizeLimitError(
            f"principal-minor scan is limited to order {P_MATRIX_MAX_ORDER}, got {n}"
        )
    if (A.diagonal() <= 0).any():
        return False
    flat = A.ravel()
    for size in range(2, n + 1):
        combos = itertools.combinations(range(n), size)
        step = _chunk_length(size)
        while (rows := np.fromiter(itertools.chain.from_iterable(itertools.islice(combos, step)),
                                   dtype=np.intp).reshape(-1, size)).size:
            if (_stack_pivots(flat[rows[:, :, None] * n + rows[:, None, :]])[1] <= 0.0).any():
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
