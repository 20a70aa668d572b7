"""Scalar reference implementations that the vectorized library code must match.

These are the column-by-column LU factorization and the blocked one with
one NumPy call per step, ``lu_solve`` as the 2-D substitution loop it was
before it became a stack of one, the per-element Python loops the library used
before its hot paths became whole-array NumPy work, the one-matrix-at-a-time
oracle scans that became stacked NumPy calls, the flattened pairwise
terms that became one broadcast grid, the H-matrix test that
inverted the comparison matrix before it became one solve, and
``schur_complement`` as each call built it before it validated once, and
the grid-and-refine epsilon search the library ran before it minimized the
epsilon bound exactly, and ``b1_split`` as it built the shift part c as a
tiled n x n copy, and the exhaustive S-SDD1 witness search that
``find_s_sdd1_witness`` ran before it answered n2 or None in closed form.
(The per-sample ``default_rng`` loop is in ``sampled_norms``.)  The search
must agree with the library except at a tie that rounding decides, where it
can name a smaller S that the library's SDD1 test does not admit
(``TIE_SUBSET_WITNESS``, ``TIE_EXACT_WITNESS``).  The library's LU must agree with
``lu_factor_unblocked`` exactly up to its block width and with
``lu_factor_blocked`` at every order; ``is_h_matrix`` must give the
library's answer on input kept away from singularity; the library's
automatic epsilon bound must be at most ``sdd1_epsilon_bound``'s value, up
to rounding; every other function here must agree with its library
counterpart bit for bit (``==``, not ``allclose``); ``b1_split``'s ``a`` and
``r`` byte for byte.
"""

import itertools
import math

import numpy as np

from diagdom import (
    DenominatorError,
    SingularBlockError,
    SingularMatrixError,
    SizeLimitError,
    ValidationError,
    comparison_matrix,
    inf_norm,
    inverse,
    is_sdd1,
    lu_factor,
)
from diagdom.certificates import FORMULA_LCP_B1, FORMULA_SDD1_EPSILON, BoundCertificate
from diagdom.classify import B1Split, _is_s_sdd1
from diagdom.core import _checked, _frozen, as_matrix, dominance_partition
from diagdom.lcp import VIOLATION_TOL
from diagdom.oracle import LU_BLOCK, SINGULAR_PIVOT_RTOL, LuFactorization
from diagdom.schur import ENTRYWISE_RTOL

# The grid-and-refine epsilon search the library ran before it minimized the
# bound exactly: a grid kept a relative margin inside the open interval, then
# golden section refined around the grid's best point.
EPSILON_GRID_POINTS = 256
EPSILON_GRID_MARGIN = 1e-6
EPSILON_REFINE_WIDTH = 1e-10
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# Guard on |n2| of the exhaustive witness search below, which tests up to
# 2^|n2| - 1 subsets.
WITNESS_SEARCH_MAX = 15

# Entrywise slack of the inverse-based M-matrix test below.  The library tests
# with ``h_scaling``'s witness instead, so the constant lives only here.
INVERSE_NONNEG_TOL = 1e-10


def abs_off(A):
    """Return (|A|, |A| with zeroed diagonal, |diagonal|)."""
    absA = np.abs(A)
    off = absA.copy()
    np.fill_diagonal(off, 0.0)
    return absA, off, absA.diagonal().copy()


def lu_factor_unblocked(A):
    """Column-by-column LU with partial pivoting: (packed, perm, sign)."""
    A = as_matrix(A)
    n = A.shape[0]
    lu = np.array(A)
    perm = np.arange(n)
    sign = 1
    thresh = SINGULAR_PIVOT_RTOL * float(np.abs(A).sum(axis=1).max())
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if abs(lu[p, k]) <= thresh:
            raise SingularMatrixError(f"singular pivot in column {k}", column=k)
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            perm[[k, p]] = perm[[p, k]]
            sign = -sign
        if k + 1 < n:
            lu[k + 1:, k] /= lu[k, k]
            lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return lu, tuple(int(i) for i in perm), sign


def lu_factor_blocked(A):
    """The blocked LU with each panel eliminated in place in the factor array,
    one NumPy call per step: a ``LuFactorization``."""
    A = as_matrix(A)
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


def lu_solve(fact, b):
    """``lu_solve`` as one 2-D loop, one row of b's working copy per step, before it
    became a stack of one in the library's stacked substitution."""
    b = np.asarray(b, dtype=np.float64)
    vector = b.ndim == 1
    n = fact.packed.shape[0]
    X = (b[:, None] if vector else b)[list(fact.perm)]
    lu = fact.packed
    for k in range(1, n):  # forward substitution, unit lower triangle
        X[k] -= lu[k, :k] @ X[:k]
    for k in range(n - 1, -1, -1):  # back substitution
        if k + 1 < n:
            X[k] -= lu[k, k + 1:] @ X[k + 1:]
        X[k] /= lu[k, k]
    return X[:, 0] if vector else X


def positive(den, what):
    """``den`` if it is positive, else ValueError: a check that ``python -O`` keeps."""
    if not den > 0.0:
        raise ValueError(f"reference {what} is not positive: {den!r}")
    return den


def pairwise_terms(d, rs, rows, cap=math.inf):
    """The library's pairwise terms before they became one broadcast grid.

    Flattened ordered pairs i != j in ``rows``, row-major, as (d_i, d_j,
    rs_i, min(cap, d_i d_j - rs_i rs_j)); a denominator that is not positive
    and finite raises ``DenominatorError`` naming both rows of its pair.
    """
    rows = np.asarray(rows, dtype=np.intp)
    i, j = np.nonzero(~np.eye(len(rows), dtype=bool))
    di, dj, ri = d[rows[i]], d[rows[j]], rs[rows[i]]
    with np.errstate(over="ignore", invalid="ignore"):
        den = np.minimum(cap, di * dj - ri * rs[rows[j]])
    bad = ~((den > 0.0) & (den < math.inf))  # NaN included
    if bad.any():
        raise DenominatorError("pairwise denominator |a_ii||a_jj| - R_i R_j",
                               np.concatenate([rows[i][bad], rows[j][bad]]))
    return di, dj, ri, den


def pairwise_max(d, rs, rows):
    best = 0.0
    for i in rows:
        for j in rows:
            if i == j:
                continue
            den = positive(d[i] * d[j] - rs[i] * rs[j], "pairwise denominator")
            best = max(best, (d[j] + rs[i]) / den)
    return best


def restricted_schur_value(A, S, prefactor_margins):
    _, off, d = abs_off(A)
    n = A.shape[0]
    Sset = set(S)
    sbar = [i for i in range(n) if i not in Sset]
    rs = off[:, list(S)].sum(axis=1)
    if len(S) == 1:
        phi = 1.0 / d[S[0]]
    else:
        phi = pairwise_max(d, rs, list(S))
    psi = None
    if sbar:
        psi = 0.0
        for i in sbar:
            den = positive(d[i] - off[i, sbar].sum()
                           - (off[i, list(S)] / d[list(S)]) @ prefactor_margins[list(S)],
                           "restricted margin")
            psi = max(psi, (1.0 + phi * rs[i]) / den)
    prefactor = 1.0 + float((prefactor_margins[list(S)] / d[list(S)]).max())
    best = phi if psi is None else max(phi, psi)
    return prefactor * best, phi, psi


def epsilon_pieces(off, d, part, rs):
    """The epsilon-independent pieces of the SDD1 epsilon bound, row by row.

    Each row sum is that row's own ``sum()``.  The two products with the
    ratio vectors are the same ``np.ix_`` gemv as in the library: a gemv
    does not round as per-row dots do, and its rounding is what this
    reference pins.
    """
    n1, n2 = list(part.n1), list(part.n2)
    R, P = part.row_sums, part.p_values
    ratio = P[n2] / d[n2]
    coupling = off[np.ix_(n1, n2)] @ ratio
    h0 = np.array([d[i] - off[i, n1].sum() - coupling[k] for k, i in enumerate(n1)])
    g = np.array([d[i] - rs[i] for i in n2])
    q0 = off[np.ix_(n2, n2)] @ ((R[n2] - P[n2]) / d[n2])
    return h0, rs[n1], g, q0, float(ratio.max())


def epsilon_value(pieces, eps):
    h0, rs1, g, q0, max_ratio = pieces[:5]
    den = positive(min((h0 - eps * rs1).min(), (eps * g + q0).min()), "epsilon denominator")
    return max(1.0, max_ratio + eps) / den


def epsilon_sup(d, P, rs):
    sup = math.inf
    for i in range(len(d)):
        if rs[i] > 0.0:
            sup = min(sup, (d[i] - P[i]) / rs[i])
    return sup


def _golden_min(f, a, b, width):
    c = b - _INV_PHI * (b - a)
    d_ = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d_)
    while b - a > width:
        if fc < fd:
            b, d_, fd = d_, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d_, fd
            d_ = a + _INV_PHI * (b - a)
            fd = f(d_)
    return (a + b) / 2.0


def sdd1_epsilon_bound(A):
    """The automatic-epsilon SDD1 bound by grid and golden section, one point at a time.

    The library's exact minimum must be at most this value, up to rounding.
    """
    A = as_matrix(A)
    part = dominance_partition(A)
    _, off, d = abs_off(A)
    n2, P = list(part.n2), part.p_values
    rs = off[:, n2].sum(axis=1)
    pieces = epsilon_pieces(off, d, part, rs)
    sup = epsilon_sup(d, P, rs)
    finite_sup = sup
    if not math.isfinite(finite_sup):
        finite_sup = max(1.0, 2.0 * (1.0 - (P[n2] / d[n2]).max()))
    lo = finite_sup * EPSILON_GRID_MARGIN
    hi = finite_sup * (1.0 - EPSILON_GRID_MARGIN)
    grid = np.linspace(lo, hi, EPSILON_GRID_POINTS)
    values = [epsilon_value(pieces, e) for e in grid]
    k = int(np.argmin(values))
    a = grid[max(0, k - 1)]
    b = grid[min(len(grid) - 1, k + 1)]
    eps = _golden_min(lambda e: epsilon_value(pieces, e), a, b, EPSILON_REFINE_WIDTH)
    refined = epsilon_value(pieces, eps)
    if refined > values[k]:
        eps, refined = float(grid[k]), values[k]
    params = {"epsilon": float(eps), "interval_sup": float(sup), "auto": True}
    return BoundCertificate(FORMULA_SDD1_EPSILON, float(refined), params)


def b1_split(M):
    M = _checked(M)
    masked = np.array(M)
    np.fill_diagonal(masked, -np.inf)
    r = np.maximum(0.0, masked.max(axis=1))
    c = np.tile(r[:, None], (1, M.shape[0]))
    with np.errstate(over="ignore"):
        a = M - c
    if not np.isfinite(a).all():
        raise ValidationError("the shift part M - c overflows")
    return B1Split(a=_frozen(a), c=c, r=r)


def lcp_b1_bound(M):
    M = as_matrix(M)
    n = M.shape[0]
    split = b1_split(M)
    a = split.a
    part = dominance_partition(a)
    _, off, d = abs_off(a)
    n1, n2 = list(part.n1), list(part.n2)
    P = part.p_values
    rs = off[:, n2].sum(axis=1)
    if len(n2) == 1:
        phi = max(1.0, 1.0 / d[n2[0]])
    else:
        phi = 0.0
        for i in n2:
            for j in n2:
                if i == j:
                    continue
                num = max(1.0, d[j]) + rs[i]
                den = positive(min(1.0, d[i], d[j], d[i] * d[j] - rs[i] * rs[j]),
                               "pairwise denominator")
                phi = max(phi, num / den)
    psi = None
    if n1:
        psi = 0.0
        for i in n1:
            inner = positive(d[i] - off[i, n1].sum() - (off[i, n2] / d[n2]) @ P[n2],
                             "restricted margin")
            psi = max(psi, (1.0 + phi * rs[i]) / min(1.0, inner))
    zero_shift = bool((split.r == 0.0).all())
    coefficient = 1 if zero_shift else n - 1
    prefactor = 1.0 + float((P[n2] / d[n2]).max())
    best = phi if psi is None else max(phi, psi)
    params = {
        "coefficient": coefficient,
        "zero_shift": zero_shift,
        "phi": float(phi),
        "psi": None if psi is None else float(psi),
        "prefactor": prefactor,
    }
    if psi is None:
        params["reason"] = "n1 empty"
    return BoundCertificate(FORMULA_LCP_B1, float(coefficient * prefactor * best), params)


def certified_bound_proper_subset(A, alpha):
    A = as_matrix(A)
    bar = tuple(j for j in range(A.shape[0]) if j not in set(alpha))
    part = dominance_partition(A)
    _, off, d = abs_off(A)
    n1 = list(part.n1)
    n2 = list(part.n2)
    n1set, n2set = set(n1), set(n2)
    w = np.zeros(A.shape[0])
    w[n2] = part.row_sums[n2] / d[n2]
    n2_rest = [j for j in n2 if j not in set(alpha)]
    rn1 = off[:, n1].sum(axis=1)
    qn2 = off[:, n2] @ w[n2]
    out = {}
    for jt in bar:
        base = d[jt] - rn1[jt] - off[jt, n2_rest] @ w[n2_rest]
        coupling = 0.0
        for h in alpha:
            if off[jt, h] == 0.0:
                continue
            r_part = rn1[h] + (off[h, jt] if jt not in n1set else 0.0)
            q_part = qn2[h] - (off[h, jt] * w[jt] if jt in n2set else 0.0)
            coupling += off[jt, h] / d[h] * (r_part + q_part)
        out[jt] = float(base - coupling)
    return out


def certified_bound_alpha_equals_n2(A):
    A = as_matrix(A)
    part = dominance_partition(A)
    _, off, d = abs_off(A)
    n1 = list(part.n1)
    n2 = list(part.n2)
    out = {}
    for jt in n1:
        coupling = (off[jt, n2] / d[n2]) @ part.p_values[n2]
        out[jt] = float(d[jt] - off[jt, n1].sum() - coupling)
    return out


def certified_bound_superset(A, alpha):
    A = as_matrix(A)
    bar = tuple(j for j in range(A.shape[0]) if j not in set(alpha))
    part = dominance_partition(A)
    _, off, d = abs_off(A)
    out = {}
    bar_list = list(bar)
    for jt in bar:
        coupling = (off[jt, list(alpha)] / d[list(alpha)]) @ part.p_values[list(alpha)]
        out[jt] = float(d[jt] - off[jt, bar_list].sum() - coupling)
    return out


def schur_complement(A, alpha):
    """One complement the way every call once built it: validated inputs,
    ``np.ix_`` blocks, the pivot block factored by ``lu_factor_blocked`` (the
    plain loop up to ``LU_BLOCK``) and solved by the 2-D ``lu_solve`` above,
    both partitions and the comparison inverse each from scratch, and the
    per-row margin loops above.

    Returns (complement, alpha_bar, tilde_n1, tilde_n2, delta, certified, kind).
    """
    A = as_matrix(A)
    n = A.shape[0]
    alpha = tuple(sorted(int(a) for a in alpha))
    bar = tuple(j for j in range(n) if j not in set(alpha))
    labels = tuple(a + 1 for a in alpha)
    try:
        fact = lu_factor_blocked(A[np.ix_(alpha, alpha)])
    except SingularMatrixError as exc:
        raise SingularBlockError(f"pivot block {labels} is singular", column=exc.column) from exc
    coupling = lu_solve(fact, A[np.ix_(alpha, bar)])
    comp = A[np.ix_(bar, bar)] - A[np.ix_(bar, alpha)] @ coupling
    if not np.isfinite(comp).all():
        raise ValidationError(f"complement A/alpha for alpha {labels} has non-finite entries")
    cpart = dominance_partition(comp)
    part = dominance_partition(A)
    delta = None
    try:
        inv_comp = inverse(comparison_matrix(A[np.ix_(alpha, alpha)]))
    except SingularMatrixError:
        inv_comp = None
    if inv_comp is not None and (inv_comp >= -INVERSE_NONNEG_TOL).all():
        _, off, _ = abs_off(A)
        delta = off[np.ix_(bar, alpha)] @ np.maximum(inv_comp, 0.0) @ off[np.ix_(alpha, bar)]
    certified, kind = None, None
    if is_sdd1(A):
        aset, n2set = set(alpha), set(part.n2)
        if aset < n2set:
            certified, kind = certified_bound_proper_subset(A, alpha), "sdd1_degree"
        elif aset == n2set and part.n1:
            certified, kind = certified_bound_alpha_equals_n2(A), "sdd_degree"
        elif n2set < aset:
            certified, kind = certified_bound_superset(A, alpha), "sdd_degree"
    tilde_n1 = tuple(bar[t] for t in cpart.n1)
    tilde_n2 = tuple(bar[t] for t in cpart.n2)
    return comp, bar, tilde_n1, tilde_n2, delta, certified, kind


def quotient_formula_check(A, beta, gamma):
    """A/beta against (A/gamma)/(A(beta)/gamma), each complement by ``schur_complement`` above."""
    A = as_matrix(A)
    direct = schur_complement(A, beta)[0]
    outer, remaining = schur_complement(A, gamma)[:2]
    inner = [remaining.index(j) for j in sorted(beta) if j not in set(gamma)]
    nested = schur_complement(outer, inner)[0]
    return bool(np.abs(direct - nested).max() <= ENTRYWISE_RTOL * inf_norm(A))


def huang_bracket(A):
    """Huang's bracket as two loops over the positions of A's n1 + n2: (lower, upper,
    factors, x, theta), with ``factors`` and ``x`` in that dominance order.

    ``A`` may come in any row order; it must be SDD1, with theta defined.
    """
    A = as_matrix(A)
    n = A.shape[0]
    part = dominance_partition(A)
    absA, off, d = abs_off(A)
    R, P = part.row_sums, part.p_values
    n2, p = list(part.n2), list(part.n1 + part.n2)
    rs = off[:, n2].sum(axis=1)
    theta = min((d[j] - P[j]) / rs[j] for j in part.n1 if rs[j] > 0.0)
    x = np.ones(n)
    x[n2] = theta + R[n2] / d[n2]
    lower_f = np.array([d[i] - (absA[i, p[t + 1:]] * x[p[t + 1:]]).sum() / x[i]
                        for t, i in enumerate(p)])
    upper_f = np.array([d[i] + (absA[i, p[t + 1:]] * x[p[t + 1:]]).sum() / x[i]
                        for t, i in enumerate(p)])
    lower = float(np.prod(lower_f)) if (lower_f >= 0).all() else 0.0
    return lower, float(np.prod(upper_f)), np.column_stack([lower_f, upper_f]), x[p], float(theta)


def dominance_bracket(A):
    """The dominance-ratio bracket as two loops over the positions of A's n1 + n2:
    (lower, upper, factors, y), with ``factors`` and ``y`` in that dominance order."""
    A = as_matrix(A)
    n = A.shape[0]
    part = dominance_partition(A)
    absA, _, d = abs_off(A)
    y = np.empty(n)
    n1, n2 = list(part.n1), list(part.n2)
    p = n1 + n2
    y[n1] = part.p_values[n1] / d[n1]
    y[n2] = part.row_sums[n2] / d[n2]
    lower_f = np.array([d[i] - (absA[i, p[t + 1:]] * y[p[t + 1:]]).sum() for t, i in enumerate(p)])
    upper_f = np.array([d[i] + (absA[i, p[t + 1:]] * y[p[t + 1:]]).sum() for t, i in enumerate(p)])
    return float(np.prod(lower_f)), float(np.prod(upper_f)), np.column_stack([lower_f, upper_f]), y[p]


def minor_sign(A):
    """Sign of det(A) from ``lu_factor``'s pivots: sign times the pivots' signs, 0.0 if singular."""
    try:
        fact = lu_factor(A)
    except SingularMatrixError:
        return 0.0
    return float(fact.sign * np.prod(np.sign(fact.packed.diagonal())))


def is_p_matrix(A):
    """Size-ordered scan of every principal minor's sign, one factorization each."""
    A = as_matrix(A)
    n = A.shape[0]
    if (A.diagonal() <= 0).any():
        return False
    for size in range(2, n + 1):
        for rows in itertools.combinations(range(n), size):
            if minor_sign(A[np.ix_(rows, rows)]) <= 0.0:
                return False
    return True


def find_s_sdd1_witness(A):
    """Search for a subset S of n2 making the matrix S-restricted dominant.

    Exhaustive over subsets, largest cardinality first, lexicographically
    first winner reported.  Guarded to |n2| <= 15.
    """
    part = dominance_partition(A)
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


def is_h_matrix(A):
    """The comparison matrix inverted whole: True iff <A>^{-1} exists and is
    nonnegative up to ``INVERSE_NONNEG_TOL``."""
    try:
        inv = inverse(comparison_matrix(A))
    except SingularMatrixError:
        return False
    return bool((inv >= -INVERSE_NONNEG_TOL).all())


def scaled(M, dvec):
    return np.diag(1.0 - dvec) + dvec[:, None] * M


def sampled_norms(M, sample_count, seed, bound):
    """Per-sample draws, ``inf_norm(inverse(...))`` norms and violation count."""
    M = as_matrix(M)
    n = M.shape[0]
    d_samples = np.empty((sample_count, n))
    exact = np.empty(sample_count)
    for k in range(sample_count):
        dvec = np.random.default_rng([seed, k]).random(n)
        d_samples[k] = dvec
        exact[k] = inf_norm(inverse(scaled(M, dvec)))
    return d_samples, exact, int((exact > bound + VIOLATION_TOL).sum())


def corner_norms(M):
    """Per-corner ``inf_norm(inverse(...))`` over D in {0,1}^n, in bit order."""
    M = as_matrix(M)
    n = M.shape[0]
    out = np.empty(2**n)
    for bits in range(2**n):
        dvec = np.array([(bits >> i) & 1 for i in range(n)], dtype=float)
        out[bits] = inf_norm(inverse(scaled(M, dvec)))
    return out
