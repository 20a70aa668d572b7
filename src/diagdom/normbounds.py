"""Upper bounds on the infinity norm of the inverse.

Four routes, each returned as a ``BoundCertificate``:

- ``sdd_pairwise_bound``: the classical pairwise bound for strictly
  diagonally dominant matrices;
- ``sdd1_epsilon_bound``: the epsilon-parameterized bound for SDD1 matrices,
  with an optional automatic choice of epsilon;
- ``sdd1_schur_bound``: the elimination-based SDD1 bound built from the
  dominant-block pairwise bound (phi) and the certified dominance of the
  eliminated complement (psi);
- ``s_sdd1_schur_bound``: the same architecture restricted to a witness
  subset S of the dominant rows.

Every bound uses only entries of the original matrix.
"""

from __future__ import annotations

import math

import numpy as np

from .certificates import (
    FORMULA_S_SDD1_SCHUR,
    FORMULA_SDD1_EPSILON,
    FORMULA_SDD1_SCHUR,
    FORMULA_SDD_PAIRWISE,
    BoundCertificate,
)
from .classify import _require_sdd1, _s_sdd1_margins, _validate_witness
from .core import dominance_partition
from .errors import DenominatorError, HypothesisError, ParameterError
from .oracle import inf_norm, inverse
from .schur import _eliminated_margins

__all__ = [
    "s_sdd1_schur_bound",
    "sdd1_epsilon_bound",
    "sdd1_schur_bound",
    "sdd_pairwise_bound",
    "with_exact_norm",
]

EPSILON_GRID_POINTS = 256
EPSILON_GRID_MARGIN = 1e-6   # relative margin keeping the grid inside the open interval
EPSILON_REFINE_WIDTH = 1e-10  # golden-section stopping width
EPSILON_SCALAR_MAX = 128      # largest order refined on Python floats (measured crossover:
                              # one probe costs about 15 us either way at order 128, 2-CPU VM)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def with_exact_norm(cert: BoundCertificate, A) -> BoundCertificate:
    """Attach the oracle value ||A^{-1}||_inf to a certificate."""
    return cert.with_exact(inf_norm(inverse(A)))


def _pairwise_terms(d, rs, rows, cap=math.inf):
    """Flattened ordered pairs i != j in ``rows``: (d_i, d_j, rs_i, min(cap, d_i d_j - rs_i rs_j)).

    ``cap`` is 1.0 for the LCP bound and infinity (no cap) for the norm
    bounds.  Each capped denominator must be positive and finite: a product
    d_i d_j that overflows to inf would make an uncapped term vanish.
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


def _pairwise_max(d, rs, rows):
    """max over ordered pairs i != j in ``rows`` of (d_j + rs_i) / (d_i d_j - rs_i rs_j)."""
    _, dj, ri, den = _pairwise_terms(d, rs, rows)
    return np.max((dj + ri) / den, initial=0.0)


def sdd_pairwise_bound(A) -> BoundCertificate:
    """Classical pairwise bound for SDD matrices of order at least 2."""
    return _sdd_pairwise(dominance_partition(A))


def _sdd_pairwise(part) -> BoundCertificate:
    if part.n < 2:
        raise HypothesisError("order < 2", "the pairwise bound needs at least two rows")
    if part.n1:
        raise HypothesisError("matrix is not SDD", "the pairwise bound requires strict dominance")
    value = _pairwise_max(part.diag, part.row_sums, range(part.n))
    return BoundCertificate(FORMULA_SDD_PAIRWISE, float(value))


def _epsilon_sup(d, P, rs):
    """Supremum of admissible epsilon; rows without dominant-column mass impose nothing."""
    pos = rs > 0.0
    return np.min((d[pos] - P[pos]) / rs[pos], initial=math.inf)


def _epsilon_pieces(part, rs):
    """Precompute the epsilon-independent pieces; the bound is rational in eps.

    For non-dominant rows the denominator term is ``h0 - eps * rs``; for
    dominant rows it is ``eps * g + q0``.  The zeroed diagonal of ``off``
    makes the j != i exclusions automatic.  The last piece holds the rows of
    n1 and n2, which the terms follow, to name them if a term fails.
    """
    off, d, R, P = part.off, part.diag, part.row_sums, part.p_values
    n1, n2 = list(part.n1), list(part.n2)
    ratio = P[n2] / d[n2]
    h0 = d[n1] - off[np.ix_(n1, n1)].sum(axis=1) - off[np.ix_(n1, n2)] @ ratio
    g = d[n2] - rs[n2]
    q0 = off[np.ix_(n2, n2)] @ ((R[n2] - P[n2]) / d[n2])
    return h0, rs[n1], g, q0, float(ratio.max()), (part.n1, part.n2)


def _epsilon_value(pieces, eps):
    """The bound at ``eps``, a scalar or a 1-D array of points evaluated at once."""
    h0, rs1, g, q0, max_ratio, _ = pieces
    den = np.minimum((h0 - np.multiply.outer(eps, rs1)).min(axis=-1),
                     (np.multiply.outer(eps, g) + q0).min(axis=-1))
    if not (den > 0.0).all():
        raise _epsilon_denominator_error(pieces, eps)
    return np.maximum(1.0, max_ratio + eps) / den


def _epsilon_value_floats(pieces, eps):
    """``_epsilon_value`` at one point on Python floats, with the same IEEE operations."""
    h0, rs1, g, q0, max_ratio, _ = pieces
    den = min(min([h - eps * r for h, r in zip(h0, rs1)]),
              min([eps * gi + qi for gi, qi in zip(g, q0)]))
    if not den > 0.0:
        raise _epsilon_denominator_error(pieces, eps)
    return max(1.0, max_ratio + eps) / den


def _epsilon_denominator_error(pieces, eps):
    """The ``DenominatorError`` naming every row whose epsilon term is not positive at ``eps``.

    On the admissible interval every term is positive in exact arithmetic;
    only underflow, overflow or rounding at a dominance tie can break one.
    """
    h0, rs1, g, q0, _, (n1, n2) = pieces
    eps = np.atleast_1d(eps)[:, None]
    bad1 = ~(np.asarray(h0) - eps * np.asarray(rs1) > 0.0).all(axis=0)
    bad2 = ~(eps * np.asarray(g) + np.asarray(q0) > 0.0).all(axis=0)
    rows = [i for i, bad in zip(n1, bad1) if bad] + [j for j, bad in zip(n2, bad2) if bad]
    return DenominatorError("epsilon denominator", rows)


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


def sdd1_epsilon_bound(A, epsilon=None) -> BoundCertificate:
    """Epsilon-parameterized SDD1 bound.

    With ``epsilon`` given, evaluates the bound at that value after checking
    it sits strictly inside the admissible open interval.  Without it, a
    256-point grid over the interval (with a tiny relative margin) followed
    by golden-section refinement picks a minimizer; the bound is continuous
    in epsilon but not guaranteed unimodal, so grid-then-refine is the robust
    route.  Up to order ``EPSILON_SCALAR_MAX`` the refinement evaluates the
    bound on Python floats, with the IEEE operations of the array evaluator,
    so the result is the same bit for bit.  The chosen epsilon and the
    interval supremum are recorded in the certificate parameters.
    """
    part = dominance_partition(A)
    _require_sdd1(part)
    if not part.n1 or not part.n2:
        raise HypothesisError(
            "n1 or n2 is empty",
            "the epsilon bound mixes terms over both partition sides",
        )
    d, P, n2 = part.diag, part.p_values, list(part.n2)
    rs = part.off[:, n2].sum(axis=1)
    pieces = _epsilon_pieces(part, rs)

    sup = _epsilon_sup(d, P, rs)
    finite_sup = sup
    if not math.isfinite(finite_sup):
        # No row constrains epsilon; cap the search where the numerator's
        # max{1, .} branch has clearly switched to growth.
        finite_sup = max(1.0, 2.0 * (1.0 - (P[n2] / d[n2]).max()))

    if epsilon is not None:
        eps = float(epsilon)
        if not 0.0 < eps < sup:
            raise ParameterError(
                f"epsilon {eps} outside the admissible open interval (0, {sup})"
            )
        value = _epsilon_value(pieces, eps)
        params = {"epsilon": eps, "interval_sup": float(sup), "auto": False}
        return BoundCertificate(FORMULA_SDD1_EPSILON, float(value), params)

    lo = finite_sup * EPSILON_GRID_MARGIN
    hi = finite_sup * (1.0 - EPSILON_GRID_MARGIN)
    grid = np.linspace(lo, hi, EPSILON_GRID_POINTS)
    values = _epsilon_value(pieces, grid)
    k = int(np.argmin(values))
    a = grid[max(0, k - 1)]
    b = grid[min(len(grid) - 1, k + 1)]
    evaluate, at = _epsilon_value, pieces
    if part.n <= EPSILON_SCALAR_MAX:
        evaluate, at = _epsilon_value_floats, (*(p.tolist() for p in pieces[:4]), *pieces[4:])
        a, b = float(a), float(b)
    eps = _golden_min(lambda e: evaluate(at, e), a, b, EPSILON_REFINE_WIDTH)
    refined = evaluate(at, eps)
    if refined > values[k]:
        eps, refined = float(grid[k]), values[k]
    params = {"epsilon": float(eps), "interval_sup": float(sup), "auto": True}
    return BoundCertificate(FORMULA_SDD1_EPSILON, float(refined), params)


def _restricted_schur_value(part, S, margins):
    """Shared arithmetic of the elimination-based bounds.

    ``S`` is the dominant block to keep (a list of indices), and
    ``margins[i]`` must equal R^{Sbar}_i + Q^S_i for i in S.
    Returns (value, phi, psi); psi is None when S covers every row.
    """
    d = part.diag
    S = np.asarray(S, dtype=np.intp)
    rs = part.off[:, S].sum(axis=1)
    phi = 1.0 / d[S[0]] if len(S) == 1 else _pairwise_max(d, rs, S)
    prefactor, best, psi = _schur_tail(part, S, margins, rs, phi, math.inf)
    return prefactor * best, phi, psi


def _schur_tail(part, S, margins, rs, phi, cap):
    """The eliminated-row term psi and the prefactor shared by every Schur bound.

    psi is the max over rows i outside ``S`` of (1 + phi R^S_i) / min(cap, e_i),
    where e_i is ``schur._eliminated_margins`` with m = ``margins``, and
    ``cap`` is 1.0 for the LCP bound and infinity (no cap) for the norm
    bounds.  Returns (prefactor, max(phi, psi), psi); psi is None when S
    covers every row.
    """
    sbar = np.delete(np.arange(part.n), S)
    psi = None
    if len(sbar):
        den = _eliminated_margins(part, S, sbar, margins)
        bad = ~(den > 0.0)  # positive under the S-dominance hypothesis
        if bad.any():
            raise DenominatorError("restricted margin of an eliminated row", sbar[bad])
        psi = np.max((1.0 + phi * rs[sbar]) / np.minimum(cap, den))
    prefactor = 1.0 + float((margins[S] / part.diag[S]).max())
    return prefactor, phi if psi is None else max(phi, psi), psi


def sdd1_schur_bound(A) -> BoundCertificate:
    """Elimination-based bound for SDD1 matrices.

    When the non-dominant set is empty the matrix is plainly SDD and the max
    over an empty row set is undefined; the operation then substitutes the
    pairwise SDD bound and records the substitution instead of inventing a
    value.  A single-row dominant set replaces the pairwise term by the
    reciprocal of its diagonal modulus.
    """
    part = dominance_partition(A)
    _require_sdd1(part)
    if not part.n1:
        sub = _sdd_pairwise(part)
        params = {"substituted_formula": FORMULA_SDD_PAIRWISE, "reason": "n1 empty"}
        return BoundCertificate(FORMULA_SDD1_SCHUR, sub.value, params)
    # P_i coincides with R^{n1}_i + Q^{n2}_i, the margins the shared core needs.
    value, phi, psi = _restricted_schur_value(part, list(part.n2), part.p_values)
    params = {"phi": float(phi), "psi": float(psi), "s": [int(i) for i in part.n2]}
    return BoundCertificate(FORMULA_SDD1_SCHUR, float(value), params)


def s_sdd1_schur_bound(A, S) -> BoundCertificate:
    """Witness-restricted elimination bound.

    ``S`` must make the matrix S-restricted dominant and contain at least two
    rows.  With ``S`` equal to the full dominant set this is arithmetic-for-
    arithmetic the same computation as ``sdd1_schur_bound``.
    """
    part = dominance_partition(A)
    S = _validate_witness(part, S)
    if len(S) < 2:
        raise HypothesisError(
            "|S| < 2",
            "the witness-restricted bound needs at least a pair inside S",
        )
    margins = _s_sdd1_margins(part, S)
    if not (margins > 0).all():
        raise HypothesisError(
            "matrix is not S-SDD1 for this witness",
            "every row must satisfy |a_ii| - R^{Sbar}_i - Q^S_i > 0",
        )
    # margins == d - (R^{Sbar} + Q^S); recover the prefactor ingredient.
    value, phi, psi = _restricted_schur_value(part, list(S), part.diag - margins)
    params = {"phi": float(phi), "s": [int(i) for i in S]}
    if psi is None:
        params["psi"] = None
        params["reason"] = "S complement empty"
    else:
        params["psi"] = float(psi)
    return BoundCertificate(FORMULA_S_SDD1_SCHUR, float(value), params)
