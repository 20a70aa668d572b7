"""Upper bounds on the infinity norm of the inverse.

Four routes, each returned as a ``BoundCertificate``:

- ``sdd_pairwise_bound``: the classical pairwise bound for strictly
  diagonally dominant matrices;
- ``sdd1_epsilon_bound``: the epsilon-parameterized bound for SDD1 matrices,
  at a given epsilon or minimized exactly over it;
- ``sdd1_schur_bound``: the elimination-based SDD1 bound built from the
  dominant-block pairwise bound (phi) and the certified dominance of the
  eliminated complement (psi);
- ``s_sdd1_schur_bound``: the same architecture restricted to a witness
  subset S of the dominant rows; with S = n2 it is ``sdd1_schur_bound``.

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
from .classify import _require_sdd1, _restricted_sums, _validate_witness
from .core import _eliminated_margins, dominance_partition
from .errors import DenominatorError, HypothesisError, ParameterError
from .oracle import inf_norm, inverse

__all__ = [
    "s_sdd1_schur_bound",
    "sdd1_epsilon_bound",
    "sdd1_schur_bound",
    "sdd_pairwise_bound",
    "with_exact_norm",
]


def with_exact_norm(cert: BoundCertificate, A) -> BoundCertificate:
    """Attach the oracle value ||A^{-1}||_inf to a certificate."""
    return cert.with_exact(inf_norm(inverse(A)))


def _pairwise_terms(d, rs, rows, cap=math.inf):
    """Over ``rows`` S: d_S, rs_S, the |S| x |S| grid of min(cap, d_i d_j - rs_i rs_j) and
    the mask of its pairs i != j, the only entries a caller may read.

    ``cap`` is 1.0 for the LCP bound and infinity (no cap) for the norm
    bounds.  Each capped denominator must be positive and finite: a product
    d_i d_j that overflows to inf would make an uncapped term vanish.  The
    grid's diagonal is set to inf, so quotients over it stay quiet.
    """
    rows = np.asarray(rows, dtype=np.intp)
    d_S, rs_S = d[rows], rs[rows]
    pairs = ~np.eye(len(rows), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        den = np.minimum(cap, d_S[:, None] * d_S - rs_S[:, None] * rs_S)
    bad = pairs & ~((den > 0.0) & (den < math.inf))  # NaN included
    if bad.any():
        i, j = bad.nonzero()
        raise DenominatorError("pairwise denominator |a_ii||a_jj| - R_i R_j",
                               np.concatenate([rows[i], rows[j]]))
    np.fill_diagonal(den, math.inf)
    return d_S, rs_S, den, pairs


def _pairwise_max(d, rs, rows):
    """max over ordered pairs i != j in ``rows`` of (d_j + rs_i) / (d_i d_j - rs_i rs_j)."""
    d_S, rs_S, den, pairs = _pairwise_terms(d, rs, rows)
    return np.max((d_S + rs_S[:, None]) / den, initial=0.0, where=pairs)


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


def _epsilon_pieces(part):
    """Precompute the epsilon-independent pieces; the bound is rational in eps.

    For non-dominant rows the denominator term is ``h0 - eps * rs``; for
    dominant rows it is ``eps * g + q0``.  The zeroed diagonal of ``off``
    makes the j != i exclusions automatic.  The last piece holds the rows of
    n1 and n2, which the terms follow, to name them if a term fails.
    """
    off, d, R, P, rs = part.off, part.diag, part.row_sums, part.p_values, part.r_n2
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
    with np.errstate(over="ignore"):  # an overflowing point is inf; see _epsilon_overflow_error
        return np.maximum(1.0, max_ratio + eps) / den


def _epsilon_denominator_error(pieces, eps):
    """The ``DenominatorError`` naming every row whose epsilon term is not positive at ``eps``.

    On the admissible interval every term is positive in exact arithmetic;
    only underflow, overflow or rounding at a dominance tie can break one.
    """
    h0, rs1, g, q0, _, (n1, n2) = pieces
    eps = np.atleast_1d(eps)[:, None]
    bad1 = ~(h0 - eps * rs1 > 0.0).all(axis=0)
    bad2 = ~(eps * g + q0 > 0.0).all(axis=0)
    rows = [i for i, bad in zip(n1, bad1) if bad] + [j for j, bad in zip(n2, bad2) if bad]
    return DenominatorError("epsilon denominator", rows)


def _epsilon_overflow_error(pieces, eps):
    """The ``DenominatorError`` for a bound that overflowed at ``eps``, naming every row
    whose term is the least, the denominator D the quotient overflowed on."""
    h0, rs1, g, q0, _, (n1, n2) = pieces
    t1, t2 = h0 - eps * rs1, eps * g + q0
    least = min(t1.min(), t2.min())
    rows = [i for i, t in zip(n1, t1) if t == least] + [j for j, t in zip(n2, t2) if t == least]
    return DenominatorError("epsilon bound max(1, m + eps) / D over its least term D", rows)


def _envelope_breakpoints(b, s):
    """Every eps > 0 where the lower envelope of the lines b + eps * s changes line.

    A line can be lowest at some eps >= 0 only if its intercept is below that
    of every line with a smaller slope.  The lines kept have strictly rising
    slopes and falling intercepts, and one monotone-chain pass over them,
    from the line lowest at 0, keeps those on the envelope.
    """
    order = np.lexsort((b, s))
    b, s = b[order], s[order]
    keep = np.ones(len(b), dtype=bool)
    keep[1:] = b[1:] < np.minimum.accumulate(b)[:-1]

    def takeover(p, q):  # where line q = (intercept, slope) takes over from line p
        return (q[0] - p[0]) / (p[1] - q[1])

    hull = []
    for line in zip(b[keep][::-1].tolist(), s[keep][::-1].tolist()):
        while len(hull) > 1 and takeover(hull[-1], line) <= takeover(hull[-2], hull[-1]):
            hull.pop()
        hull.append(line)
    return [takeover(p, q) for p, q in zip(hull, hull[1:])]


def sdd1_epsilon_bound(A, epsilon=None) -> BoundCertificate:
    """Epsilon-parameterized SDD1 bound.

    With ``epsilon`` given, evaluates the bound there after checking it
    sits strictly inside the admissible open interval (0, sup).  Without
    it, minimizes the bound exactly over that interval.

    The bound is N/D with N(eps) = max(1, m + eps), convex, and D(eps) the
    minimum of the lines h0_i - eps * rs_i (i in n1) and eps * g_j + q0_j
    (j in n2), concave and positive.  So it is quasiconvex (Boyd and
    Vandenberghe, *Convex Optimization*, 2004, section 3.4), and between
    the breakpoints of D and the kink eps = 1 - m it is linear-fractional,
    hence monotone.  The candidates are the breakpoints of D's lower
    envelope in (0, sup), the kink, and the floats next to each end; the
    smallest value wins, and ``minimizer`` records which kind:
    ``"breakpoint"``, ``"kink"``, ``"interval_start"`` or ``"interval_end"``.

    A value that overflows to inf (at the chosen or the given eps) raises
    ``DenominatorError`` naming the rows whose term is the least there.

    An end counts only where the bound stays finite.  As eps -> 0+ it tends
    to max(1, m) / min(min h0, min q0), so the start needs every q0_j > 0.
    For the row i setting sup, h0_i - sup * rs_i >= 0 is an equality when
    P_j = R_j on its n2 columns, so next to sup its term can round to zero:
    then there is no end candidate.

    In exact arithmetic sup is finite: a row i in n1 has |a_ii| <= R_i and
    |a_ii| > P_i, so R_i - P_i = sum_{j in n2} |a_ij| (1 - R_j / |a_jj|) > 0
    and rs_i > 0.  Only rounding admits an n1 row without n2 mass; when
    every n1 row is one, sup is infinite, the bound grows without limit in
    eps, and again there is no end candidate.
    """
    part = dominance_partition(A)
    _require_sdd1(part)
    if not part.n1 or not part.n2:
        raise HypothesisError(
            "n1 or n2 is empty",
            "the epsilon bound mixes terms over both partition sides",
        )
    pieces = _epsilon_pieces(part)
    h0, rs1, g, q0, max_ratio, _ = pieces
    sup = float(_epsilon_sup(part.diag, part.p_values, part.r_n2))

    if epsilon is not None:
        eps = float(epsilon)
        if not 0.0 < eps < sup:
            raise ParameterError(
                f"epsilon {eps} outside the admissible open interval (0, {sup})"
            )
        value = float(_epsilon_value(pieces, eps))
        if value == math.inf:
            raise _epsilon_overflow_error(pieces, eps)
        params = {"epsilon": eps, "interval_sup": sup, "auto": False}
        return BoundCertificate(FORMULA_SDD1_EPSILON, value, params)

    lines = np.concatenate([h0, q0]), np.concatenate([-rs1, g])
    candidates = [(e, "breakpoint") for e in _envelope_breakpoints(*lines) if e < sup]
    if 1.0 - max_ratio < sup:
        candidates.append((1.0 - max_ratio, "kink"))
    if q0.min() > 0.0:
        candidates.append((math.nextafter(0.0, 1.0), "interval_start"))
    end = math.nextafter(sup, 0.0)
    if sup < math.inf and (h0 - end * rs1).min() > 0.0:
        candidates.append((end, "interval_end"))
    eps = np.array([e for e, _ in candidates])
    values = _epsilon_value(pieces, eps)
    k = int(np.argmin(values))  # a losing candidate may have overflowed
    if values[k] == math.inf:
        raise _epsilon_overflow_error(pieces, float(eps[k]))
    params = {"epsilon": float(eps[k]), "interval_sup": sup, "auto": True,
              "minimizer": candidates[k][1]}
    return BoundCertificate(FORMULA_SDD1_EPSILON, float(values[k]), params)


def _restricted_schur_bound(formula, part, S, sums) -> BoundCertificate:
    """The certificate of the elimination-based bound that keeps the dominant block ``S``.

    ``sums`` is ``classify._restricted_sums(part, S)``: R^S and
    R^{Sbar} + Q^S for every row.  Parameters phi, psi and s; psi is None,
    with its reason, when S covers every row.
    """
    rs, margins = sums
    d = part.diag
    S = np.asarray(S, dtype=np.intp)
    phi = 1.0 / d[S[0]] if len(S) == 1 else _pairwise_max(d, rs, S)
    prefactor, best, psi = _schur_tail(part, S, margins, rs, phi, math.inf)
    params = {"phi": float(phi), "psi": None if psi is None else float(psi),
              "s": [int(i) for i in S]}
    if psi is None:
        params["reason"] = "S complement empty"
    return BoundCertificate(formula, float(prefactor * best), params)


def _schur_tail(part, S, margins, rs, phi, cap):
    """The eliminated-row term psi and the prefactor shared by every Schur bound.

    psi is the max over rows i outside ``S`` of (1 + phi R^S_i) / min(cap, e_i),
    where e_i is ``core._eliminated_margins`` with m = ``margins``, and
    ``cap`` is 1.0 for the LCP bound and infinity (no cap) for the norm
    bounds.  Returns (prefactor, max(phi, psi), psi); psi is None when S
    covers every row.  A term that overflows raises ``DenominatorError``
    naming its rows instead of returning a vacuous infinite bound.
    """
    sbar = np.delete(np.arange(part.n), S)
    psi = None
    if len(sbar):
        den = _eliminated_margins(part, S, sbar, margins)
        bad = ~(den > 0.0)  # positive under the S-dominance hypothesis
        if bad.any():
            raise DenominatorError("restricted margin of an eliminated row", sbar[bad])
        with np.errstate(over="ignore", invalid="ignore"):
            terms = (1.0 + phi * rs[sbar]) / np.minimum(cap, den)
        bad = ~(terms < math.inf)  # NaN included
        if bad.any():
            raise DenominatorError("eliminated-row term (1 + phi R^S_i) / min(cap, e_i)",
                                   sbar[bad])
        psi = np.max(terms)
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
    return _restricted_schur_bound(FORMULA_SDD1_SCHUR, part, part.n2,
                                   _restricted_sums(part, part.n2))


def s_sdd1_schur_bound(A, S) -> BoundCertificate:
    """Witness-restricted elimination bound.

    ``S`` must contain at least two rows and make the matrix S-SDD1:
    |a_ii| > R^{Sbar}_i + Q^S_i for every row.  With ``S`` equal to the full
    dominant set this is ``sdd1_schur_bound``, bit for bit.
    """
    part = dominance_partition(A)
    S = _validate_witness(part, S)
    if len(S) < 2:
        raise HypothesisError(
            "|S| < 2",
            "the witness-restricted bound needs at least a pair inside S",
        )
    sums = _restricted_sums(part, S)
    if not (part.diag > sums[1]).all():
        raise HypothesisError(
            "matrix is not S-SDD1 for this witness",
            "every row must satisfy |a_ii| > R^{Sbar}_i + Q^S_i",
        )
    return _restricted_schur_bound(FORMULA_S_SDD1_SCHUR, part, S, sums)
