"""Schur complements with certified dominance lower bounds.

The complement A/alpha = A(bar) - A(bar, alpha) A(alpha)^{-1} A(alpha, bar) is
computed exactly (through a pivoted factorization of the alpha block), while
the certified per-row lower bounds use only entries of the original matrix:
no inverse of the pivot block ever enters the certified path.  Three regimes
are covered, keyed by how alpha sits relative to the dominant set n2:

- alpha a proper nonempty subset of n2: lower bounds on |a'_tt| - P_t(A/alpha)
  (the complement stays SDD1 with no weaker margins than the original rows);
- alpha equal to n2: lower bounds on |a'_tt| - R_t(A/alpha) (the complement
  is strictly diagonally dominant);
- alpha strictly between n2 and the full index set: again lower bounds on
  |a'_tt| - R_t(A/alpha).

All per-row outputs are dictionaries keyed by original row index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import _require_sdd1, is_sdd1
from .core import as_index_set, as_matrix, dominance_partition
from .errors import HypothesisError, SingularBlockError, SingularMatrixError, ValidationError
from .oracle import _comparison_inverse, inf_norm, lu_factor, lu_solve

__all__ = [
    "SchurResult",
    "certified_bound_alpha_equals_n2",
    "certified_bound_proper_subset",
    "certified_bound_superset",
    "quotient_formula_check",
    "schur_complement",
    "tilde_set_identity_check",
]

# One configuration knob for numerical identity checks.
ENTRYWISE_RTOL = 1e-9  # scaled by the matrix infinity norm for entrywise equality
SCALAR_RTOL = 1e-8     # relative tolerance for scalar identities


@dataclass(frozen=True)
class SchurResult:
    """A computed complement together with its index bookkeeping.

    ``alpha_bar`` lists the surviving original indices in increasing order;
    row/column ``t`` of ``complement`` corresponds to ``alpha_bar[t]``.
    ``tilde_n1``/``tilde_n2`` are the complement's non-dominant/dominant sets
    expressed in original row labels.  ``delta`` is the coupling-radius
    matrix |a_{t,alpha}| <A(alpha)>^{-1} |a_{alpha,u}|, present only when the
    pivot block is an H-matrix.  ``certified_lower_bounds`` maps original row
    labels to certified dominance lower bounds when a regime applies;
    ``certified_kind`` says which margin is bounded ("sdd1_degree" for
    |a'_tt| - P_t, "sdd_degree" for |a'_tt| - R_t).
    """

    complement: np.ndarray
    alpha: tuple[int, ...]
    alpha_bar: tuple[int, ...]
    tilde_n1: tuple[int, ...]
    tilde_n2: tuple[int, ...]
    delta: np.ndarray | None
    certified_lower_bounds: dict[int, float] | None
    certified_kind: str | None

    def __post_init__(self):
        self.complement.setflags(write=False)
        if self.delta is not None:
            self.delta.setflags(write=False)


def _validate_alpha(A, alpha):
    A = as_matrix(A)
    n = A.shape[0]
    alpha = as_index_set(alpha, n, allow_empty=True, name="alpha")
    if not alpha or len(alpha) >= n:
        raise ValidationError("alpha must be a nonempty proper subset of the row indices")
    alpha_set = set(alpha)
    bar = tuple(j for j in range(n) if j not in alpha_set)
    return A, alpha, bar


def schur_complement(A, alpha) -> SchurResult:
    """Eliminate the rows/columns in ``alpha`` and report the residual block.

    Raises ``SingularBlockError`` when the pivot block cannot be factored and
    ``ValidationError`` for empty or full ``alpha``.  The regime-specific
    certified bounds are attached when their hypotheses hold, otherwise left
    as ``None``.
    """
    A, alpha, bar = _validate_alpha(A, alpha)
    block = A[np.ix_(alpha, alpha)]
    try:
        fact = lu_factor(block)
    except SingularMatrixError as exc:
        raise SingularBlockError(
            f"pivot block {tuple(a + 1 for a in alpha)} is singular", column=exc.column
        ) from exc
    coupling = lu_solve(fact, A[np.ix_(alpha, bar)])
    comp = A[np.ix_(bar, bar)] - A[np.ix_(bar, alpha)] @ coupling

    cpart = dominance_partition(comp)
    tilde_n1 = tuple(bar[t] for t in cpart.n1)
    tilde_n2 = tuple(bar[t] for t in cpart.n2)

    part = dominance_partition(A)
    delta = None
    inv_comp = _comparison_inverse(block)
    if inv_comp is not None:  # the pivot block is an H-matrix
        # Rounding may leave tiny negatives in an M-matrix inverse; clamping
        # them up only widens the radii, keeping the entry sandwich valid.
        inv_comp = np.maximum(inv_comp, 0.0)
        delta = part.off[np.ix_(bar, alpha)] @ inv_comp @ part.off[np.ix_(alpha, bar)]

    certified, kind = _certified_dispatch(A, part, alpha, bar)
    return SchurResult(
        complement=comp,
        alpha=alpha,
        alpha_bar=bar,
        tilde_n1=tilde_n1,
        tilde_n2=tilde_n2,
        delta=delta,
        certified_lower_bounds=certified,
        certified_kind=kind,
    )


def _certified_dispatch(A, part, alpha, bar):
    if not is_sdd1(A, part):
        return None, None
    aset, n2set = set(alpha), set(part.n2)
    if aset < n2set:
        return _proper_subset_margins(part, alpha, bar), "sdd1_degree"
    if aset == n2set and part.n1:
        return _eliminated_margins(part, part.n2, part.n1), "sdd_degree"
    if n2set < aset:
        return _eliminated_margins(part, alpha, bar), "sdd_degree"
    return None, None


def _proper_subset_margins(part, alpha, bar):
    """Certified |a'_tt| - P_t(A/alpha) lower bounds for alpha strictly inside n2."""
    off, d = part.off, part.diag
    n1 = list(part.n1)
    n2 = list(part.n2)
    n1set, n2set = set(n1), set(n2)
    w = np.zeros(part.n)
    w[n2] = part.row_sums[n2] / d[n2]
    alpha_set = set(alpha)
    n2_rest = np.array([j for j in n2 if j not in alpha_set], dtype=np.intp)
    w_rest = w[n2_rest]
    rn1 = off[:, n1].sum(axis=1)       # R^{n1}_h for every row
    qn2 = off[:, n2] @ w[n2]           # Q^{n2}_h for every row

    out = {}
    for jt in bar:
        base = d[jt] - rn1[jt] - off[jt, n2_rest] @ w_rest
        coupling = 0.0
        for h in alpha:
            if off[jt, h] == 0.0:
                continue
            r_part = rn1[h] + (off[h, jt] if jt not in n1set else 0.0)
            q_part = qn2[h] - (off[h, jt] * w[jt] if jt in n2set else 0.0)
            coupling += off[jt, h] / d[h] * (r_part + q_part)
        out[jt] = float(base - coupling)
    return out


def _eliminated_margins(part, alpha, bar):
    """Certified |a'_tt| - R_t(A/alpha) lower bounds for alpha containing n2.

    Row t gets |a_tt| - R^{bar}_t - sum over h in alpha of |a_th| P_h / |a_hh|.
    """
    off, d = part.off, part.diag
    alpha_idx = np.asarray(alpha, dtype=np.intp)
    bar_idx = np.asarray(bar, dtype=np.intp)
    d_alpha, p_alpha = d[alpha_idx], part.p_values[alpha_idx]
    out = {}
    for jt in bar:
        coupling = (off[jt, alpha_idx] / d_alpha) @ p_alpha
        out[jt] = float(d[jt] - off[jt, bar_idx].sum() - coupling)
    return out


def certified_bound_proper_subset(A, alpha) -> dict[int, float]:
    """Certified lower bounds on |a'_tt| - P_t(A/alpha) for alpha inside n2.

    Requires the matrix to be SDD1 and alpha to be a nonempty proper subset
    of the dominant set.  The returned value for each surviving row ``jt``
    uses only original entries and is sandwiched between the original margin
    |a_jt,jt| - P_jt (positive) and the exact complement margin.
    """
    A, alpha, bar = _validate_alpha(A, alpha)
    part = dominance_partition(A)
    _require_sdd1(A, part)
    if not set(alpha) < set(part.n2):
        raise HypothesisError(
            "alpha is not a proper subset of n2",
            "this regime needs alpha strictly inside the dominant row set",
        )
    return _proper_subset_margins(part, alpha, bar)


def certified_bound_alpha_equals_n2(A) -> dict[int, float]:
    """Certified lower bounds on |a'_tt| - R_t(A/n2): the complement is SDD."""
    part = dominance_partition(A)
    _require_sdd1(A, part)
    if not part.n1:
        raise HypothesisError(
            "n1 is empty",
            "eliminating the dominant set needs a nonempty non-dominant set "
            "(strictly dominant input already has a classical SDD closure)",
        )
    if not part.n2:
        raise HypothesisError("n2 is empty", "there is no dominant set to eliminate")
    return _eliminated_margins(part, part.n2, part.n1)


def certified_bound_superset(A, alpha) -> dict[int, float]:
    """Certified lower bounds on |a'_tt| - R_t(A/alpha) for alpha beyond n2."""
    A, alpha, bar = _validate_alpha(A, alpha)
    part = dominance_partition(A)
    _require_sdd1(A, part)
    if not set(part.n2) < set(alpha):
        raise HypothesisError(
            "alpha does not strictly contain n2",
            "this regime needs n2 strictly inside alpha, alpha strictly inside N",
        )
    return _eliminated_margins(part, alpha, bar)


def tilde_set_identity_check(A, alpha) -> bool:
    """Verify the three set relations tying the complement's partition to the original.

    For alpha a nonempty proper subset of n2: n2 minus alpha stays dominant,
    the complement's non-dominant set shrinks into n1, and the two
    differences coincide.  The relations need only the pivot block to sit
    inside the dominant set, not full SDD1 membership.
    """
    A, alpha, _ = _validate_alpha(A, alpha)
    part = dominance_partition(A)
    if not set(alpha) < set(part.n2):
        raise HypothesisError(
            "alpha is not a proper subset of n2",
            "the set identities hold for alpha strictly inside the dominant set",
        )
    res = schur_complement(A, alpha)
    n1, n2 = set(part.n1), set(part.n2)
    t1, t2 = set(res.tilde_n1), set(res.tilde_n2)
    survived = n2 - set(alpha)
    return survived <= t2 and t1 <= n1 and (n1 - t1) == (t2 - survived)


def quotient_formula_check(A, beta, gamma) -> bool:
    """Check A/beta == (A/gamma)/(A(beta)/gamma) entrywise.

    ``gamma`` must be a strict nonempty subset of ``beta``, itself strict in
    the full index set.  Equality is judged at ``ENTRYWISE_RTOL`` times the
    infinity norm of A.
    """
    A = as_matrix(A)
    n = A.shape[0]
    beta = as_index_set(beta, n, name="beta")
    gamma = as_index_set(gamma, n, name="gamma")
    if not set(gamma) < set(beta) or len(beta) >= n:
        raise ValidationError("need gamma strictly inside beta strictly inside the index set")

    direct = schur_complement(A, beta).complement

    outer = schur_complement(A, gamma)
    # Positions of beta \ gamma inside the outer complement's index list.
    remaining = outer.alpha_bar
    gamma_set = set(gamma)
    inner_alpha = [remaining.index(j) for j in beta if j not in gamma_set]
    nested = schur_complement(outer.complement, inner_alpha).complement

    tol = ENTRYWISE_RTOL * inf_norm(A)
    return bool(np.abs(direct - nested).max() <= tol)
