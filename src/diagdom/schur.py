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

from dataclasses import dataclass, field

import numpy as np

from .classify import _is_sdd1, _require_sdd1
from .core import (
    _LOCK,
    IndexPartition,
    _checked,
    _eliminated_margins,
    as_index_set,
    as_matrix,
    dominance_partition,
)
from .errors import HypothesisError, SingularBlockError, SingularMatrixError, ValidationError
from .oracle import LuFactorization, _factorize, _m_matrix_witness, inf_norm, inverse, lu_solve

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
    pivot block is an H-matrix; it is built on first read, and until then
    the result holds the partition of A.  The result also holds the pivot
    block's factorization, which the ``schur`` subcommand reads its
    determinant from.  ``certified_lower_bounds`` maps
    original row labels to certified dominance lower bounds when a regime
    applies; ``certified_kind`` says which margin is bounded ("sdd1_degree"
    for |a'_tt| - P_t, "sdd_degree" for |a'_tt| - R_t).
    """

    complement: np.ndarray
    alpha: tuple[int, ...]
    alpha_bar: tuple[int, ...]
    tilde_n1: tuple[int, ...]
    tilde_n2: tuple[int, ...]
    certified_lower_bounds: dict[int, float] | None
    certified_kind: str | None
    _a_partition: IndexPartition | None = field(default=None, repr=False, compare=False)
    _block_factorization: LuFactorization | None = field(default=None, repr=False, compare=False)
    _delta: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.complement.setflags(write=False)

    @property
    def delta(self) -> np.ndarray | None:
        with _LOCK:
            if self._a_partition is not None:
                delta = _coupling_radii(self._a_partition, self.alpha, self.alpha_bar)
                object.__setattr__(self, "_delta", delta)
                object.__setattr__(self, "_a_partition", None)  # delta was all it was kept for
            return self._delta


def _coupling_radii(part, alpha, bar):
    """A/alpha's read-only ``delta`` from A's partition; None unless A(alpha) is an H-matrix."""
    ia, ib = np.asarray(alpha, dtype=np.intp), np.asarray(bar, dtype=np.intp)
    comparison = -part.off[ia[:, None], ia]  # <A(alpha)> from the moduli of the partition
    np.fill_diagonal(comparison, part.diag[ia])
    if _m_matrix_witness(comparison) is None:  # the test of ``h_scaling``
        return None
    try:
        inv_comp = inverse(comparison)
    except SingularMatrixError:
        return None
    # Rounding may leave tiny negatives in an M-matrix inverse; clamping
    # them up only widens the radii, keeping the entry sandwich valid.
    delta = part.off[ib[:, None], ia] @ np.maximum(inv_comp, 0.0) @ part.off[ia[:, None], ib]
    delta.setflags(write=False)
    return delta


def _validate_alpha(A, alpha):
    """A as a shared matrix, its partition, and alpha and its complement validated."""
    A = as_matrix(A)
    n = A.shape[0]
    alpha = as_index_set(alpha, n, allow_empty=True, name="alpha")
    if not alpha or len(alpha) >= n:
        raise ValidationError("alpha must be a nonempty proper subset of the row indices")
    return A, dominance_partition(A), alpha, _rest(n, alpha)


def _rest(n, alpha):
    """The indices of 0..n-1 outside ``alpha``, in increasing order."""
    alpha_set = set(alpha)
    return tuple(j for j in range(n) if j not in alpha_set)


def schur_complement(A, alpha) -> SchurResult:
    """Eliminate the rows/columns in ``alpha`` and report the residual block.

    Raises ``SingularBlockError`` when the pivot block cannot be factored,
    ``ValidationError`` for empty or full ``alpha`` and for a complement with
    non-finite entries.  The regime-specific certified bounds are attached
    when their hypotheses hold, otherwise left as ``None``.
    """
    A, part, alpha, bar = _validate_alpha(A, alpha)
    comp, cpart, fact = _analysed_complement(A, alpha, bar)
    certified, kind = _certified_dispatch(part, alpha, bar)
    return SchurResult(
        complement=comp,
        alpha=alpha,
        alpha_bar=bar,
        tilde_n1=tuple(bar[t] for t in cpart.n1),
        tilde_n2=tuple(bar[t] for t in cpart.n2),
        certified_lower_bounds=certified,
        certified_kind=kind,
        _a_partition=part,
        _block_factorization=fact,
    )


def _analysed_complement(A, alpha, bar):
    """A/alpha as a shared read-only matrix and its partition, both left in the memo, and
    the factorization of A(alpha)."""
    comp, fact = _complement(A, alpha, bar)
    comp = as_matrix(comp)
    return comp, dominance_partition(comp), fact


def _complement(A, alpha, bar):
    """A/alpha of a validated matrix and the factorization of A(alpha); ValidationError if
    A/alpha is not finite; nothing warns."""
    ia, ib = np.asarray(alpha, dtype=np.intp), np.asarray(bar, dtype=np.intp)
    labels = tuple(a + 1 for a in alpha)
    with np.errstate(all="ignore"):
        try:
            fact = _factorize(A[ia[:, None], ia])  # finite, and never looked up: no record
        except SingularMatrixError as exc:
            raise SingularBlockError(f"pivot block {labels} is singular", column=exc.column) from exc
        comp = A[ib[:, None], ib] - A[ib[:, None], ia] @ lu_solve(fact, A[ia[:, None], ib])
    if not np.isfinite(comp).all():
        raise ValidationError(f"complement A/alpha for alpha {labels} has non-finite entries")
    return comp, fact


def _certified_dispatch(part, alpha, bar):
    """The certified lower bounds keyed by row and their kind, or (None, None)."""
    if not _is_sdd1(part):
        return None, None
    aset, n2set = set(alpha), set(part.n2)
    if aset < n2set:
        return _proper_subset_margins(part, alpha, bar), "sdd1_degree"
    if n2set <= aset:  # alpha = n2 leaves bar = n1, nonempty as alpha is proper
        margins = _eliminated_margins(part, alpha, bar, part.p_values)
        return dict(zip(bar, margins.tolist())), "sdd_degree"
    return None, None


def _proper_subset_margins(part, alpha, bar):
    """Certified |a'_tt| - P_t(A/alpha) lower bounds for alpha strictly inside n2.

    Whole-array over the rows t; the coupling is accumulated over h in alpha
    in order, and C-ordered gathers make each row round as its own ``@``.
    """
    off, d, rn1, qn2 = part.off, part.diag, part.r_n1, part.q_n2  # R^{n1}, Q^{n2}, every row
    n1, n2 = list(part.n1), list(part.n2)
    w = np.zeros(part.n)
    w[n2] = part.row_sums[n2] / d[n2]
    alpha_set = set(alpha)
    n2_rest = np.array([j for j in n2 if j not in alpha_set], dtype=np.intp)
    ia, ib = np.asarray(alpha, dtype=np.intp), np.asarray(bar, dtype=np.intp)
    in_n1 = np.zeros(part.n, dtype=bool)
    in_n1[n1] = True

    base = d[ib] - rn1[ib] - (off[ib[:, None], n2_rest][:, None, :] @ w[n2_rest])[:, 0]
    o_th = off[ib[:, None], ia]        # |a_th|, rows t in bar, columns h in alpha
    o_ht = off[ia[:, None], ib].T      # |a_ht| in the same layout
    r_part = rn1[ia] + np.where(in_n1[ib, None], 0.0, o_ht)
    q_part = qn2[ia] - o_ht * w[ib, None]
    terms = np.where(o_th == 0.0, 0.0, o_th / d[ia] * (r_part + q_part))
    coupling = np.add.accumulate(terms, axis=1)[:, -1]  # sequential over h, never pairwise
    return dict(zip(bar, (base - coupling).tolist()))


def certified_bound_proper_subset(A, alpha) -> dict[int, float]:
    """Certified lower bounds on |a'_tt| - P_t(A/alpha) for alpha inside n2.

    Requires the matrix to be SDD1 and alpha to be a nonempty proper subset
    of the dominant set.  The returned value for each surviving row ``jt``
    uses only original entries and is sandwiched between the original margin
    |a_jt,jt| - P_jt (positive) and the exact complement margin.
    """
    A, part, alpha, bar = _validate_alpha(A, alpha)
    _require_sdd1(part)
    if not set(alpha) < set(part.n2):
        raise HypothesisError(
            "alpha is not a proper subset of n2",
            "this regime needs alpha strictly inside the dominant row set",
        )
    return _proper_subset_margins(part, alpha, bar)


def certified_bound_alpha_equals_n2(A) -> dict[int, float]:
    """Certified lower bounds on |a'_tt| - R_t(A/n2): the complement is SDD."""
    part = dominance_partition(A)
    _require_sdd1(part)
    if not part.n1:
        raise HypothesisError(
            "n1 is empty",
            "eliminating the dominant set needs a nonempty non-dominant set "
            "(strictly dominant input already has a classical SDD closure)",
        )
    return _certified_dispatch(part, part.n2, part.n1)[0]


def certified_bound_superset(A, alpha) -> dict[int, float]:
    """Certified lower bounds on |a'_tt| - R_t(A/alpha) for alpha beyond n2."""
    A, part, alpha, bar = _validate_alpha(A, alpha)
    _require_sdd1(part)
    if not set(part.n2) < set(alpha):
        raise HypothesisError(
            "alpha does not strictly contain n2",
            "this regime needs n2 strictly inside alpha, alpha strictly inside N",
        )
    return _certified_dispatch(part, alpha, bar)[0]


def tilde_set_identity_check(A, alpha) -> bool:
    """Verify the three set relations tying the complement's partition to the original.

    For alpha a nonempty proper subset of n2: n2 minus alpha stays dominant,
    the complement's non-dominant set shrinks into n1, and the two
    differences coincide.  The relations need only the pivot block to sit
    inside the dominant set, not full SDD1 membership.
    """
    A, part, alpha, bar = _validate_alpha(A, alpha)
    if not set(alpha) < set(part.n2):
        raise HypothesisError(
            "alpha is not a proper subset of n2",
            "the set identities hold for alpha strictly inside the dominant set",
        )
    cpart = _analysed_complement(A, alpha, bar)[1]
    t1, t2 = {bar[t] for t in cpart.n1}, {bar[t] for t in cpart.n2}
    n1, n2 = set(part.n1), set(part.n2)
    survived = n2 - set(alpha)
    return survived <= t2 and t1 <= n1 and (n1 - t1) == (t2 - survived)


def quotient_formula_check(A, beta, gamma) -> bool:
    """Check A/beta == (A/gamma)/(A(beta)/gamma) entrywise.

    ``gamma`` must be a strict nonempty subset of ``beta``, itself strict in
    the full index set.  Equality is judged at ``ENTRYWISE_RTOL`` times the
    infinity norm of A.
    """
    A = _checked(A)
    n = A.shape[0]
    beta = as_index_set(beta, n, name="beta")
    gamma = as_index_set(gamma, n, name="gamma")
    beta_set = set(beta)
    if not set(gamma) < beta_set or len(beta) >= n:
        raise ValidationError("need gamma strictly inside beta strictly inside the index set")

    direct = _complement(A, beta, _rest(n, beta))[0]
    # A(beta)/gamma sits at the positions of beta \ gamma inside A/gamma.
    remaining = _rest(n, gamma)
    inner = tuple(t for t, j in enumerate(remaining) if j in beta_set)
    outer = _complement(A, gamma, remaining)[0]
    nested = _complement(outer, inner, _rest(len(remaining), inner))[0]

    tol = ENTRYWISE_RTOL * inf_norm(A)
    return bool(np.abs(direct - nested).max() <= tol)
