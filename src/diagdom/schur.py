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

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .classify import _is_sdd1, _require_sdd1
from .core import (
    IndexPartition,
    _adopt,
    _build_partition,
    _build_partitions,
    _checked,
    _eliminated_margins,
    _frozen,
    _keep,
    _record,
    as_index_set,
    dominance_partition,
)
from .errors import HypothesisError, SingularBlockError, SingularMatrixError, ValidationError
from .oracle import (
    _chunk_length,
    _factor_stack,
    _m_matrix_witness,
    _substitute,
    inf_norm,
    inverse,
)

__all__ = [
    "SchurResult",
    "certified_bound_alpha_equals_n2",
    "certified_bound_proper_subset",
    "certified_bound_superset",
    "quotient_formula_check",
    "schur_complement",
    "tilde_set_identity_check",
]

# Tolerances of the numerical identity checks.
ENTRYWISE_RTOL = 1e-9  # quotient_formula_check's entrywise equality, times the infinity norm of A
SCALAR_RTOL = 1e-8     # the ``schur`` subcommand's determinant identity, times max(1, |det A|)


@dataclass(frozen=True)
class SchurResult:
    """A computed complement together with its index bookkeeping.

    ``alpha_bar`` lists the surviving original indices in increasing order;
    row/column ``t`` of ``complement`` corresponds to ``alpha_bar[t]``.
    ``tilde_n1``/``tilde_n2`` are the complement's non-dominant/dominant sets
    expressed in original row labels.  ``delta`` is the coupling-radius
    matrix |a_{t,alpha}| <A(alpha)>^{-1} |a_{alpha,u}|, present only when the
    pivot block is an H-matrix; it is built on first read, and until then
    the result holds the partition of A.  Every field has the bits of
    computing alpha alone, whether the result came from alpha's family or
    not (see ``schur_complement``).
    ``certified_lower_bounds`` maps original row labels to certified
    dominance lower bounds when a regime applies; ``certified_kind`` says
    which margin is bounded ("sdd1_degree" for |a'_tt| - P_t, "sdd_degree"
    for |a'_tt| - R_t).
    """

    complement: np.ndarray
    alpha: tuple[int, ...]
    alpha_bar: tuple[int, ...]
    tilde_n1: tuple[int, ...]
    tilde_n2: tuple[int, ...]
    certified_lower_bounds: dict[int, float] | None
    certified_kind: str | None
    _a_partition: IndexPartition | None = field(default=None, repr=False, compare=False)
    _delta: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.complement.setflags(write=False)

    @property
    def delta(self) -> np.ndarray | None:
        if (part := self._a_partition) is not None:  # read first: _delta is set before release
            _keep(self, "_delta", (_coupling_radii(part, self.alpha, self.alpha_bar),))
            object.__setattr__(self, "_a_partition", None)  # delta was all it was kept for
        return self._delta[0]


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
    """A's record, its partition, and alpha validated."""
    rec = _record(A)
    n = rec.matrix.shape[0]
    alpha = as_index_set(alpha, n, allow_empty=True, name="alpha")
    if not alpha or len(alpha) >= n:
        raise ValidationError("alpha must be a nonempty proper subset of the row indices")
    return rec, rec.result("partition", _build_partition), alpha


def _rest(n, alpha):
    """The indices of 0..n-1 outside ``alpha``, in increasing order."""
    alpha_set = set(alpha)
    return tuple(j for j in range(n) if j not in alpha_set)


def schur_complement(A, alpha) -> SchurResult:
    """Eliminate the rows/columns in ``alpha`` and report the residual block.

    Complements come in families, computed together in one stacked pass and
    kept in A's record in the memo, so that a call for another member is
    answered from the record.  The family of an alpha strictly inside n2 is
    every subset of n2 of its size, in ``itertools.combinations`` order; of
    an alpha containing n2, every n2 + E with E a subset of n1 of size
    |alpha| - |n2|.  A family is swept whole only if its members fit one
    stacked chunk, ``oracle._chunk_length(max(|alpha|, n - |alpha|))`` of
    them, so no array of the pass holds more than
    ``oracle.STACK_CHUNK_ENTRIES`` entries.  Any other alpha, a family of
    one, and the first complement asked of a record are computed alone: a
    matrix asked for one complement pays for one.  A record keeps the last
    sweep it made, of one member or of a family, so an alpha computed alone
    replaces the kept family: asked between two members of a family, it makes
    the second member sweep the family again.  Likewise a record's first
    complement is its first sweep whether or not alpha has a family, and the
    next family asked is swept whole.  A sweep holds every member's result,
    each complement with its partition, so asking again for any member is a
    lookup.  Every result has the bits of computing its alpha alone.

    Raises ``SingularBlockError`` when the pivot block cannot be factored,
    ``ValidationError`` for empty or full ``alpha`` and for a complement with
    non-finite entries; each only for the alpha it concerns, never for
    another member of its family, and nothing warns.  The regime-specific
    certified bounds are attached when their hypotheses hold, otherwise left
    as ``None``.  The complement is left in the memo with its partition.
    """
    rec, part, alpha = _validate_alpha(A, alpha)
    kept = rec.family
    if kept is None or alpha not in kept:
        members = None if kept is None else _family(part, alpha)
        sweep = _sweep(rec.matrix, [alpha] if members is None else list(members), part)
        kept = _keep(rec, "family", sweep, lambda kept: kept is None or alpha not in kept)
    member = kept[alpha]
    if callable(member):
        raise member()
    res, cpart = member
    _adopt(res.complement, cpart)
    return res


def _family(part, alpha):
    """An iterator over the members of alpha's family, or None when alpha is computed alone."""
    n2, s = part.n2, len(alpha)
    if set(alpha) < set(n2):
        count, members = math.comb(len(n2), s), itertools.combinations(n2, s)
    elif set(n2) <= set(alpha):
        extra = s - len(n2)
        count = math.comb(len(part.n1), extra)
        members = (tuple(sorted(n2 + e)) for e in itertools.combinations(part.n1, extra))
    else:
        return None
    return members if 1 < count <= _chunk_length(max(s, part.n - s)) else None


def _complements(A, alphas):
    """One stacked pass over m pivot sets of one size, in increasing order, of a validated A.

    Returns the (m, |alpha|) alphas and (m, |bar|) bars as index arrays, each bar
    in increasing order, the complements A/alpha as an (m, |bar|, |bar|) stack,
    and per member None or a factory of its own ``SingularBlockError`` or
    ``ValidationError``, so every raise is a fresh exception.  One path for any m
    and block order: ``oracle._factor_stack`` factors the blocks,
    ``oracle._substitute`` solves A(alpha, bar), gathered once in pivot order,
    and one stacked product forms the complements; each member gets the bits of
    computing it alone, and nothing warns.
    """
    ia = np.array(alphas, dtype=np.intp)
    m, members = len(alphas), np.arange(len(alphas))[:, None]
    outside = np.ones((m, A.shape[0]), dtype=bool)
    outside[members, ia] = False
    ib = outside.nonzero()[1].reshape(m, -1)  # each member's bar, in increasing order
    with np.errstate(all="ignore"):
        packed, perm, _, failed = _factor_stack(A[ia[:, :, None], ia[:, None, :]])
        X = _substitute(packed, A[ia[members, perm][:, :, None], ib[:, None, :]])
        comps = A[ib[:, :, None], ib[:, None, :]] - A[ib[:, :, None], ia[:, None, :]] @ X
    finite = np.isfinite(comps).all(axis=(1, 2)).tolist()
    return ia, ib, comps, [_error(alpha, column, ok)
                           for alpha, column, ok in zip(alphas, failed.tolist(), finite)]


def _error(alpha, column, finite):
    """None, or a factory of the error of A/alpha: its pivot block singular in ``column``
    (-1 if none), or the complement not ``finite``."""
    labels = tuple(a + 1 for a in alpha)
    if column >= 0:
        return functools.partial(SingularBlockError, f"pivot block {labels} is singular",
                                 column=column)
    if not finite:
        return functools.partial(
            ValidationError, f"complement A/alpha for alpha {labels} has non-finite entries")
    return None


def _sweep(A, alphas, part):
    """{alpha: (SchurResult, complement partition), or its error factory} for the members of
    one ``_complements`` pass of the validated A, whose partition is ``part``.

    Each result holds a read-only copy of its complement, partitioned by
    ``_build_partition`` for one member, by one stacked ``_build_partitions`` for more,
    and its certified margins, (m, |bar|), and their kind.  Everything is built here, so
    the sweep never changes once it is returned.
    """
    ia, ib, comps, errors = _complements(A, alphas)
    with np.errstate(all="ignore"):  # one member's margins may overflow; that must not warn
        margins, kind = _certified(part, ia, ib)
    if len(alphas) > 1:
        parts = _build_partitions(comps)
    else:
        parts = [None if errors[0] else _build_partition(comps[0])]
    bars = ib.tolist()
    rows = [None] * len(bars) if margins is None else margins.tolist()
    return {alpha: error or (SchurResult(
        complement=_frozen(comp),
        alpha=alpha,
        alpha_bar=tuple(bar),
        tilde_n1=tuple(bar[t] for t in cpart.n1),
        tilde_n2=tuple(bar[t] for t in cpart.n2),
        certified_lower_bounds=None if row is None else dict(zip(bar, row)),
        certified_kind=kind,
        _a_partition=part,
    ), cpart) for alpha, bar, comp, cpart, row, error
        in zip(alphas, bars, comps, parts, rows, errors)}


def _alone(A, alpha):
    """A/alpha of the validated A, computed alone and not recorded; or its error."""
    _, _, comps, (error,) = _complements(A, [alpha])
    if error:
        raise error()
    return comps[0]


def _certified_rows(part, alpha, bar):
    """A/alpha's certified margins, keyed by original row label, as ``_certified`` gives them."""
    return dict(zip(bar, _certified(part, np.array([alpha]), np.array([bar]))[0][0].tolist()))


def _certified(part, ia, ib):
    """The certified margins of a sweep's (m, |alpha|) alphas and (m, |bar|) bars, one row
    per member, and their kind; or (None, None)."""
    if not _is_sdd1(part):
        return None, None
    aset, n2set = set(ia[0].tolist()), set(part.n2)
    if aset < n2set:
        return _proper_subset_margins(part, ia, ib), "sdd1_degree"
    if n2set <= aset:  # alpha = n2 leaves bar = n1, nonempty as alpha is proper
        return _eliminated_margins(part, ia, ib, part.p_values), "sdd_degree"
    return None, None


def _proper_subset_margins(part, ia, ib):
    """Certified |a'_tt| - P_t(A/alpha) lower bounds for alphas strictly inside n2: one row
    per member of the (m, |alpha|) alphas and their (m, |bar|) bars, one column per t.

    Whole-array over the members and rows t; the coupling is accumulated over
    h in alpha in order, and C-ordered gathers make each row round as its own ``@``.
    """
    off, d, rn1, qn2 = part.off, part.diag, part.r_n1, part.q_n2  # R^{n1}, Q^{n2}, every row
    n2 = list(part.n2)
    in_n2 = np.zeros(part.n, dtype=bool)
    in_n2[n2] = True
    w = np.zeros(part.n)
    w[n2] = part.row_sums[n2] / d[n2]
    rest = ib[in_n2[ib]].reshape(len(ib), -1)  # n2 outside alpha: the rows of bar in n2
    rows, cols = ib[:, :, None], ia[:, None, :]

    rest_dot = off[rows, rest[:, None, :]][:, :, None, :] @ w[rest][:, None, :, None]
    base = d[ib] - rn1[ib] - rest_dot[:, :, 0, 0]
    o_th = off[rows, cols]  # |a_th|, rows t in bar, columns h in alpha
    o_ht = off[cols, rows]  # |a_ht| in the same layout
    r_part = rn1[ia][:, None, :] + np.where(in_n2[rows], o_ht, 0.0)
    q_part = qn2[ia][:, None, :] - o_ht * w[rows]
    terms = np.where(o_th == 0.0, 0.0, o_th / d[cols] * (r_part + q_part))
    coupling = np.add.accumulate(terms, axis=2)[:, :, -1]  # sequential over h, never pairwise
    return base - coupling


def certified_bound_proper_subset(A, alpha) -> dict[int, float]:
    """Certified lower bounds on |a'_tt| - P_t(A/alpha) for alpha inside n2.

    Requires the matrix to be SDD1 and alpha to be a nonempty proper subset of the
    dominant set.  The returned value for each surviving row ``jt`` uses only original
    entries and is sandwiched between the original margin |a_jt,jt| - P_jt (positive)
    and the exact complement margin.  ``_certified`` is the one regime-to-margin table.
    """
    part, alpha = _validate_alpha(A, alpha)[1:]
    _require_sdd1(part)
    if not set(alpha) < set(part.n2):
        raise HypothesisError(
            "alpha is not a proper subset of n2",
            "this regime needs alpha strictly inside the dominant row set",
        )
    return _certified_rows(part, alpha, _rest(part.n, alpha))


def certified_bound_alpha_equals_n2(A) -> dict[int, float]:
    """Certified lower bounds on |a'_tt| - R_t(A/n2): the complement is SDD (``_certified``)."""
    part = dominance_partition(A)
    _require_sdd1(part)
    if not part.n1:
        raise HypothesisError(
            "n1 is empty",
            "eliminating the dominant set needs a nonempty non-dominant set "
            "(strictly dominant input already has a classical SDD closure)",
        )
    return _certified_rows(part, part.n2, part.n1)


def certified_bound_superset(A, alpha) -> dict[int, float]:
    """Certified lower bounds on |a'_tt| - R_t(A/alpha) for alpha beyond n2 (``_certified``)."""
    part, alpha = _validate_alpha(A, alpha)[1:]
    _require_sdd1(part)
    if not set(part.n2) < set(alpha):
        raise HypothesisError(
            "alpha does not strictly contain n2",
            "this regime needs n2 strictly inside alpha, alpha strictly inside N",
        )
    return _certified_rows(part, alpha, _rest(part.n, alpha))


def tilde_set_identity_check(A, alpha) -> bool:
    """Verify the three set relations tying the complement's partition to the original.

    For alpha a nonempty proper subset of n2: n2 minus alpha stays dominant,
    the complement's non-dominant set shrinks into n1, and the two
    differences coincide.  The relations need only the pivot block to sit
    inside the dominant set, not full SDD1 membership.
    """
    rec, part, alpha = _validate_alpha(A, alpha)
    if not set(alpha) < set(part.n2):
        raise HypothesisError(
            "alpha is not a proper subset of n2",
            "the set identities hold for alpha strictly inside the dominant set",
        )
    cpart = dominance_partition(_alone(rec.matrix, alpha))  # left in the memo
    bar = _rest(part.n, alpha)
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

    direct = _alone(A, beta)
    # A(beta)/gamma sits at the positions of beta \ gamma inside A/gamma.
    remaining = _rest(n, gamma)
    inner = tuple(t for t, j in enumerate(remaining) if j in beta_set)
    outer = _alone(A, gamma)
    nested = _alone(outer, inner)

    tol = ENTRYWISE_RTOL * inf_norm(A)
    return bool(np.abs(direct - nested).max() <= tol)
