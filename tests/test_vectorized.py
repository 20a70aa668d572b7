"""Bit-identity of the whole-array bound terms against their scalar loops.

Every comparison is ``==``: the vectorized code performs the same IEEE
operations per element as the loops in ``reference.py`` and only the
maxima and minima are taken in a different order, which cannot change them.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from reference import abs_off
from diagdom import (
    GenerationError,
    SingularBlockError,
    b1_split,
    certified_bound_alpha_equals_n2,
    certified_bound_proper_subset,
    certified_bound_superset,
    dominance_bracket,
    dominance_ordering,
    dominance_partition,
    generate_b1,
    generate_sdd1,
    huang_bracket,
    is_b1,
    is_sdd1,
    lcp_b1_bound,
    quotient_formula_check,
    schur_complement,
    sdd1_epsilon_bound,
)
from diagdom.classify import _s_sdd1_margins
from diagdom.normbounds import (
    EPSILON_GRID_POINTS,
    _epsilon_pieces,
    _epsilon_value,
    _pairwise_max,
    _restricted_schur_value,
)

orders = st.integers(min_value=2, max_value=64)
seeds = st.integers(min_value=0, max_value=2**31 - 1)
# The generators' entries sit on a coarse dyadic grid, where sums are exact
# in any order; rows scaled by random factors make them round, so a change
# of summation order or layout shows.
grids = st.sampled_from(("dyadic", "scaled"))


def off_grid(A, seed):
    """``A`` with its rows scaled by random factors in [0.5, 2)."""
    return A * np.random.default_rng(seed).uniform(0.5, 2.0, len(A))[:, None]


def draw(generator, n, seed, grid="dyadic"):
    try:
        A = generator(n, seed, n1_fraction=0.5)
    except GenerationError:
        assume(False)
    if grid == "scaled":  # positive row scaling keeps SDD1 and B1, up to rounding
        A = off_grid(A, seed)
        assume(is_sdd1(A) if generator is generate_sdd1 else is_b1(A))
    return A


@settings(max_examples=40, deadline=None)
@given(orders, seeds, grids)
def test_pairwise_max(n, seed, grid):
    A = draw(generate_sdd1, n, seed, grid)
    _, off, d = abs_off(A)
    n2 = list(dominance_partition(A).n2)
    rs = off[:, n2].sum(axis=1)
    assert _pairwise_max(d, rs, n2) == reference.pairwise_max(d, rs, n2)
    assert _pairwise_max(d, off.sum(axis=1), n2) == reference.pairwise_max(d, off.sum(axis=1), n2)


# One row's rounding moves psi only when that row is the maximum, so about
# one scaled example in ten shows a change of summation order: hence 200.
@settings(max_examples=200, deadline=None)
@given(orders, seeds, grids)
def test_restricted_schur_value(n, seed, grid):
    A = draw(generate_sdd1, n, seed, grid)
    part = dominance_partition(A)
    _, _, d = abs_off(A)
    S = list(part.n2)
    # The margins sdd1_schur_bound and s_sdd1_schur_bound(A, n2) pass in.
    for margins in (part.p_values, d - _s_sdd1_margins(part, S)):
        got = _restricted_schur_value(part, S, margins)
        assert got == reference.restricted_schur_value(A, S, margins)


@settings(max_examples=40, deadline=None)
@given(orders, seeds, grids)
def test_lcp_b1_bound(n, seed, grid):
    M = draw(generate_b1, n, seed, grid)
    got, want = lcp_b1_bound(M), reference.lcp_b1_bound(M)
    assert got.value == want.value
    assert got.parameters == want.parameters


@settings(max_examples=40, deadline=None)
@given(orders, seeds, grids)
def test_sdd1_epsilon_grid_and_certificate(n, seed, grid):
    A = draw(generate_sdd1, n, seed, grid)
    part = dominance_partition(A)
    _, off, d = abs_off(A)
    n1, n2 = list(part.n1), list(part.n2)
    rs = off[:, n2].sum(axis=1)
    pieces = _epsilon_pieces(part, rs)
    sup = reference.epsilon_sup(d, part.p_values, rs)
    top = sup if np.isfinite(sup) else 1.0
    grid = np.linspace(top * 1e-6, top * (1 - 1e-6), EPSILON_GRID_POINTS)
    got = _epsilon_value(pieces, grid)
    assert got.tolist() == [reference.epsilon_value(pieces, e) for e in grid]
    cert, want = sdd1_epsilon_bound(A), reference.sdd1_epsilon_bound(A)
    assert cert.value == want.value
    assert cert.parameters == want.parameters


@settings(max_examples=40, deadline=None)
@given(orders, seeds)
def test_certified_schur_margins(n, seed):
    A = draw(generate_sdd1, n, seed)
    part = dominance_partition(A)
    n1, n2 = list(part.n1), list(part.n2)
    assert certified_bound_alpha_equals_n2(A) == reference.certified_bound_alpha_equals_n2(A)
    rng = np.random.default_rng(seed)
    if len(n2) >= 2:
        alpha = sorted(rng.choice(n2, size=rng.integers(1, len(n2)), replace=False).tolist())
        got = certified_bound_proper_subset(A, alpha)
        assert got == reference.certified_bound_proper_subset(A, alpha)
    if len(n1) >= 2:
        extra = rng.choice(n1, size=rng.integers(1, len(n1)), replace=False).tolist()
        alpha = sorted(n2 + extra)
        assert certified_bound_superset(A, alpha) == reference.certified_bound_superset(A, alpha)


@settings(max_examples=40, deadline=None)
@given(orders, seeds, grids)
def test_brackets(n, seed, grid):
    A = draw(generate_sdd1, n, seed, grid)
    A = dominance_ordering(A).apply(A)
    tight = dominance_bracket(A)
    lower, upper, factors, weights = reference.dominance_bracket(A)
    assert (tight.lower, tight.upper, tight.theta) == (lower, upper, None)
    assert tight.factors.tolist() == factors.tolist()
    assert tight.weights.tolist() == weights.tolist()
    part = dominance_partition(A)
    assume(any(part.off[i, list(part.n2)].sum() > 0.0 for i in part.n1))  # theta defined
    broad = huang_bracket(A)
    lower, upper, factors, weights, theta = reference.huang_bracket(A)
    assert (broad.lower, broad.upper, broad.theta) == (lower, upper, theta)
    assert broad.factors.tolist() == factors.tolist()
    assert broad.weights.tolist() == weights.tolist()


def schur_instance(kind, n, seed):
    """SDD1, SDD1 with rows scaled off the generator's dyadic grid (so sums
    round), the SDD1 part of a B1 matrix, or a random matrix, seldom SDD1."""
    rng = np.random.default_rng(seed)
    if kind == "sdd1":
        return draw(generate_sdd1, n, seed)
    if kind == "scaled":
        return off_grid(draw(generate_sdd1, n, seed), seed)
    if kind == "b1":
        return b1_split(draw(generate_b1, n, seed)).a
    A = rng.standard_normal((n, n))
    A[np.diag_indices(n)] += rng.choice([-1.0, 1.0], n) * rng.uniform(0.0, n, n)
    return A


def schur_alpha(kind, part, n, rng):
    """A random alpha: inside n2, equal to n2, beyond n2, or anything."""
    n1, n2 = list(part.n1), list(part.n2)
    if kind == "inside" and len(n2) >= 2:
        return sorted(rng.choice(n2, size=rng.integers(1, len(n2)), replace=False).tolist())
    if kind == "equal" and n1 and n2:
        return n2
    if kind == "beyond" and len(n1) >= 2 and n2:
        return sorted(n2 + rng.choice(n1, size=rng.integers(1, len(n1)), replace=False).tolist())
    return sorted(rng.choice(n, size=rng.integers(1, n), replace=False).tolist())


def same(a, b):
    """Equal as IEEE values, zeros compared with their sign."""
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and (np.signbit(a) == np.signbit(b)).all()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(("sdd1", "scaled", "b1", "random")),
       st.sampled_from(("inside", "equal", "beyond", "any")),
       st.integers(min_value=2, max_value=24), seeds)
def test_schur_complement(kind, regime, n, seed):
    A = schur_instance(kind, n, seed)
    alpha = schur_alpha(regime, dominance_partition(A), n, np.random.default_rng(seed))
    try:
        want = reference.schur_complement(A, alpha)
    except SingularBlockError:
        with pytest.raises(SingularBlockError):
            schur_complement(A, alpha)
        return
    comp, bar, tilde_n1, tilde_n2, delta, certified, kind_ = want
    res = schur_complement(A, alpha)
    assert same(res.complement, comp)
    assert (res.alpha_bar, res.tilde_n1, res.tilde_n2) == (bar, tilde_n1, tilde_n2)
    assert (res.delta is None) == (delta is None)
    assert delta is None or same(res.delta, delta)
    assert res.certified_lower_bounds == certified
    assert res.certified_kind == kind_
    if certified is not None:
        assert all(type(v) is float for v in res.certified_lower_bounds.values())


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("sdd1", "scaled", "b1", "random")), st.integers(min_value=3, max_value=16),
       seeds)
def test_quotient_formula_check(kind, n, seed):
    A = schur_instance(kind, n, seed)
    rng = np.random.default_rng(seed)
    beta = sorted(rng.choice(n, size=rng.integers(2, n), replace=False).tolist())
    gamma = sorted(rng.choice(beta, size=rng.integers(1, len(beta)), replace=False).tolist())
    try:
        want = reference.quotient_formula_check(A, beta, gamma)
    except SingularBlockError:
        with pytest.raises(SingularBlockError):
            quotient_formula_check(A, beta, gamma)
        return
    assert quotient_formula_check(A, beta, gamma) == want


# The margin helpers gather C-ordered blocks and take each row's dot product
# with a stacked matmul, (X[:, None, :] @ w)[:, 0], and each row's sum with
# sum(axis=1).  On the numpy these tests pin, both equal the one-row ``@``
# and ``sum()`` bit for bit; a numpy or BLAS change that breaks this fails
# here before it moves a certificate.
# (A block gathered as M[rows][:, cols] is not C-ordered, and its rows do
# round differently.)
def gathered_blocks():
    rng = np.random.default_rng(20261018)
    for cols in range(1, 601):
        # Every tenth block has as many rows as large-dense gathers (n/2 of 256 or 512).
        rows = int(rng.integers(100, 301)) if cols % 10 == 0 else int(rng.integers(1, 13))
        M = np.abs(rng.standard_normal((rows + 3, cols + 4))) * 10.0 ** rng.integers(-8, 9)
        r = rng.permutation(rows + 3)[:rows]
        c = rng.permutation(cols + 4)[:cols]
        yield M, r, c, rng.random(cols)


def test_stacked_matmul_equals_row_dot():
    for M, r, c, w in gathered_blocks():
        got = (M[r[:, None], c][:, None, :] @ w)[:, 0]
        assert got.tolist() == [M[i, c] @ w for i in r], (len(r), len(c))


def test_row_sums_equal_row_sum():
    for M, r, c, _ in gathered_blocks():
        got = M[r[:, None], c].sum(axis=1)
        assert got.tolist() == [M[i, c].sum() for i in r], (len(r), len(c))
