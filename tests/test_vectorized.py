"""Bit-identity of the whole-array bound terms against their scalar loops.

Every comparison is ``==``: the vectorized code performs the same IEEE
operations per element as the loops in ``reference.py`` and only the
maxima and minima are taken in a different order, which cannot change them.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from diagdom import (
    GenerationError,
    certified_bound_alpha_equals_n2,
    certified_bound_proper_subset,
    certified_bound_superset,
    dominance_bracket,
    dominance_ordering,
    dominance_partition,
    generate_b1,
    generate_sdd1,
    huang_bracket,
    lcp_b1_bound,
    sdd1_epsilon_bound,
)
from diagdom.classify import _s_sdd1_margins
from diagdom.core import _abs_off
from diagdom.normbounds import (
    EPSILON_GRID_POINTS,
    _epsilon_pieces,
    _epsilon_value,
    _pairwise_max,
    _restricted_schur_value,
)

orders = st.integers(min_value=2, max_value=64)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def draw(generator, n, seed):
    try:
        return generator(n, seed, n1_fraction=0.5)
    except GenerationError:
        assume(False)


@settings(max_examples=40, deadline=None)
@given(orders, seeds)
def test_pairwise_max(n, seed):
    A = draw(generate_sdd1, n, seed)
    _, off, d = _abs_off(A)
    n2 = list(dominance_partition(A).n2)
    rs = off[:, n2].sum(axis=1)
    assert _pairwise_max(d, rs, n2) == reference.pairwise_max(d, rs, n2)
    assert _pairwise_max(d, off.sum(axis=1), n2) == reference.pairwise_max(d, off.sum(axis=1), n2)


@settings(max_examples=40, deadline=None)
@given(orders, seeds)
def test_restricted_schur_value(n, seed):
    A = draw(generate_sdd1, n, seed)
    part = dominance_partition(A)
    _, _, d = _abs_off(A)
    S = list(part.n2)
    # The margins sdd1_schur_bound and s_sdd1_schur_bound(A, n2) pass in.
    for margins in (part.p_values, d - _s_sdd1_margins(part, S)):
        got = _restricted_schur_value(part, S, margins)
        assert got == reference.restricted_schur_value(A, S, margins)


@settings(max_examples=40, deadline=None)
@given(orders, seeds)
def test_lcp_b1_bound(n, seed):
    M = draw(generate_b1, n, seed)
    got, want = lcp_b1_bound(M), reference.lcp_b1_bound(M)
    assert got.value == want.value
    assert got.parameters == want.parameters


@settings(max_examples=40, deadline=None)
@given(orders, seeds)
def test_sdd1_epsilon_grid_and_certificate(n, seed):
    A = draw(generate_sdd1, n, seed)
    part = dominance_partition(A)
    _, off, d = _abs_off(A)
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
@given(orders, seeds)
def test_brackets(n, seed):
    A = draw(generate_sdd1, n, seed)
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
