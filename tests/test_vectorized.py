"""Bit-identity of the whole-array bound terms against their scalar loops.

Every comparison is ``==``: the vectorized code performs the same IEEE
operations per element as the loops in ``reference.py`` and only the
maxima and minima are taken in a different order, which cannot change them.
The one exception is the automatic epsilon bound: its exact minimum must be
at most the grid-and-refine value of ``reference.py``, up to rounding.
"""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from reference import abs_off
from diagdom import (
    FORMULA_SDD1_SCHUR,
    DenominatorError,
    GenerationError,
    SingularBlockError,
    ValidationError,
    b1_split,
    certified_bound_alpha_equals_n2,
    certified_bound_proper_subset,
    certified_bound_superset,
    determinant,
    dominance_bracket,
    dominance_ordering,
    dominance_partition,
    generate_b1,
    generate_sdd1,
    huang_bracket,
    is_b1,
    is_sdd1,
    lcp_b1_bound,
    lu_factor,
    lu_solve,
    quotient_formula_check,
    schur_complement,
    sdd1_epsilon_bound,
)
from diagdom import core
from diagdom.classify import _restricted_sums
from diagdom.normbounds import (
    _epsilon_pieces,
    _epsilon_value,
    _pairwise_max,
    _pairwise_terms,
    _restricted_schur_bound,
)
from diagdom.oracle import LU_BLOCK

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
def pairwise_cases(sdd1_ensemble, b1_ensemble):
    """(matrix, cap) pairs whose dominant rows the pairwise terms run over: the
    ensembles, ``test_overflowing_diagonal_product``'s matrices at 2^510, 2^515
    and 2^600, generated matrices at 2^-600 and 2^600, and the LCP's capped case."""
    tie = 2.0**-10
    for exponent in (510, 515, 600):
        yield np.ldexp([[1.0, 1.0, 1.0], [tie, 1.0, tie], [tie, tie, 1.0]], exponent), math.inf
        yield np.ldexp([[1.0, tie], [tie, 1.0]], exponent), math.inf
    for exponent in (-600, 600):
        yield np.ldexp(generate_sdd1(6, 3, 0.5), exponent), math.inf
        yield b1_split(np.ldexp(generate_b1(6, 3, 0.45), exponent)).a, 1.0
    lcp = np.ldexp([[1.0, -1.0, -1.0], [-tie, 1.0, -tie], [-tie, -tie, 1.0]], 515)
    yield b1_split(lcp).a, 1.0
    lcp[0] = [1.0, -1.0, -1.0]  # the capped denominator of test_lcp_caps_...
    yield b1_split(lcp).a, 1.0
    yield from ((A, math.inf) for A in sdd1_ensemble)
    yield from ((b1_split(M).a, 1.0) for M in b1_ensemble)


def test_pairwise_grid_matches_flattened_terms(sdd1_ensemble, b1_ensemble):
    # The broadcast grid holds the flattened reference's terms, pair for pair in
    # row-major order, and fails on the same rows; the maxima read only i != j.
    outcomes = set()
    for A, cap in pairwise_cases(sdd1_ensemble, b1_ensemble):
        part = dominance_partition(A)
        d, rs, rows = part.diag, part.r_n2, part.n2
        try:
            di, dj, ri, flat = reference.pairwise_terms(d, rs, rows, cap)
        except DenominatorError as exc:
            with pytest.raises(DenominatorError) as info:
                _pairwise_terms(d, rs, rows, cap)
            assert (info.value.what, info.value.rows) == (exc.what, exc.rows)
            outcomes.add("raises")
            continue
        d_S, rs_S, den, pairs = _pairwise_terms(d, rs, rows, cap)
        grid = den.shape
        assert same(den[pairs], flat)
        assert same(np.broadcast_to(d_S[:, None], grid)[pairs], di)
        assert same(np.broadcast_to(d_S, grid)[pairs], dj)
        assert same(np.broadcast_to(rs_S[:, None], grid)[pairs], ri)
        if cap == math.inf:
            want = np.max((dj + ri) / flat, initial=0.0)
            assert _pairwise_max(d, rs, rows) == want
        elif len(rows) > 1:  # the LCP's phi, its min(d_i, d_j) clamp kept off the diagonal
            want = np.max((np.maximum(1.0, dj) + ri) / np.minimum(np.minimum(di, dj), flat),
                          initial=0.0)
            try:
                got = lcp_b1_bound(A).parameters["phi"]
            except DenominatorError:  # an eliminated-row term, after phi
                continue
            assert got == want
        outcomes.add("terms")
    assert outcomes == {"raises", "terms"}


@settings(max_examples=200, deadline=None)
@given(orders, seeds, grids)
def test_restricted_schur_value(n, seed, grid):
    A = draw(generate_sdd1, n, seed, grid)
    part = dominance_partition(A)
    # The sums sdd1_schur_bound and s_sdd1_schur_bound(A, n2) both pass in.
    cert = _restricted_schur_bound(FORMULA_SDD1_SCHUR, part, part.n2,
                                   _restricted_sums(part, part.n2))
    got = cert.value, cert.parameters["phi"], cert.parameters["psi"]
    assert got == reference.restricted_schur_value(A, part.n2, part.p_values)


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
    pieces = _epsilon_pieces(part)
    want = reference.epsilon_pieces(off, d, part, rs)
    assert all(np.array_equal(x, y) for x, y in zip(pieces[:5], want, strict=True))
    assert pieces[5] == (part.n1, part.n2)
    sup = reference.epsilon_sup(d, part.p_values, rs)
    cert, want = sdd1_epsilon_bound(A), reference.sdd1_epsilon_bound(A)
    assert math.isfinite(cert.parameters["interval_sup"])
    assert cert.parameters["interval_sup"] == sup
    grid = np.linspace(sup * 1e-6, sup * (1 - 1e-6), reference.EPSILON_GRID_POINTS)
    got = _epsilon_value(pieces, grid)
    assert got.tolist() == [reference.epsilon_value(pieces, e) for e in grid]
    # The exact minimum is at most the grid-and-refine value, up to rounding,
    # and the automatic path equals the fixed path at the epsilon it chose.
    eps = cert.parameters["epsilon"]
    assert cert.value <= want.value * (1 + 4 * 2**-53)
    assert 0.0 < eps < sup
    assert sdd1_epsilon_bound(A, eps).value == cert.value


def test_sdd1_epsilon_no_worse_than_grid_on_ensemble(sdd1_ensemble):
    for A in sdd1_ensemble:
        want = reference.sdd1_epsilon_bound(A).value
        assert sdd1_epsilon_bound(A).value <= want * (1 + 4 * 2**-53)


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
    drawn = draw(generate_sdd1, n, seed, grid)
    for A in (drawn, dominance_ordering(drawn).apply(drawn)):  # any row order, then dominance order
        tight = dominance_bracket(A)
        lower, upper, factors, weights = reference.dominance_bracket(A)
        assert (tight.lower, tight.upper, tight.theta) == (lower, upper, None)
        assert tight.factors.tolist() == factors.tolist()
        assert tight.weights.tolist() == weights.tolist()
        part = dominance_partition(A)
        if not any(part.off[i, list(part.n2)].sum() > 0.0 for i in part.n1):
            continue  # theta undefined
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
    for M, r, c, w in gathered_blocks():
        block = M[r[:, None], c]
        want = [M[i, c].sum() for i in r]
        assert block.sum(axis=1).tolist() == want, (len(r), len(c))
        # ``core._build_partitions`` sums the rows of a whole (m, b, b) stack at once.
        assert np.stack([block, block[::-1]]).sum(axis=2).tolist() == [want, want[::-1]]
        # Its grouped gathers: (g, k + rest, b) C-ordered, columns c first, each of g members
        # sliced and summed over axis 1, or multiplied as (g, b, k) @ (g, k, 1), equals the
        # column-major gather ``M[:, c]`` that ``core._build_partition`` sums and multiplies.
        rest = np.setdiff1d(np.arange(M.shape[1]), c)
        moved = np.stack([M.T[np.r_[c, rest]], M.T[np.r_[rest, c]]])
        k, cols = len(c), M[:, c]
        sums = [moved[:1, :k].sum(axis=1)[0], moved[1:, len(rest):].sum(axis=1)[0]]
        assert all(got.tolist() == cols.sum(axis=1).tolist() for got in sums), (len(r), k)
        weights = np.stack([np.r_[w, np.zeros(len(rest))], np.r_[np.zeros(len(rest)), w]])
        dots = [(moved[:1, :k].transpose(0, 2, 1) @ weights[:1, :k, None])[0, :, 0],
                (moved[1:, len(rest):].transpose(0, 2, 1) @ weights[1:, len(rest):, None])[0, :, 0]]
        assert all(got.tolist() == (cols @ w).tolist() for got in dots), (len(r), k)


def partition_stacks():
    """(m, b, b) stacks for ``core._build_partitions``: 1 to 40 members at orders 1 to 40,
    and one-member stacks up to order 300 (``large-dense``'s complement is order 256).
    Rows are scaled apart so sums round, and rows are made dominance ties (|a_ii| = R_i
    as numpy sums it), zero off the diagonal, of moduli summing past the float range, and
    whole members all-n1 or all-n2."""
    rng = np.random.default_rng(20261022)
    shapes = [(int(rng.integers(1, 41)), int(rng.integers(1, 41))) for _ in range(400)]
    shapes += [(1, int(b)) for b in rng.integers(1, 301, 30)] + [(1, 256), (1, 300)]
    for m, b in shapes:
        stack = rng.standard_normal((m, b, b)) * 10.0 ** rng.integers(-8, 9, (m, b, 1))
        rows = np.arange(b)
        stack[:, rows, rows] = 0.0
        R = np.abs(stack).sum(axis=2)
        diag = R * rng.uniform(0.5, 1.5, (m, b))
        tie = rng.random((m, b)) < 0.1
        diag[tie] = R[tie]
        zero = rng.random((m, b)) < 0.05
        stack[zero] = 0.0
        diag[zero] = rng.uniform(-1.0, 1.0, zero.sum())
        if b > 1:
            huge = rng.random(m) < 0.1  # row 0 sums to inf, so it joins n1
            stack[huge, 0, 1:] = 1.7e308
            diag[huge, 0] = 1.7e308
        diag[: m // 4] *= 1e-3  # all-n1 members
        diag[m // 4: m // 2] = R[m // 4: m // 2] * 4.0 + 1.0  # all-n2 members
        stack[:, rows, rows] = diag * rng.choice([-1.0, 1.0], (m, b))
        yield stack


def test_stacked_partitions_equal_build_partition():
    fields = ("row_sums", "p_values", "off", "diag", "r_n1", "r_n2", "q_n2")
    seen = set()
    for stack in partition_stacks():
        wants = [core._build_partition(member) for member in stack]
        for got, want in zip(core._build_partitions(stack), wants, strict=True):
            assert (got.n1, got.n2) == (want.n1, want.n2)
            for name in fields:
                a, b = getattr(got, name), getattr(want, name)
                assert (a.shape, a.tobytes()) == (b.shape, b.tobytes()), name
                assert not a.flags.writeable
            seen.update(kind for kind, there in (
                ("all n1", not want.n2), ("all n2", not want.n1),
                ("tie", (want.diag == want.row_sums).any()), ("zero row", (want.row_sums == 0).any()),
                ("inf", np.isinf(want.row_sums).any())) if there)
    assert seen == {"all n1", "all n2", "tie", "zero row", "inf"}


# ``oracle._substitute`` solves a whole stack with one matmul per step,
# (lu[:, k, None, :k] @ X[:, :k]), and the Schur family pass forms its
# complements as A_ba @ Y, where a 2-D loop and the one-member product make one
# 2-D call per member.  numpy runs a stacked matmul as one BLAS call per member
# with that member's shapes and strides, so each member gets the bits of its
# own call; these pin it on the stacks' own layouts: a member slice of X that
# is not contiguous across members, and C-ordered gathers.
def stacked_shapes():
    rng = np.random.default_rng(20261020)
    for _ in range(1000):
        m, k, b = int(rng.integers(1, 41)), int(rng.integers(1, 17)), int(rng.integers(1, 31))
        yield rng, m, k, b


def lone_shapes():
    """Stacks of one at the orders ``lu_solve`` and a lone pivot block of an order-512
    matrix solve: ``large-dense``'s alpha = n2 is about 256 by 256."""
    rng = np.random.default_rng(20261021)
    for _ in range(150):
        yield rng, 1, int(rng.integers(1, 301)), int(rng.integers(1, 301))


def test_stacked_substitution_step_equals_member_product():
    for rng, m, k, b in itertools.chain(stacked_shapes(), lone_shapes()):
        s = k + int(rng.integers(1, 4))  # X[:, :k] and X[:, k + 1:] are strided slices
        lu = rng.standard_normal((m, s, s)) * 10.0 ** rng.integers(-8, 9, (m, 1, 1))
        X = rng.standard_normal((m, s, b))
        forward = (lu[:, k, None, :k] @ X[:, :k])[:, 0]
        back = (lu[:, k - 1, None, k:] @ X[:, k:])[:, 0]
        for j in range(m):
            assert forward[j].tolist() == (lu[j, k, :k] @ X[j, :k]).tolist(), (m, k, b)
            assert back[j].tolist() == (lu[j, k - 1, k:] @ X[j, k:]).tolist(), (m, k, b)


@pytest.mark.parametrize("n", [1, 16, 17, 39, 130, 256])
def test_lu_solve_equals_reference_loop(n):
    # lu_solve is a stack of one in the library's stacked substitution; the
    # reference is the 2-D loop it replaced.
    rng = np.random.default_rng(n)
    fact = lu_factor(rng.standard_normal((n, n)) + np.eye(n))
    B = rng.standard_normal((n, n + 3)) * 10.0 ** rng.integers(-8, 9, (n, 1))
    for b in (B[:, 0], B[:, :1], B[:, :5], B):
        assert same(lu_solve(fact, b), reference.lu_solve(fact, b)), b.shape


def test_stacked_complement_product_equals_member_product():
    for rng, m, k, b in stacked_shapes():
        n = k + b
        A = rng.standard_normal((n + 2, n + 2)) * 10.0 ** rng.integers(-8, 9)
        idx = np.array([rng.permutation(n + 2)[:n] for _ in range(m)])
        ia, ib = idx[:, :k], idx[:, k:]
        Y = rng.standard_normal((m, k, b))
        got = A[ib[:, :, None], ib[:, None, :]] - A[ib[:, :, None], ia[:, None, :]] @ Y
        for j in range(m):
            want = A[ib[j, :, None], ib[j]] - A[ib[j, :, None], ia[j]] @ Y[j]
            assert got[j].tolist() == want.tolist(), (m, k, b)


def clear_memo():
    with core._LOCK:
        core._MEMO.clear()


def family_of(part, regime, rng):
    """Every member of a random family of ``part``'s matrix, as ``schur_complement``
    sweeps it: the subsets of n2 of one size, or n2 plus the subsets of n1 of one size."""
    n1, n2 = part.n1, part.n2
    if regime == "inside":
        assume(len(n2) >= 2)
        return [list(a) for a in itertools.combinations(n2, int(rng.integers(1, len(n2))))]
    assume(len(n1) >= 2)
    extra = int(rng.integers(0 if n2 else 1, len(n1)))  # alpha nonempty and proper
    return [sorted(n2 + e) for e in itertools.combinations(n1, extra)]


def reference_outcome(A, alpha):
    """The reference's complement, bookkeeping and block determinant, or its error."""
    with np.errstate(all="ignore"):  # the reference warns where its solve overflows
        try:
            want = reference.schur_complement(A, alpha)
        except (SingularBlockError, ValidationError) as exc:
            return type(exc), str(exc), getattr(exc, "column", None)
        block = reference.lu_factor_blocked(np.asarray(A)[np.ix_(alpha, alpha)])
        return want, float(block.sign * np.prod(block.packed.diagonal()))


def assert_member_equals_reference(A, alpha, want):
    if isinstance(want[0], type):
        with pytest.raises(want[0]) as err:
            schur_complement(A, alpha)
        assert (type(err.value), str(err.value), getattr(err.value, "column", None)) == want
        return
    comp, bar, tilde_n1, tilde_n2, delta, certified, kind = want[0]
    res = schur_complement(A, alpha)
    assert same(res.complement, comp)
    assert (res.alpha_bar, res.tilde_n1, res.tilde_n2) == (bar, tilde_n1, tilde_n2)
    assert res.certified_lower_bounds == certified and res.certified_kind == kind
    assert (res.delta is None) == (delta is None)
    assert delta is None or same(res.delta, delta)


def assert_block_determinants_equal_reference(A, family, wants):
    """The pivot-block determinant the ``schur`` subcommand reports, for every member whose
    complement exists, has the reference factorization's bits.  It records each block, so
    it runs after the members are asked, not between them."""
    for alpha, want in zip(family, wants, strict=True):
        if not isinstance(want[0], type):
            assert same(determinant(np.asarray(A)[np.ix_(alpha, alpha)]), want[1])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("sdd1", "scaled", "b1", "random")), st.sampled_from(("inside", "beyond")),
       st.integers(min_value=3, max_value=12), seeds)
def test_schur_family_in_any_order_equals_reference(kind, regime, n, seed):
    # Every member of a family, asked in shuffled order between cleared memos
    # and calls on another matrix, equals the reference computed alone.
    A = schur_instance(kind, n, seed)
    rng = np.random.default_rng(seed)
    family = family_of(dominance_partition(A), regime, rng)
    other = generate_sdd1(n, seed + 1, n1_fraction=0.5)
    wants = [reference_outcome(A, alpha) for alpha in family]
    clear_memo()
    for j in rng.permutation(len(family)):
        step = rng.integers(0, 6)
        if step == 0:
            clear_memo()
        elif step == 1:
            schur_complement(other, [dominance_partition(other).n2[0]])
        assert_member_equals_reference(A, family[j], wants[j])
    assert_block_determinants_equal_reference(A, family, wants)


def test_family_members_raise_their_own_errors():
    # n2 = {0}.  Eliminating {0, 1} meets a zero pivot in column 1, {0, 2} and
    # {0, 3} overflow the complement through the 1e300 pair, and {0, 4} is regular.
    A = np.array([[4.0, 1.0, 0.0, 0.0, 1.0],
                  [0.0, 0.0, 1.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, 1e300, 0.0],
                  [0.0, 0.0, 1e300, 1.0, 0.0],
                  [0.0, 1.0, 0.0, 0.0, 1.0]])
    family = [[0, e] for e in range(1, 5)]
    wants = [reference_outcome(A, alpha) for alpha in family]
    assert [w[0] for w in wants[:3]] == [SingularBlockError, ValidationError, ValidationError]
    assert wants[0][2] == 1
    # Pivot blocks above LU_BLOCK, factored one at a time in a stack of four:
    # n2 = 0..32 and n1 = 33..36, and row 33 is zero on n2 + {33}, so the block
    # of n2 + {33} is singular in its last column.
    rng = np.random.default_rng(27)
    wide = rng.uniform(-1.0, 1.0, (37, 37))
    wide[np.diag_indices(37)] = np.abs(wide).sum(axis=1) * np.r_[np.full(33, 1.5), np.full(4, 0.05)]
    wide[33, :34] = 0.0
    wide_family = [list(range(33)) + [e] for e in range(33, 37)]
    wide_wants = [reference_outcome(wide, alpha) for alpha in wide_family]
    assert [w[0] is SingularBlockError for w in wide_wants] == [True, False, False, False]
    assert wide_wants[0][2] == 33 and len(wide_family[0]) > LU_BLOCK
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for M, members, outcomes in ((A, family, wants), (wide, wide_family, wide_wants)):
            for order in itertools.permutations(range(4)):
                clear_memo()
                for j in order:
                    assert_member_equals_reference(M, members[j], outcomes[j])
            assert_block_determinants_equal_reference(M, members, outcomes)
