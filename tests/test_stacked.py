"""Bit-identity of the stacked oracles against their one-matrix-at-a-time loops.

``is_p_matrix``, ``run_experiment`` and ``corner_norms`` work on stacks of
small matrices, one NumPy call per chunk.  Each must return exactly what the
loops in ``reference.py`` return (``==``, not ``allclose``), including on
non-P input, near-singular minors and input scaled by 10^+-200.

``_stack_pivots`` eliminates a whole stack at once with the matrix index
last, swapping rows only in the matrices whose pivot moved and dropping a
matrix at its singular pivot.  Its pivots and signs must equal
``lu_factor``'s and ``reference.minor_sign``'s member by member: on every
principal minor up to order 12 (the ensembles' largest), including tied
moduli and Wilkinson growth that overflows to inf and NaN; on random stacks
of orders ``LU_SCALAR_MAX``, ``LU_SCALAR_MAX + 1`` and
``P_MATRIX_MAX_ORDER``, on both sides of ``lu_factor``'s kernel switch; and
on a fixed stack whose members swap at different columns while one of them
drops out.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from diagdom import (
    GenerationError,
    SingularMatrixError,
    corner_norms,
    generate_b1,
    generate_sdd1,
    is_p_matrix,
    lu_factor,
    run_experiment,
)
from diagdom.oracle import (
    LU_BLOCK,
    LU_SCALAR_MAX,
    P_MATRIX_MAX_ORDER,
    _chunk_length,
    _inverse_inf_norms,
    _stack_pivots,
)
from matrices import overflowing, tied_moduli

seeds = st.integers(min_value=0, max_value=2**31 - 1)
KINDS = ("random", "dominant", "near_singular", "scaled_up", "scaled_down", "b1")
PIVOT_KINDS = (*KINDS, "tied_moduli", "overflowing")


def b1(n, seed):
    try:
        return generate_b1(n, seed, n1_fraction=0.5)
    except GenerationError:
        assume(False)


def instance(kind, n, seed):
    """One input of order n: non-P, P, near-singular, badly scaled, B1, tied or overflowing."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    if kind == "random":
        return A
    if kind == "tied_moduli":
        return tied_moduli(n, seed)
    if kind == "overflowing":
        return overflowing(n, seed)
    if kind == "b1":
        assume(n >= 2)
        return b1(n, seed)
    # Positive diagonal, strictly dominant rows: a P-matrix.
    np.fill_diagonal(A, np.abs(A).sum(axis=1) + rng.uniform(0.1, 1.0, n))
    if kind == "near_singular" and n >= 2:
        # A diag(1e-14, 1) principal block: its pivot falls under the
        # singular-pivot threshold although the minor is positive.
        i, j = rng.choice(n, 2, replace=False)
        A[[i, i, j], [j, i, j]] = [0.0, 1e-14, 1.0]
        A[j, i] = 0.0
    elif kind == "scaled_up":
        A *= 1e200
    elif kind == "scaled_down":
        A *= 1e-200
    return A


def same(a, b):
    """Equal as IEEE values, zeros compared with their sign."""
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b, equal_nan=True) and (np.signbit(a) == np.signbit(b)).all()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(KINDS), st.integers(min_value=1, max_value=9), seeds)
def test_is_p_matrix(kind, n, seed):
    A = instance(kind, n, seed)
    assert is_p_matrix(A) == reference.is_p_matrix(A)


def lu_pivots(S):
    """U's diagonal from ``lu_factor``, or zeros where it meets a singular pivot."""
    try:
        return lu_factor(S).packed.diagonal()
    except SingularMatrixError:
        return np.zeros(len(S))


def assert_pivots_equal_lu_factor(stack):
    """``_stack_pivots`` of a stack equals ``lu_factor`` and ``minor_sign`` member by member."""
    with np.errstate(all="ignore"):  # overflowing members grow to inf and NaN
        pivots, signs = _stack_pivots(stack)
        assert same(pivots, [lu_pivots(S) for S in stack])
        assert same(signs, [reference.minor_sign(S) for S in stack])
    return pivots


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PIVOT_KINDS), st.integers(min_value=2, max_value=12), seeds)
def test_every_minor_pivots_equal_lu_factor(kind, n, seed):
    A = instance(kind, n, seed)
    for size in range(2, n + 1):
        rows = np.array(list(itertools.combinations(range(n), size)))
        assert_pivots_equal_lu_factor(A[rows[:, :, None], rows[:, None, :]])


STACK_KINDS = ("random", "dominant", "near_singular", "scaled_down", "tied_moduli", "overflowing")


def assert_factors_equal_lu_factor(stack):
    """``_stack_pivots(stack, factors=True)`` equals ``lu_factor`` member by member: the
    packed factors, permutation and sign, or the column of the singular pivot."""
    with np.errstate(all="ignore"):  # overflowing members grow to inf and NaN
        packed, perm, sign, failed = _stack_pivots(stack, factors=True)
        for S, lu, p, sg, column in zip(stack, packed, perm, sign, failed):
            try:
                fact = lu_factor(S)
            except SingularMatrixError as exc:
                assert column == exc.column
                continue
            assert column == -1
            assert same(lu, fact.packed)
            assert (tuple(p.tolist()), sg) == (fact.perm, fact.sign)


@pytest.mark.parametrize("s", range(1, LU_BLOCK + 1))
def test_stack_factors_equal_lu_factor(s):
    # Both lu_factor kernels: Python floats up to LU_SCALAR_MAX, one transposed panel above.
    stack = np.array([instance(kind, s, 100 * s + k) for k in range(3) for kind in STACK_KINDS])
    if s >= 2:
        stack[::4, -1] = 3.0 * stack[::4, 0]  # rank-deficient members meet a singular pivot
    stack[1, :, 0] = 0.0  # and one at column 0
    assert_factors_equal_lu_factor(stack)


@pytest.mark.parametrize("s", [LU_SCALAR_MAX, LU_SCALAR_MAX + 1, P_MATRIX_MAX_ORDER])
def test_random_stack_pivots_equal_lu_factor(s):
    # lu_factor eliminates on Python floats up to LU_SCALAR_MAX and in one
    # transposed panel above it; the stacked pivots must match both.
    stack = np.array([instance(kind, s, 100 * s + k) for k in range(4) for kind in STACK_KINDS])
    stack[::5, -1] = 3.0 * stack[::5, 0]  # rank-deficient members meet a singular pivot
    pivots = assert_pivots_equal_lu_factor(stack)
    assert 0 < pivots.any(axis=1).sum() < len(stack)  # some members drop out, not all


def test_pivot_at_singular_threshold():
    # diag(1, t) has threshold 1e-13 * 1: a pivot of exactly that modulus is singular.
    small = [1e-13, -1e-13, np.nextafter(1e-13, 1.0), 1e-14, 0.0]
    stack = np.array([np.diag([1.0, t]) for t in small] + [np.diag([t, 1.0]) for t in small])
    pivots, signs = _stack_pivots(stack)
    assert same(pivots, [lu_pivots(S) for S in stack])
    assert pivots.any(axis=1).tolist() == [False, False, True, False, False] * 2
    assert signs.tolist() == [0.0, 0.0, 1.0, 0.0, 0.0] * 2


def test_swaps_at_different_columns_around_a_dropped_member():
    # (L U)[order] with |l_ij| <= 1/2: column k's pivot is the row holding
    # U's row k, so each order fixes the columns at which its member swaps.
    # Member 3 swaps at column 1 and meets a zero pivot at column 3 (u_33 = 0);
    # members 4 and 5 swap at that same column, after it has left the stack.
    # Member 4 is scaled by 2^-60, so every pivot of it is singular under
    # another member's threshold: the thresholds must follow their members.
    orders = [(0, 1, 2, 3, 4),  # no swap
              (3, 1, 2, 0, 4),  # column 0
              (0, 1, 4, 3, 2),  # column 2
              (0, 2, 1, 3, 4),  # column 1, then singular at column 3
              (0, 2, 1, 4, 3),  # columns 1 and 3
              (1, 2, 3, 4, 0)]  # every column
    rng = np.random.default_rng(5)
    stack = []
    for member, order in enumerate(orders):
        L = np.eye(5) + np.tril(rng.uniform(-0.5, 0.5, (5, 5)), -1)
        U = np.triu(rng.uniform(-1.0, 1.0, (5, 5))) + np.diag(rng.choice([-2.0, 2.0], 5))
        if member == 3:
            U[3, 3] = 0.0
        stack.append((L @ U)[list(order)] * (2.0**-60 if member == 4 else 1.0))
    stack = np.array(stack)
    perms = [(0, 1, 2, 3, 4), (3, 1, 2, 0, 4), (0, 1, 4, 3, 2), None,
             (0, 2, 1, 4, 3), (4, 0, 1, 2, 3)]
    for S, perm in zip(stack, perms):
        if perm is None:
            with pytest.raises(SingularMatrixError) as err:
                lu_factor(S)
            assert err.value.column == 3
        else:
            assert lu_factor(S).perm == perm
    pivots = assert_pivots_equal_lu_factor(stack)
    assert pivots.any(axis=1).tolist() == [True, True, True, False, True, True]
    assert_factors_equal_lu_factor(stack)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=12), seeds, st.integers(min_value=1, max_value=60))
def test_run_experiment(n, seed, samples):
    M = b1(n, seed)
    exp = run_experiment(M, samples, seed)
    d_samples, exact, violations = reference.sampled_norms(M, samples, seed, exp.analytic_bound)
    assert same(exp.d_samples, d_samples)
    assert same(exp.exact_norms, exact)
    assert exp.violations == violations


def test_run_experiment_across_chunks():
    M = b1(12, 3)
    samples = _chunk_length(12) + 5
    exp = run_experiment(M, samples, 11)
    d_samples, exact, violations = reference.sampled_norms(M, samples, 11, exp.analytic_bound)
    assert same(exp.d_samples, d_samples)
    assert same(exp.exact_norms, exact)
    assert exp.violations == violations


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(("dominant", "scaled_up", "b1")), st.integers(min_value=1, max_value=10), seeds)
def test_corner_norms(kind, n, seed):
    M = instance(kind, n, seed)
    assert same(corner_norms(M), reference.corner_norms(M))


def test_corner_norms_across_chunks():
    M = b1(12, 8)
    assert _chunk_length(12) < 2**12
    assert same(corner_norms(M), reference.corner_norms(M))


def test_signed_zero_entries():
    # A z-pattern SDD1 matrix with positive diagonal is B1 with a zero shift,
    # and its zero off-diagonal entries are -0.0.  The scaled matrices keep
    # those signs where the reference's sum gives +0.0; no norm may move.
    M = generate_sdd1(9, 4, n1_fraction=0.5, z_pattern=True)
    assert ((M == 0.0) & np.signbit(M)).any()
    assert same(corner_norms(M), reference.corner_norms(M))
    exp = run_experiment(M, 40, 6)
    d_samples, exact, violations = reference.sampled_norms(M, 40, 6, exp.analytic_bound)
    assert same(exp.d_samples, d_samples)
    assert same(exp.exact_norms, exact)
    assert exp.violations == violations


class TestInverseNorms:
    def test_names_first_singular_member(self):
        stack = np.array([np.eye(2), 2 * np.eye(2), np.ones((2, 2)), np.zeros((2, 2))])
        with pytest.raises(SingularMatrixError) as err:
            _inverse_inf_norms(stack)
        assert err.value.index == 2

    def test_names_first_overflowing_member(self):
        stack = np.array([[[1.0]], [[4.0]], [[1e-320]]])
        with pytest.raises(SingularMatrixError) as err:
            _inverse_inf_norms(stack)
        assert err.value.index == 2

    def test_singular_corner(self):
        with pytest.raises(SingularMatrixError) as err:
            corner_norms([[1.0, 1.0], [1.0, 1.0]])
        assert err.value.index == 3  # D = I leaves M itself
