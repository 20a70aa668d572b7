"""Bit-identity of the stacked oracles against their one-matrix-at-a-time loops.

``is_p_matrix``, ``run_experiment`` and ``corner_norms`` work on stacks of
small matrices, one NumPy call per chunk.  Each must return exactly what the
loops in ``reference.py`` return (``==``, not ``allclose``), including on
non-P input, near-singular minors and input scaled by 10^+-200.
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
    determinant,
    generate_b1,
    is_p_matrix,
    run_experiment,
)
from diagdom.oracle import _chunk_length, _inverse_inf_norms, _stack_determinants

seeds = st.integers(min_value=0, max_value=2**31 - 1)
# Inputs scaled by 1e200 overflow the product of the pivots, one minor at a
# time and stacked alike.
overflow_ok = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
KINDS = ("random", "dominant", "near_singular", "scaled_up", "scaled_down", "b1")


def b1(n, seed):
    try:
        return generate_b1(n, seed, n1_fraction=0.5)
    except GenerationError:
        assume(False)


def instance(kind, n, seed):
    """One input of order n: non-P, P, near-singular, badly scaled or B1."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    if kind == "random":
        return A
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


@overflow_ok
@settings(max_examples=150, deadline=None)
@given(st.sampled_from(KINDS), st.integers(min_value=1, max_value=9), seeds)
def test_is_p_matrix(kind, n, seed):
    A = instance(kind, n, seed)
    assert is_p_matrix(A) == reference.is_p_matrix(A)


@overflow_ok
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KINDS), st.integers(min_value=2, max_value=7), seeds)
def test_every_minor_equals_determinant(kind, n, seed):
    A = instance(kind, n, seed)
    for size in range(2, n + 1):
        rows = np.array(list(itertools.combinations(range(n), size)))
        minors, signs = _stack_determinants(A[rows[:, :, None], rows[:, None, :]])
        expected = [determinant(A[np.ix_(r, r)]) for r in rows]
        assert same(minors, expected)
        assert same(signs, [reference.minor_sign(A[np.ix_(r, r)]) for r in rows])


def test_pivot_at_singular_threshold():
    # diag(1, t) has threshold 1e-13 * 1: a pivot of exactly that modulus is singular.
    small = [1e-13, -1e-13, np.nextafter(1e-13, 1.0), 1e-14, 0.0]
    stack = np.array([np.diag([1.0, t]) for t in small] + [np.diag([t, 1.0]) for t in small])
    minors, signs = _stack_determinants(stack)
    assert same(minors, [determinant(S) for S in stack])
    assert (minors != 0.0).tolist() == [False, False, True, False, False] * 2
    assert signs.tolist() == [0.0, 0.0, 1.0, 0.0, 0.0] * 2


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
