import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from diagdom import (
    SingularDiagonalError,
    ValidationError,
    as_index_set,
    as_matrix,
    comparison_matrix,
    damped_row_sum,
    dominance_partition,
    row_sum,
    schur_complement,
    tilde_set_identity_check,
)
from matrices import DET_6X6_FIRST, LCP_8X8, NORM_8X8, SCHUR_5X5
from test_vectorized import same


def small_matrices(n=4):
    return arrays(
        np.float64,
        (n, n),
        elements=st.floats(min_value=-8, max_value=8, allow_nan=False, width=32),
    )


class TestAsMatrix:
    def test_rejects_complex(self):
        with pytest.raises(ValidationError):
            as_matrix(np.eye(2, dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            as_matrix(np.ones((2, 3)))

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValidationError):
            as_matrix([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValidationError):
            as_matrix([[np.inf, 0.0], [0.0, 1.0]])

    def test_result_is_read_only(self):
        M = as_matrix([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            M[0, 0] = 9.0

    def test_same_checks_above_the_memo_bound(self):
        A = np.eye(33)
        M = as_matrix(A)
        with pytest.raises(ValueError):
            M[0, 0] = 9.0
        A[0, 1] = np.nan
        with pytest.raises(ValidationError):
            as_matrix(A)


class TestIndexSet:
    def test_sorts_and_validates(self):
        assert as_index_set([3, 1], 5) == (1, 3)
        assert as_index_set([np.int64(3), np.int32(1)], 5) == (1, 3)

    def test_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            as_index_set([1, 1], 5)

    def test_rejects_out_of_range(self):
        # The message names no base: the library counts from 0, the command line from 1.
        for idx in ([5], [-1]):
            with pytest.raises(ValidationError, match="outside the rows of an order-5 matrix"):
                as_index_set(idx, 5)

    def test_empty_policy(self):
        assert as_index_set([], 5, allow_empty=True) == ()
        with pytest.raises(ValidationError):
            as_index_set([], 5)

    @pytest.mark.parametrize("index", [1.7, 1.0, np.float64(1.0), "3", np.str_("1")])
    def test_rejects_indices_that_are_not_integers(self, index):
        for call in (lambda: as_index_set([index], 6), lambda: row_sum(SCHUR_5X5, index),
                     lambda: damped_row_sum(SCHUR_5X5, index, [0]),
                     lambda: schur_complement(SCHUR_5X5, [index]),
                     lambda: tilde_set_identity_check(SCHUR_5X5, [index])):
            with pytest.raises(ValidationError, match="not an integer"):
                call()


class TestRowSum:
    def test_full_row(self):
        # Row 4 (1-based) of the 5x5 fixture has off-diagonal mass 1+0+0+1.
        assert row_sum(SCHUR_5X5, 3) == 2.0
        assert row_sum(SCHUR_5X5, np.intp(3)) == 2.0

    def test_identity_has_no_mass(self):
        assert row_sum(np.eye(4), 0) == 0.0

    def test_restricted(self):
        assert row_sum(SCHUR_5X5, 1, [0, 2]) == 2.0

    def test_explicit_full_range_sums_in_column_order(self):
        # Only subset=None reads row_sums[i].  An explicit S, the whole range
        # included, adds off[i, j] over j in S in order, so on non-dyadic
        # entries the two may differ in the last bits.
        A = np.random.default_rng(5).normal(size=(20, 20))
        part = dominance_partition(A)
        for i in range(20):
            in_order = 0.0
            for j in range(20):
                in_order += float(part.off[i, j])
            assert row_sum(A, i, range(20)) == in_order
            assert row_sum(A, i) == part.row_sums[i] == pytest.approx(in_order, rel=1e-14)

    def test_index_out_of_range(self):
        with pytest.raises(ValidationError):
            row_sum(SCHUR_5X5, 5)


class TestDampedRowSum:
    def test_fixture_value(self):
        part = dominance_partition(SCHUR_5X5)
        got = damped_row_sum(SCHUR_5X5, 3, part.n2)
        assert got == pytest.approx(0.5, abs=1e-15)

    def test_self_only_subset_is_empty(self):
        assert damped_row_sum(SCHUR_5X5, 2, [2]) == 0.0

    def test_diagonal_matrix(self):
        D = np.diag([2.0, 3.0, 4.0])
        for i in range(3):
            assert damped_row_sum(D, i, [0, 1, 2]) == 0.0

    @pytest.mark.parametrize("i", [-1, 5])
    def test_index_out_of_range(self, i):
        with pytest.raises(ValidationError, match="row index"):
            damped_row_sum(SCHUR_5X5, i, [0])

    def test_zero_diagonal_rejected(self):
        M = np.array([[0.0, 1.0], [1.0, 2.0]])
        with pytest.raises(SingularDiagonalError):
            damped_row_sum(M, 1, [0])

    def test_zero_diagonal_row_in_its_own_subset_adds_nothing(self):
        M = np.array([[0.0, 1.0, 2.0], [1.0, 4.0, 1.0], [0.5, 0.5, 3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = damped_row_sum(M, 0, [0, 1, 2])
        assert got == 1.0 * 2.0 / 4.0 + 2.0 * 1.0 / 3.0
        assert damped_row_sum(M, 0, [0]) == 0.0

    def test_additive_over_disjoint_subsets(self):
        rng = np.random.default_rng(5)
        M = rng.normal(size=(6, 6)) + np.diag(np.full(6, 10.0))
        s1, s2 = [0, 2], [3, 5]
        total = damped_row_sum(M, 1, s1 + s2)
        assert total == pytest.approx(
            damped_row_sum(M, 1, s1) + damped_row_sum(M, 1, s2), rel=1e-14
        )


def row_scaled_matrices(count=120):
    """Random matrices of orders 9-40, each row scaled by 10^k, k in [-3, 3], and about
    half of the diagonals lifted to 1.5 R_i, so both n1 and n2 are large."""
    rng = np.random.default_rng(34)
    for _ in range(count):
        n = int(rng.integers(9, 41))
        M = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
        lift = np.flatnonzero(rng.random(n) < 0.5)
        M[lift, lift] = 1.5 * (np.abs(M).sum(axis=1) - np.abs(M.diagonal()))[lift]
        yield M


def test_row_functionals_carry_the_partition_bits(sdd1_ensemble):
    # Pairwise and recursive summation round differently, so a row functional that
    # summed its row on its own would differ from the partition in the last bits.
    for M in [*row_scaled_matrices(), *sdd1_ensemble]:
        part = dominance_partition(M)
        for i in range(part.n):
            assert row_sum(M, i) == part.row_sums[i], (M.shape, i)
            assert row_sum(M, i, part.n1) == part.r_n1[i], (M.shape, i)
            assert row_sum(M, i, part.n2) == part.r_n2[i], (M.shape, i)
            assert damped_row_sum(M, i, part.n2) == part.q_n2[i], (M.shape, i)


class TestPartition:
    def test_5x5_fixture(self):
        part = dominance_partition(SCHUR_5X5)
        assert part.n1 == (3, 4)
        assert part.n2 == (0, 1, 2)

    def test_8x8_fixture(self):
        part = dominance_partition(NORM_8X8)
        assert part.n1 == (0, 1, 2, 3)
        assert part.n2 == (4, 5, 6, 7)

    def test_identity(self):
        part = dominance_partition(np.eye(5))
        assert part.n1 == ()
        assert part.n2 == tuple(range(5))

    @pytest.mark.parametrize("n", [8, 40])  # a small and a moderate order
    def test_finite_row_whose_moduli_sum_overflows(self, n):
        M = np.eye(n) * 4.0 + 0.1
        M[0, :3] = [1.79e308, 1.7e308, -1.7e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            part = dominance_partition(M)
        assert part.row_sums[0] == np.inf
        assert part.n1 == (0,)
        assert part.n2 == tuple(range(1, n))

    def test_p_values_cached(self):
        part = dominance_partition(SCHUR_5X5)
        for i in range(5):
            expected = row_sum(SCHUR_5X5, i, part.n1) + damped_row_sum(SCHUR_5X5, i, part.n2)
            assert part.p_values[i] == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("A, row, exact_margin", [(LCP_8X8, 1, 1.4e-15),
                                                      (DET_6X6_FIRST, 2, 5.6e-17)],
                             ids=["LCP_8X8", "DET_6X6_FIRST"])
    def test_membership_is_the_float_comparison(self, A, row, exact_margin):
        # A decimal tie: the float R_i reaches |a_ii|, so the row is non-dominant,
        # though the exact |a_ii| - R_i of the stored doubles (fsum rounds it
        # correctly) is positive.  The paper's bounds on these fixtures need n1.
        part = dominance_partition(A)
        assert part.diag[row] - part.row_sums[row] == 0.0
        assert row in part.n1
        assert math.fsum([part.diag[row], *-part.off[row]]) == pytest.approx(exact_margin, rel=0.02)

    @settings(max_examples=50, deadline=None)
    @given(small_matrices())
    def test_membership_matches_raw_inequality(self, M):
        part = dominance_partition(M)
        for i in range(4):
            ri = row_sum(M, i)
            if abs(M[i, i]) <= ri:
                assert i in part.n1
            else:
                assert i in part.n2

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=12).flatmap(small_matrices),
           st.sampled_from(("as drawn", "dominant", "half dominant")),
           st.sampled_from((0, 600, -600)))
    @example(np.eye(3), "as drawn", 0)  # n1 empty
    @example(np.ones((3, 3)), "as drawn", -600)  # n2 empty
    def test_kept_sums_are_their_gathers_summed(self, M, shape, exponent):
        # R^{n1}, R^{n2} and Q^{n2} equal the sums a bound would gather, bit for bit.
        M = np.array(M)
        if shape != "as drawn":  # lift a diagonal over its row: every row, or the even ones
            rows = np.arange(0, len(M), 1 if shape == "dominant" else 2)
            M[rows, rows] = np.abs(M[rows]).sum(axis=1) + 1.0
        part = dominance_partition(np.ldexp(M, exponent))
        off, n1, n2 = part.off, list(part.n1), list(part.n2)
        w = part.row_sums[n2] / part.diag[n2]
        assert same(part.r_n1, off[:, n1].sum(axis=1))
        assert same(part.r_n2, off[:, n2].sum(axis=1))
        assert same(part.q_n2, off[:, n2] @ w)
        assert same(part.p_values, part.r_n1 + part.q_n2)
        assert not any(a.flags.writeable for a in (part.r_n1, part.r_n2, part.q_n2))

    @settings(max_examples=50, deadline=None)
    @given(small_matrices())
    def test_p_never_exceeds_r(self, M):
        part = dominance_partition(M)
        assert (part.p_values <= part.row_sums + 1e-12).all()


class TestComparisonMatrix:
    def test_definition(self):
        got = comparison_matrix([[2.0, -1.0], [3.0, 4.0]])
        assert np.array_equal(got, [[2.0, -1.0], [-3.0, 4.0]])

    def test_diagonal_fixed_point(self):
        D = np.diag([1.0, 2.0, 3.0])
        assert np.array_equal(comparison_matrix(D), D)

    @settings(max_examples=50, deadline=None)
    @given(small_matrices())
    def test_idempotent(self, M):
        once = comparison_matrix(M)
        assert np.array_equal(comparison_matrix(once), once)
        assert np.array_equal(np.abs(once.diagonal()), np.abs(np.asarray(M).diagonal()))
