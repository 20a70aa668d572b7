import numpy as np
import pytest

from diagdom import (
    SizeLimitError,
    ValidationError,
    WitnessError,
    b1_split,
    classify,
    dominance_degrees,
    dominance_partition,
    find_s_sdd1_witness,
    is_b1,
    is_h_matrix,
    is_p_matrix,
    is_s_sdd1,
    is_sdd,
    is_sdd1,
)
from diagdom.classify import WITNESS_SEARCH_MAX
from matrices import DET_6X6_SECOND, LCP_8X8, NORM_8X8, SCHUR_5X5, SCHUR_6X6
from test_oracle import random_sdd


class TestSdd:
    def test_identity(self):
        assert is_sdd(np.eye(3))

    def test_boundary_row_fails(self):
        # Row 4 of the 5x5 fixture has |a_44| == R_4 exactly.
        assert not is_sdd(SCHUR_5X5)

    def test_fixture_with_nonempty_n1(self):
        assert not is_sdd(NORM_8X8)


class TestSdd1:
    def test_fixtures(self):
        assert is_sdd1(SCHUR_6X6)
        assert is_sdd1(DET_6X6_SECOND)
        assert is_sdd1(NORM_8X8)

    def test_symmetric_off_dominant(self):
        assert not is_sdd1([[1.0, 2.0], [2.0, 1.0]])

    def test_exact_tie_is_not_sdd1(self):
        # Row 0 is non-dominant with P_0 = 2 * (0.5 / 1) = 1 = |a_00| exactly.
        A = [[1.0, 2.0], [0.5, 1.0]]
        assert dominance_degrees(A)[0] == 0.0
        assert not is_sdd1(A) and not classify(A).is_sdd1

    def test_degrees_positive_iff_sdd1(self):
        assert (dominance_degrees(SCHUR_6X6) > 0).all()
        assert (dominance_degrees([[1.0, 2.0], [2.0, 1.0]]) <= 0).any()


class TestSSdd1:
    def test_sdd_with_one_row_dropped(self):
        A = random_sdd(5, 77)
        part = dominance_partition(A)
        S = [i for i in part.n2 if i != part.n2[0]]
        assert is_s_sdd1(A, S)

    def test_full_n2_witness_for_sdd1(self):
        part = dominance_partition(SCHUR_6X6)
        assert is_s_sdd1(SCHUR_6X6, part.n2)

    def test_empty_n2_has_no_witness(self):
        with pytest.raises(WitnessError):
            is_s_sdd1([[1.0, 2.0], [2.0, 1.0]], [0])

    def test_witness_outside_n2_rejected(self):
        part = dominance_partition(SCHUR_6X6)
        assert part.n1
        with pytest.raises(WitnessError):
            is_s_sdd1(SCHUR_6X6, [part.n1[0]])

    def test_s_restricted_implies_sdd1(self, sdd1_ensemble):
        rng = np.random.default_rng(4)
        for A in sdd1_ensemble[:30]:
            part = dominance_partition(A)
            k = int(rng.integers(1, len(part.n2) + 1))
            S = list(rng.choice(part.n2, size=k, replace=False))
            if is_s_sdd1(A, S):
                assert is_sdd1(A)

    def test_witness_search_prefers_full_n2(self):
        part = dominance_partition(SCHUR_6X6)
        assert find_s_sdd1_witness(SCHUR_6X6) == part.n2

    def test_witness_search_size_guard(self):
        # Every row of the identity is dominant: |n2| = 16 is past the guard.
        with pytest.raises(SizeLimitError):
            find_s_sdd1_witness(np.eye(WITNESS_SEARCH_MAX + 1))

    def test_no_witness(self):
        # n2 = {1, 2, 3}, but no subset of it compensates the heavy first row.
        A = [[1.0, 6.0, 0.0, 0.0], [0.0, 5.0, 1.0, 0.0], [0.0, 1.0, 5.0, 0.0], [4.0, 0.0, 0.0, 5.0]]
        assert dominance_partition(A).n2 == (1, 2, 3)
        assert find_s_sdd1_witness(A) is None


class TestInclusionChain:
    def test_sdd_implies_sdd1_implies_h(self, sdd1_ensemble):
        for seed in range(10):
            A = random_sdd(6, 500 + seed)
            assert is_sdd(A) and is_sdd1(A) and is_h_matrix(A)
        for A in sdd1_ensemble[:20]:
            assert is_sdd1(A) and is_h_matrix(A)


class TestB1Split:
    def test_nonpositive_off_diagonal_gives_zero_shift(self):
        split = b1_split(LCP_8X8)
        assert np.array_equal(split.r, np.zeros(8))
        assert np.array_equal(split.a, LCP_8X8)
        assert np.array_equal(split.c, np.zeros((8, 8)))

    def test_hand_case(self):
        split = b1_split([[2.0, 1.0], [1.0, 2.0]])
        assert np.array_equal(split.r, [1.0, 1.0])
        assert np.array_equal(split.a, np.eye(2))

    def test_constant_rows(self):
        rng = np.random.default_rng(8)
        M = rng.normal(size=(5, 5))
        split = b1_split(M)
        assert (split.c == split.r[:, None]).all()
        masked = np.array(M)
        np.fill_diagonal(masked, -np.inf)
        assert np.array_equal(split.r, np.maximum(0.0, masked.max(axis=1)))

    def test_reconstruction_exact_on_ensemble(self, b1_ensemble):
        for M in b1_ensemble:
            split = b1_split(M)
            assert np.array_equal(split.a + split.c, np.asarray(M))


class TestB1:
    def test_fixture(self):
        assert is_b1(LCP_8X8)

    def test_identity(self):
        assert is_b1(np.eye(3))

    def test_negated_identity(self):
        assert not is_b1(-np.eye(3))

    @pytest.mark.parametrize("n", [8, 40])  # on each side of the memo's largest order
    def test_overflowing_shift_part_is_rejected(self, n):
        # M is finite, but a_02 = M_02 - r_0 = -1.7e308 - 1.7e308 is not, while
        # a_00 > 0 passes the diagonal test: the shift part must not be judged.
        M = np.eye(n) * 4.0 + 0.1
        M[0, :3] = [1.79e308, 1.7e308, -1.7e308]
        with np.errstate(over="ignore"), pytest.raises(ValidationError):
            is_b1(M)

    def test_b1_implies_p(self, b1_ensemble):
        small = [M for M in b1_ensemble if M.shape[0] <= 10][:25]
        for M in small:
            assert is_p_matrix(M)


class TestClassReport:
    def test_report_consistency(self):
        rep = classify(SCHUR_6X6)
        assert rep.is_sdd1 and not rep.is_sdd
        assert rep.s_sdd1_witness == rep.partition.n2
        assert (rep.dominance_degrees > 0).all()

    def test_sdd_implies_sdd1_flag(self):
        rep = classify(random_sdd(5, 12))
        assert rep.is_sdd and rep.is_sdd1
