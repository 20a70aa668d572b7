import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest

import reference
from diagdom import (
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
import matrices
from diagdom.classify import _restricted_sums
from matrices import (
    DET_6X6_SECOND,
    LCP_8X8,
    NORM_8X8,
    SCHUR_5X5,
    SCHUR_6X6,
    TIE_EXACT_WITNESS,
    TIE_SUBSET_WITNESS,
)
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

    def test_witness_past_the_old_size_guard_is_n2(self):
        # Every row of the identity is dominant: |n2| = 16 was past the
        # exhaustive search's guard, and n2 is the witness with no search.
        assert find_s_sdd1_witness(np.eye(16)) == tuple(range(16))

    def test_no_witness(self):
        # n2 = {1, 2, 3}, but no subset of it compensates the heavy first row.
        A = [[1.0, 6.0, 0.0, 0.0], [0.0, 5.0, 1.0, 0.0], [0.0, 1.0, 5.0, 0.0], [4.0, 0.0, 0.0, 5.0]]
        assert dominance_partition(A).n2 == (1, 2, 3)
        assert find_s_sdd1_witness(A) is None

    def test_uncompensated_row_with_n2_of_15_has_no_witness(self):
        # Row 0 is in n1 and its P_0 = 15 * 0.4 * 1/5 = 1.2 exceeds |a_00| = 1.
        # The exhaustive search tried all 2^15 - 1 subsets of n2 here.
        A = np.eye(16) * 5.0
        A[0, 0], A[0, 1:], A[1:, 0] = 1.0, 0.4, 1.0
        rep = classify(A)
        assert rep.partition.n1 == (0,) and len(rep.partition.n2) == 15
        assert not rep.is_sdd1 and rep.s_sdd1_witness is None

    @staticmethod
    def exact_witnesses(A, n2):
        """Every nonempty S in n2 that is an S-SDD1 witness of A's stored doubles."""
        M = [[Fraction(abs(x)) for x in row] for row in A.tolist()]
        n = len(M)
        R = [sum(M[i][j] for j in range(n) if j != i) for i in range(n)]
        subsets = [S for k in range(1, len(n2) + 1) for S in itertools.combinations(n2, k)]
        return [S for S in subsets
                if all(M[i][i] > sum(M[i][j] * R[j] / M[j][j] if j in S else M[i][j]
                                     for j in range(n) if j != i) for i in range(n))]

    def test_subset_witness_at_a_decimal_tie_is_not_reported(self):
        rep = classify(TIE_SUBSET_WITNESS)
        assert not rep.is_sdd1 and rep.s_sdd1_witness is None
        part = rep.partition
        assert part.n2 == (0, 1, 3, 4) and self.exact_witnesses(TIE_SUBSET_WITNESS, part.n2) == []
        # In floats the restricted sums for S = (1, 3, 4) leave row 2 a margin.
        assert part.diag[2] == part.p_values[2]
        assert (part.diag > _restricted_sums(part, (1, 3, 4))[1]).all()

    def test_exact_witness_at_a_decimal_tie_follows_the_float_rule(self):
        # Exactly, n2 and (1, 2) are witnesses; the float P_3 says not SDD1,
        # and the report follows the float rule of the module docstring.
        rep = classify(TIE_EXACT_WITNESS)
        part = rep.partition
        assert part.n2 == (0, 1, 2) and part.diag[3] == part.p_values[3]
        assert {(1, 2), part.n2} <= set(self.exact_witnesses(TIE_EXACT_WITNESS, part.n2))
        assert not rep.is_sdd1 and rep.s_sdd1_witness is None

    def test_witness_agrees_with_the_exhaustive_search(self, sdd1_ensemble, b1_ensemble):
        fixtures = [A for name, A in vars(matrices).items()
                    if isinstance(A, np.ndarray) and A.ndim == 2 and A.shape[0] == A.shape[1]
                    and name not in ("TIE_SUBSET_WITNESS", "TIE_EXACT_WITNESS")]
        assert len(fixtures) >= 15
        for A in [*sdd1_ensemble, *b1_ensemble, *fixtures]:
            part = dominance_partition(A)
            want = part.n2 if part.n2 and is_sdd1(A) else None
            assert find_s_sdd1_witness(A) == reference.find_s_sdd1_witness(A) == want
        # At the two ties the search names a proper subset of n2; the library does not.
        assert reference.find_s_sdd1_witness(TIE_SUBSET_WITNESS) == (1, 3, 4)
        assert reference.find_s_sdd1_witness(TIE_EXACT_WITNESS) == (1, 2)
        assert find_s_sdd1_witness(TIE_SUBSET_WITNESS) is find_s_sdd1_witness(TIE_EXACT_WITNESS) is None


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

    def test_same_split_as_the_tiled_reference(self, sdd1_ensemble, b1_ensemble):
        # a and r byte for byte (zero signs included), c by value; c is a
        # read-only broadcast of r and holds no memory of its own.
        signed_zero_maxima = [[1.0, -0.0, -2.0], [-0.0, 2.0, -0.0], [0.0, -1.0, 3.0]]
        cases = [*sdd1_ensemble, *b1_ensemble, LCP_8X8, [[5.0]], [[-0.0]],
                 signed_zero_maxima, np.negative(signed_zero_maxima)]
        for M in cases:
            got, want = b1_split(M), reference.b1_split(M)
            assert got.a.tobytes() == want.a.tobytes()
            assert got.r.tobytes() == want.r.tobytes()
            assert np.array_equal(got.c, want.c)
            assert not got.c.flags.writeable and np.shares_memory(got.c, got.r)
        overflowing = np.eye(4) * 4.0 + 0.1
        overflowing[0, :3] = [1.79e308, 1.7e308, -1.7e308]
        for split in (b1_split, reference.b1_split):
            with pytest.raises(ValidationError, match="shift part M - c overflows"):
                split(overflowing)

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

    @pytest.mark.parametrize("n", [8, 40])  # a small and a moderate order
    def test_overflowing_shift_part_is_rejected(self, n):
        # M is finite, but a_02 = M_02 - r_0 = -1.7e308 - 1.7e308 is not: the
        # split rejects its shift part, and nothing warns on the way.
        M = np.eye(n) * 4.0 + 0.1
        M[0, :3] = [1.79e308, 1.7e308, -1.7e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="shift part M - c overflows"):
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

    def test_witness_is_n2_exactly_when_sdd1(self):
        found = classify(SCHUR_6X6)
        assert found.is_sdd1 and found.s_sdd1_witness == found.partition.n2
        none_found = classify(np.array([[1.0, 8.0], [0.5, 2.0]]))  # n2 = {1}, no witness
        assert not none_found.is_sdd1 and none_found.s_sdd1_witness is None
        n = 16  # |n2| past the former exhaustive search's guard
        large = classify(np.eye(n) * 2.0 + 1.0 / n)
        assert large.is_sdd1 and large.s_sdd1_witness == large.partition.n2 == tuple(range(n))
