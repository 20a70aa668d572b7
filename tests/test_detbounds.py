import math

import numpy as np
import pytest

from diagdom import (
    FORMULA_DET_HUANG,
    FORMULA_DET_NEW,
    HypothesisError,
    bracket_nesting_check,
    determinant,
    dominance_bracket,
    dominance_ordering,
    generate_sdd1,
    huang_bracket,
)
from matrices import (
    DET_6X6_FIRST,
    DET_6X6_FIRST_RATIO,
    DET_6X6_SECOND,
    DET_6X6_SECOND_RATIO,
    SCHUR_5X5,
    SINGLE_N2,
    TOL1,
    TOL4,
)
from test_oracle import random_sdd


class TestOrdering:
    def test_already_ordered(self):
        ordering = dominance_ordering(DET_6X6_FIRST)
        assert ordering.permutation == (0, 1, 2, 3, 4, 5)
        assert ordering.s == 3

    def test_stable_permutation(self):
        ordering = dominance_ordering(SCHUR_5X5)
        assert ordering.permutation == (3, 4, 0, 1, 2)
        assert ordering.s == 2

    def test_apply_preserves_determinant(self):
        ordering = dominance_ordering(SCHUR_5X5)
        permuted = ordering.apply(SCHUR_5X5)
        assert abs(determinant(permuted)) == pytest.approx(abs(determinant(SCHUR_5X5)), rel=1e-12)

    def test_sdd_guard(self):
        with pytest.raises(HypothesisError):
            dominance_ordering(random_sdd(4, 3))


class TestHuangBracket:
    def test_first_fixture_theta(self):
        br = huang_bracket(DET_6X6_FIRST)
        assert br.theta == pytest.approx(0.45, abs=1e-12)
        assert br.formula_id == FORMULA_DET_HUANG

    def test_second_fixture_first_factor_collapses(self):
        br = huang_bracket(DET_6X6_SECOND)
        assert br.theta == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert br.factors[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert br.lower == pytest.approx(0.0, abs=1e-9)

    def test_contains_determinant(self):
        for M, det in ((DET_6X6_FIRST, None), (DET_6X6_SECOND, None)):
            br = huang_bracket(M)
            exact = abs(determinant(M))
            assert br.lower <= exact <= br.upper

    def test_negative_factor_clamps_product(self):
        # Push one non-dominant row hard enough that its lower factor dips
        # below zero while the matrix stays SDD1.
        M = np.array([
            [2.0, 0.5, 1.3, 1.3],
            [0.5, 2.0, 1.3, 0.2],
            [0.0, 0.3, 3.1, 0.1],
            [0.3, 0.0, 0.1, 3.1],
        ])
        br = huang_bracket(M)
        if (br.factors[:, 0] < 0).any():
            assert br.lower == 0.0
        assert br.lower <= abs(determinant(M)) <= br.upper

    def test_unavailable_when_decoupled(self):
        # Non-dominant row with no dominant-column mass: theta has no
        # candidates.  Such a matrix is necessarily outside SDD1.
        M = np.array([
            [0.0, 0.0, 0.0],
            [1.0, 3.0, 0.5],
            [0.5, 1.0, 3.0],
        ])
        with pytest.raises(HypothesisError) as err:
            huang_bracket(M)
        assert err.value.hypothesis == "theta undefined"

    def test_ordering_guard(self):
        with pytest.raises(HypothesisError):
            huang_bracket(SCHUR_5X5)  # not in dominance order


class TestDominanceBracket:
    def test_first_fixture_endpoints(self):
        br = dominance_bracket(DET_6X6_FIRST)
        assert br.lower == pytest.approx(DET_6X6_FIRST_RATIO[0], abs=TOL4)
        assert br.upper == pytest.approx(DET_6X6_FIRST_RATIO[1], abs=TOL4)
        assert br.formula_id == FORMULA_DET_NEW

    def test_second_fixture_endpoints(self):
        br = dominance_bracket(DET_6X6_SECOND)
        assert br.lower == pytest.approx(DET_6X6_SECOND_RATIO[0], abs=TOL1)
        assert br.upper == pytest.approx(DET_6X6_SECOND_RATIO[1], abs=TOL1)

    def test_lower_factors_strictly_positive(self, sdd1_ensemble):
        for A in sdd1_ensemble[:40]:
            ordered = dominance_ordering(A).apply(A)
            br = dominance_bracket(ordered)
            assert (br.factors[:, 0] > 0).all()
            assert 0 < br.lower <= br.upper

    def test_two_by_two_boundary(self):
        br = dominance_bracket(SINGLE_N2)
        exact = abs(determinant(SINGLE_N2))
        assert br.lower <= exact + 1e-12
        assert exact <= br.upper + 1e-12


@pytest.mark.parametrize("bracket", [huang_bracket, dominance_bracket])
def test_brackets_need_both_row_classes(bracket):
    # Strictly dominant input has an empty n1, where neither bracket is defined.
    with pytest.raises(HypothesisError) as err:
        bracket(random_sdd(5, 3))
    assert err.value.hypothesis == "n1 or n2 is empty"


class TestNesting:
    def test_fixtures(self):
        assert bracket_nesting_check(DET_6X6_FIRST)
        assert bracket_nesting_check(DET_6X6_SECOND)

    def test_ensemble(self, sdd1_ensemble):
        for A in sdd1_ensemble[:60]:
            ordered = dominance_ordering(A).apply(A)
            assert bracket_nesting_check(ordered)

    # ROADMAP item 2: the float products overflow at order 256, and np.prod
    # warns on the way; the assertions below pin the structured error.
    @pytest.mark.filterwarnings("ignore:overflow encountered in reduce:RuntimeWarning")
    def test_overflow_raises(self):
        # At order 256 both brackets and the oracle |det| overflow to inf,
        # where inf <= inf would pass every comparison of the chain.
        A = generate_sdd1(256, 5, 0.5)
        ordered = dominance_ordering(A).apply(A)
        assert dominance_bracket(ordered).upper == math.inf
        with pytest.raises(HypothesisError) as err:
            bracket_nesting_check(ordered)
        assert err.value.hypothesis == "bracket or determinant not finite"
        assert "dominance_ratio.upper = inf" in str(err.value)
        assert "oracle |det| = inf" in str(err.value)

    def test_permutation_safety(self, sdd1_ensemble):
        for A in sdd1_ensemble[:20]:
            ordered = dominance_ordering(A).apply(A)
            br = dominance_bracket(ordered)
            exact = abs(determinant(A))  # determinant of the unpermuted matrix
            assert br.lower <= exact * (1 + 1e-9)
            assert exact <= br.upper * (1 + 1e-9)
