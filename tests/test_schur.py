import warnings

import numpy as np
import pytest

from diagdom import (
    HypothesisError,
    SingularBlockError,
    ValidationError,
    certified_bound_alpha_equals_n2,
    certified_bound_proper_subset,
    certified_bound_superset,
    comparison_matrix,
    determinant,
    dominance_partition,
    inverse,
    is_sdd,
    is_sdd1,
    quotient_formula_check,
    schur_complement,
    tilde_set_identity_check,
)
import reference
from matrices import NORM_8X8, SCHUR_5X5, SCHUR_5X5_COMPLEMENT, SCHUR_6X6, SCHUR_6X6_COMPLEMENT, TOL4
from test_oracle import random_sdd


def exact_sdd1_degrees(res):
    """Oracle: |a'_tt| - P_t of the complement, keyed by original index."""
    part = dominance_partition(res.complement)
    d = np.abs(res.complement.diagonal())
    return {res.alpha_bar[t]: d[t] - part.p_values[t] for t in range(len(res.alpha_bar))}


def exact_sdd_degrees(res):
    """Oracle: |a'_tt| - R_t of the complement, keyed by original index."""
    part = dominance_partition(res.complement)
    d = np.abs(res.complement.diagonal())
    return {res.alpha_bar[t]: d[t] - part.row_sums[t] for t in range(len(res.alpha_bar))}


class TestComplement:
    def test_5x5_exact(self):
        res = schur_complement(SCHUR_5X5, [0])
        assert np.array_equal(res.complement, SCHUR_5X5_COMPLEMENT)
        assert res.alpha_bar == (1, 2, 3, 4)
        assert res.tilde_n1 == (4,)
        assert res.tilde_n2 == (1, 2, 3)
        assert not res.complement.flags.writeable  # results are immutable

    def test_6x6_printed_entries(self):
        res = schur_complement(SCHUR_6X6, [0, 1])
        assert np.abs(res.complement - SCHUR_6X6_COMPLEMENT).max() < TOL4

    def test_block_diagonal(self):
        A = np.zeros((5, 5))
        A[:2, :2] = [[2.0, 1.0], [0.5, 3.0]]
        A[2:, 2:] = random_sdd(3, 1)
        res = schur_complement(A, [0, 1])
        assert np.array_equal(res.complement, A[2:, 2:])

    def test_singular_block(self):
        A = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
        with pytest.raises(SingularBlockError):
            schur_complement(A, [0, 1])

    def test_nonfinite_complement(self):
        # Eliminating the tiny pivot overflows the solve: 1e300 / 3e-300.
        A = [[3e-300, 1e300, 0.0], [1e300, 1.0, 0.0], [0.0, 0.0, 1.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"complement A/alpha for alpha \(1,\)"):
                schur_complement(A, [0])
            with pytest.raises(ValidationError, match="non-finite"):
                quotient_formula_check(A, [0, 1], [0])

    def test_alpha_validation(self):
        with pytest.raises(ValidationError):
            schur_complement(SCHUR_5X5, [])
        with pytest.raises(ValidationError):
            schur_complement(SCHUR_5X5, range(5))

    def test_delta_nonnegative_and_sandwich(self):
        res = schur_complement(SCHUR_6X6, [0, 1])
        assert res.delta is not None
        assert (res.delta >= 0).all()
        orig = np.abs(SCHUR_6X6[np.ix_(res.alpha_bar, res.alpha_bar)])
        got = np.abs(res.complement)
        assert (got >= orig - res.delta - 1e-12).all()
        assert (got <= orig + res.delta + 1e-12).all()

    def test_delta_absent_when_pivot_comparison_is_singular(self):
        # A(alpha) = [[1, 1], [-1, 1]] is invertible, but its comparison matrix
        # [[1, -1], [-1, 1]] is singular, so the pivot block is no H-matrix.
        A = np.array([[1.0, 1.0, 0.5], [-1.0, 1.0, 0.5], [0.5, 0.5, 4.0]])
        res = schur_complement(A, [0, 1])
        assert res.delta is None
        assert reference.schur_complement(A, [0, 1])[4] is None

    def test_determinant_identity(self):
        res = schur_complement(SCHUR_6X6, [0, 1])
        lhs = determinant(SCHUR_6X6)
        rhs = determinant(SCHUR_6X6[np.ix_(res.alpha, res.alpha)]) * determinant(res.complement)
        assert lhs == pytest.approx(rhs, rel=1e-8)


class TestTildeSets:
    def test_5x5_identities(self):
        assert tilde_set_identity_check(SCHUR_5X5, [0])

    def test_6x6_identities(self):
        assert tilde_set_identity_check(SCHUR_6X6, [0, 1])

    def test_guard(self):
        part = dominance_partition(SCHUR_6X6)
        with pytest.raises(HypothesisError):
            tilde_set_identity_check(SCHUR_6X6, part.n2)  # not a proper subset

    def test_ensemble(self, sdd1_ensemble):
        rng = np.random.default_rng(11)
        for A in sdd1_ensemble[:40]:
            n2 = dominance_partition(A).n2
            if len(n2) < 2:
                continue
            k = int(rng.integers(1, len(n2)))
            alpha = sorted(rng.choice(n2, size=k, replace=False).tolist())
            assert tilde_set_identity_check(A, alpha)


class TestCertifiedProperSubset:
    def test_6x6_values_bracketed(self):
        A = SCHUR_6X6
        res = schur_complement(A, [0, 1])
        assert res.certified_kind == "sdd1_degree"
        exact = exact_sdd1_degrees(res)
        degrees = np.abs(A.diagonal()) - dominance_partition(A).p_values
        for jt, cert in res.certified_lower_bounds.items():
            assert cert > 0
            assert cert <= exact[jt] + 1e-12
            assert cert >= degrees[jt] - 1e-12

    def test_zero_coupling_reduction(self):
        # Column 0 carries no mass below the diagonal, so eliminating row 0
        # leaves every surviving certified value free of coupling terms.
        A = np.array([
            [3.0, 1.0, 0.0, 0.0],
            [0.0, 4.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 1.5],
            [0.0, 0.0, 0.5, 2.0],
        ])
        part = dominance_partition(A)
        assert set(part.n2) >= {0, 1}
        vals = certified_bound_proper_subset(A, [0])
        d = np.abs(A.diagonal())
        off = np.abs(A).copy()
        np.fill_diagonal(off, 0.0)
        w = part.row_sums / np.where(d > 0, d, 1.0)
        for jt, cert in vals.items():
            n2_rest = [j for j in part.n2 if j != 0]
            expected = (
                d[jt]
                - off[jt, list(part.n1)].sum()
                - sum(off[jt, j] * w[j] for j in n2_rest if j != jt)
            )
            assert cert == pytest.approx(expected, rel=1e-14)

    def test_guards(self):
        with pytest.raises(HypothesisError):
            certified_bound_proper_subset([[1.0, 2.0], [2.0, 1.0]], [0])
        part = dominance_partition(SCHUR_6X6)
        with pytest.raises(HypothesisError):
            certified_bound_proper_subset(SCHUR_6X6, part.n2)

    def test_sandwich_on_ensemble(self, sdd1_ensemble):
        rng = np.random.default_rng(21)
        for A in sdd1_ensemble[:40]:
            part = dominance_partition(A)
            if len(part.n2) < 2:
                continue
            k = int(rng.integers(1, len(part.n2)))
            alpha = sorted(rng.choice(part.n2, size=k, replace=False).tolist())
            res = schur_complement(A, alpha)
            assert is_sdd1(res.complement)
            exact = exact_sdd1_degrees(res)
            degrees = np.abs(A.diagonal()) - part.p_values
            for jt, cert in res.certified_lower_bounds.items():
                assert 0 < cert <= exact[jt] + 1e-10
                assert cert >= degrees[jt] - 1e-10


class TestCertifiedFullN2:
    def test_8x8(self):
        vals = certified_bound_alpha_equals_n2(NORM_8X8)
        part = dominance_partition(NORM_8X8)
        res = schur_complement(NORM_8X8, part.n2)
        assert is_sdd(res.complement)
        exact = exact_sdd_degrees(res)
        for jt, cert in vals.items():
            assert 0 < cert <= exact[jt] + 1e-12

    def test_sdd_input_guard(self):
        with pytest.raises(HypothesisError) as err:
            certified_bound_alpha_equals_n2(random_sdd(4, 2))
        assert "n1" in err.value.hypothesis

    def test_matches_schur_result_field(self):
        part = dominance_partition(NORM_8X8)
        res = schur_complement(NORM_8X8, part.n2)
        assert res.certified_kind == "sdd_degree"
        assert res.certified_lower_bounds == certified_bound_alpha_equals_n2(NORM_8X8)


class TestCertifiedSuperset:
    def test_8x8_superset(self):
        part = dominance_partition(NORM_8X8)
        alpha = sorted(part.n2 + (0,))
        vals = certified_bound_superset(NORM_8X8, alpha)
        res = schur_complement(NORM_8X8, alpha)
        assert is_sdd(res.complement)
        exact = exact_sdd_degrees(res)
        for jt, cert in vals.items():
            assert 0 < cert <= exact[jt] + 1e-12

    def test_singleton_complement(self):
        part = dominance_partition(NORM_8X8)
        keep = part.n1[0]
        alpha = [j for j in range(8) if j != keep]
        vals = certified_bound_superset(NORM_8X8, alpha)
        block = NORM_8X8[np.ix_(alpha, alpha)]
        ratio = abs(determinant(NORM_8X8) / determinant(block))
        assert vals[keep] <= ratio + 1e-10

    def test_guards(self):
        part = dominance_partition(NORM_8X8)
        with pytest.raises(HypothesisError):
            certified_bound_superset(NORM_8X8, part.n2)  # not strict


class TestQuotientFormula:
    def test_random_sdd(self):
        A = random_sdd(6, 31)
        assert quotient_formula_check(A, [0, 1, 2], [0])

    def test_block_diagonal(self):
        A = np.zeros((4, 4))
        A[:2, :2] = [[2.0, 0.5], [0.5, 2.0]]
        A[2:, 2:] = [[3.0, 1.0], [1.0, 3.0]]
        assert quotient_formula_check(A, [0, 1], [0])

    def test_fixture(self):
        assert quotient_formula_check(SCHUR_6X6, [0, 1], [0])

    def test_validation(self):
        with pytest.raises(ValidationError):
            quotient_formula_check(SCHUR_6X6, [0], [0])


class TestMonotoneDominance:
    def test_surviving_dominant_rows_improve(self, sdd1_ensemble):
        rng = np.random.default_rng(13)
        for A in sdd1_ensemble[:30]:
            part = dominance_partition(A)
            if len(part.n2) < 2:
                continue
            alpha = [part.n2[0]]
            res = schur_complement(A, alpha)
            cpart = dominance_partition(res.complement)
            d = np.abs(res.complement.diagonal())
            dA = np.abs(np.asarray(A).diagonal())
            for t, jt in enumerate(res.alpha_bar):
                if jt in set(part.n2) - set(alpha):
                    lhs = cpart.row_sums[t] / d[t]
                    rhs = part.row_sums[jt] / dA[jt]
                    assert lhs <= rhs + 1e-12


class TestPriorConstruction:
    def test_inverse_image_bounded(self, sdd1_ensemble):
        # The inequality behind every certified bound: for x below the
        # outside-row sums, the comparison-inverse image stays below
        # (x + damped alpha sums) / diagonal.
        rng = np.random.default_rng(17)
        for A in sdd1_ensemble[:25]:
            part = dominance_partition(A)
            if not part.n2:
                continue
            k = int(rng.integers(1, len(part.n2) + 1))
            alpha = sorted(rng.choice(part.n2, size=k, replace=False).tolist())
            bar = [j for j in range(A.shape[0]) if j not in set(alpha)]
            if not bar:
                continue
            off = np.abs(np.asarray(A)).copy()
            np.fill_diagonal(off, 0.0)
            d = np.abs(np.asarray(A).diagonal())
            cap = off[np.ix_(alpha, bar)].sum(axis=1)
            x = rng.random(len(alpha)) * cap
            block_inv = inverse(comparison_matrix(np.asarray(A)[np.ix_(alpha, alpha)]))
            got = block_inv @ x
            w = part.row_sums / np.where(d > 0, d, 1.0)
            q_alpha = off[np.ix_(alpha, alpha)] @ w[alpha]
            expected = (x + q_alpha) / d[alpha]
            assert (got <= expected + 1e-12).all()
            assert (expected <= part.row_sums[alpha] / d[alpha] + 1e-12).all()
