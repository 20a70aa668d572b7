import warnings

import numpy as np
import pytest

from diagdom import (
    FORMULA_SDD1_SCHUR,
    FORMULA_SDD_PAIRWISE,
    DenominatorError,
    HypothesisError,
    ParameterError,
    WitnessError,
    b1_split,
    dominance_partition,
    generate_b1,
    generate_sdd1,
    inf_norm,
    inverse,
    lcp_b1_bound,
    s_sdd1_schur_bound,
    sdd1_epsilon_bound,
    sdd1_schur_bound,
    sdd_pairwise_bound,
    with_exact_norm,
)
from diagdom.normbounds import (
    _epsilon_pieces,
    _epsilon_value,
    _epsilon_value_floats,
    _restricted_schur_value,
)
from matrices import NORM_8X8, SINGLE_N2
from test_oracle import random_sdd


def exact_norm(A):
    return inf_norm(inverse(A))


class TestPairwise:
    def test_two_by_two_tight(self):
        cert = sdd_pairwise_bound([[2.0, 1.0], [0.0, 2.0]])
        assert cert.value == pytest.approx(0.75, abs=1e-15)
        assert exact_norm([[2.0, 1.0], [0.0, 2.0]]) == pytest.approx(0.75)

    def test_identity(self):
        assert sdd_pairwise_bound(np.eye(3)).value == 1.0

    def test_sound_on_random_sdd(self):
        for seed in range(10):
            A = random_sdd(8, 700 + seed)
            cert = with_exact_norm(sdd_pairwise_bound(A), A)
            assert cert.slack >= -1e-9

    def test_guards(self):
        with pytest.raises(HypothesisError):
            sdd_pairwise_bound(NORM_8X8)  # not SDD
        with pytest.raises(HypothesisError):
            sdd_pairwise_bound([[2.0]])


class TestEpsilonBound:
    def test_explicit_epsilon_sound(self):
        cert = with_exact_norm(sdd1_epsilon_bound(NORM_8X8, 0.2122), NORM_8X8)
        assert cert.slack >= -1e-9
        assert cert.parameters["epsilon"] == 0.2122
        assert not cert.parameters["auto"]

    def test_epsilon_out_of_interval(self):
        sup = sdd1_epsilon_bound(NORM_8X8).parameters["interval_sup"]
        for bad in (0.0, -0.1, sup, sup + 1.0):
            with pytest.raises(ParameterError):
                sdd1_epsilon_bound(NORM_8X8, bad)

    def test_auto_inside_open_interval(self):
        cert = sdd1_epsilon_bound(NORM_8X8)
        sup = cert.parameters["interval_sup"]
        assert 0.0 < cert.parameters["epsilon"] < sup
        assert cert.parameters["auto"]

    def test_auto_no_worse_than_midpoint(self):
        cert = sdd1_epsilon_bound(NORM_8X8)
        sup = cert.parameters["interval_sup"]
        mid = sdd1_epsilon_bound(NORM_8X8, sup / 2.0)
        assert cert.value <= mid.value + 1e-12

    def test_guards(self):
        with pytest.raises(HypothesisError):
            sdd1_epsilon_bound([[1.0, 2.0], [2.0, 1.0]])  # not SDD1
        with pytest.raises(HypothesisError):
            sdd1_epsilon_bound(random_sdd(4, 5))  # n1 empty

    def test_sound_on_ensemble(self, sdd1_ensemble):
        # The minimized value bounds the value at every admissible epsilon,
        # so soundness of the minimum covers the whole grid.
        for A in sdd1_ensemble[:40]:
            cert = with_exact_norm(sdd1_epsilon_bound(A), A)
            assert cert.slack >= -1e-9


class TestSchurBound:
    def test_sound_on_fixture(self):
        cert = with_exact_norm(sdd1_schur_bound(NORM_8X8), NORM_8X8)
        assert cert.slack >= -1e-9

    def test_substitution_when_n1_empty(self):
        A = random_sdd(5, 41)
        cert = sdd1_schur_bound(A)
        assert cert.formula_id == FORMULA_SDD1_SCHUR
        assert cert.parameters["substituted_formula"] == FORMULA_SDD_PAIRWISE
        assert cert.value == sdd_pairwise_bound(A).value
        assert with_exact_norm(cert, A).slack >= -1e-9

    def test_single_dominant_row_branch(self):
        part = dominance_partition(SINGLE_N2)
        assert len(part.n2) == 1
        cert = with_exact_norm(sdd1_schur_bound(SINGLE_N2), SINGLE_N2)
        assert cert.parameters["phi"] == pytest.approx(1.0 / 3.0)
        assert cert.slack >= -1e-9

    def test_sound_on_ensemble(self, sdd1_ensemble):
        for A in sdd1_ensemble[:60]:
            cert = with_exact_norm(sdd1_schur_bound(A), A)
            assert cert.slack >= -1e-9

    def test_guard(self):
        with pytest.raises(HypothesisError):
            sdd1_schur_bound([[1.0, 2.0], [2.0, 1.0]])


class TestWitnessBound:
    def test_reduction_to_full_n2_is_exact(self, sdd1_ensemble):
        for A in [NORM_8X8] + sdd1_ensemble[:20]:
            part = dominance_partition(A)
            if len(part.n2) < 2:
                continue
            full = sdd1_schur_bound(A)
            restricted = s_sdd1_schur_bound(A, part.n2)
            assert restricted.value == full.value

    def test_cardinality_guard(self):
        with pytest.raises(HypothesisError):
            s_sdd1_schur_bound(SINGLE_N2, dominance_partition(SINGLE_N2).n2)

    def test_witness_covering_every_row(self):
        # On SDD input S = N is a witness; no row is left to eliminate, so psi
        # is absent and the bound is the prefactor times the pairwise term.
        A = random_sdd(5, 7)
        cert = with_exact_norm(s_sdd1_schur_bound(A, range(5)), A)
        assert cert.parameters["psi"] is None
        assert cert.parameters["reason"] == "S complement empty"
        assert cert.slack >= 0.0

    def test_invalid_witness(self):
        with pytest.raises(WitnessError):
            s_sdd1_schur_bound(NORM_8X8, [0, 1])  # rows from n1

    def test_not_s_restricted_dominant(self):
        # A valid subset of n2 that cannot compensate the heavy first row.
        A = np.array([
            [1.0, 6.0, 0.0, 0.0],
            [0.0, 5.0, 1.0, 0.0],
            [0.0, 1.0, 5.0, 0.0],
            [4.0, 0.0, 0.0, 5.0],
        ])
        part = dominance_partition(A)
        assert set(part.n2) >= {1, 2}
        with pytest.raises(HypothesisError):
            s_sdd1_schur_bound(A, [1, 2])

    def test_sound_on_ensemble(self, sdd1_ensemble):
        for A in sdd1_ensemble[:40]:
            part = dominance_partition(A)
            if len(part.n2) < 2:
                continue
            cert = with_exact_norm(s_sdd1_schur_bound(A, part.n2), A)
            assert cert.slack >= -1e-9


class TestDenominatorErrors:
    """A denominator that is not positive raises a structured error naming its
    rows, also under ``python -O``; no bound is clamped or returned."""

    @pytest.mark.parametrize("exponent", [-600, 600])
    def test_scaled_pairwise_denominator(self, exponent):
        # At 2^-600 |a_ii||a_jj| - R_i R_j underflows to 0; at 2^600 it overflows.
        A = np.ldexp(generate_sdd1(6, 3, 0.5), exponent)
        M = np.ldexp(generate_b1(6, 3, 0.45), exponent)
        n2 = dominance_partition(A).n2
        with np.errstate(over="ignore", invalid="ignore"):
            for call, rows in ((lambda: sdd1_schur_bound(A), n2),
                               (lambda: s_sdd1_schur_bound(A, n2), n2),
                               (lambda: lcp_b1_bound(M), dominance_partition(b1_split(M).a).n2)):
                with pytest.raises(DenominatorError) as info:
                    call()
                assert info.value.rows and set(info.value.rows) <= set(rows)
                assert str(list(info.value.rows)) in str(info.value)

    @pytest.mark.parametrize("exponent", [510, 515, 600])
    def test_overflowing_diagonal_product(self, exponent):
        # From 2^512 on |a_ii||a_jj| overflows to inf while R_i R_j stays finite,
        # so the pairwise term (|a_jj| + R_i) / inf would vanish.
        tie = 2.0**-10
        A = np.ldexp([[1.0, 1.0, 1.0], [tie, 1.0, tie], [tie, tie, 1.0]], exponent)
        B = np.ldexp([[1.0, tie], [tie, 1.0]], exponent)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call, M in ((lambda: sdd1_schur_bound(A), A),
                            (lambda: s_sdd1_schur_bound(A, [1, 2]), A),
                            (lambda: sdd_pairwise_bound(B), B)):
                if exponent < 512:
                    assert call().value >= exact_norm(M)
                else:
                    with pytest.raises(DenominatorError):
                        call()

    def test_lcp_caps_an_overflowing_pairwise_denominator(self):
        # The LCP bound's pairwise denominator min(1, a_ii, a_jj, .) is 1 either way.
        tie = 2.0**-10
        M = np.ldexp([[1.0, -1.0, -1.0], [-tie, 1.0, -tie], [-tie, -tie, 1.0]], 515)
        with np.errstate(over="ignore"):
            cert = lcp_b1_bound(M)
        assert cert.parameters["phi"] == np.ldexp(1.0 + tie, 515)

    def test_epsilon_denominator_names_non_dominant_rows(self):
        # Past the interval's supremum a non-dominant row's term h0 - eps * rs turns negative.
        part = dominance_partition(NORM_8X8)
        pieces = _epsilon_pieces(part, part.off[:, list(part.n2)].sum(axis=1))
        eps = 10 * sdd1_epsilon_bound(NORM_8X8).parameters["interval_sup"]
        floats = (*(p.tolist() for p in pieces[:4]), *pieces[4:])
        for call in (lambda: _epsilon_value(pieces, eps),
                     lambda: _epsilon_value(pieces, np.array([eps / 100, eps])),
                     lambda: _epsilon_value_floats(floats, eps)):
            with pytest.raises(DenominatorError) as info:
                call()
            assert info.value.rows and set(info.value.rows) <= set(part.n1)

    def test_restricted_margin_names_eliminated_rows(self):
        part = dominance_partition(NORM_8X8)
        with pytest.raises(DenominatorError) as info:
            _restricted_schur_value(part, list(part.n2), 10 * part.diag)
        assert info.value.rows and set(info.value.rows) <= set(part.n1)
