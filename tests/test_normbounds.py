import math
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
    classify,
    comparison_matrix,
    determinant,
    dominance_bracket,
    dominance_ordering,
    dominance_partition,
    find_s_sdd1_witness,
    generate_b1,
    generate_sdd1,
    huang_bracket,
    inf_norm,
    inverse,
    is_s_sdd1,
    is_sdd1,
    lcp_b1_bound,
    s_sdd1_schur_bound,
    schur_complement,
    sdd1_epsilon_bound,
    sdd1_schur_bound,
    sdd_pairwise_bound,
    with_exact_norm,
)
from diagdom.normbounds import (
    _epsilon_pieces,
    _epsilon_value,
    _restricted_schur_bound,
)
from matrices import (
    DET_6X6_FIRST,
    DET_6X6_SECOND,
    LCP_8X8,
    NORM_8X8,
    SCHUR_6X6,
    SDD1_BY_ROUNDING,
    SINGLE_N2,
    TIE_N2_SCHUR,
    TIE_N2_WITNESS,
    TIE_T1,
    TIE_T2,
)
from test_memo import outcome
from test_oracle import random_sdd


# The fixtures that every SDD1 bound and both brackets accept.
SDD1_FIXTURES = [NORM_8X8, LCP_8X8, SCHUR_6X6, DET_6X6_FIRST, DET_6X6_SECOND, TIE_T1, TIE_T2]


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
        # The midpoint and 100 more points inside (0, sup), with rounding slack only.
        cert = sdd1_epsilon_bound(NORM_8X8)
        sup = cert.parameters["interval_sup"]
        for t in np.linspace(0.0, 1.0, 103)[1:-1]:
            fixed = sdd1_epsilon_bound(NORM_8X8, t * sup)
            assert cert.value <= fixed.value * (1 + 4 * 2**-53)

    @staticmethod
    def auto_without_warnings(A):
        """``sdd1_epsilon_bound(A)``, checked against the fixed path at its epsilon and the oracle."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = sdd1_epsilon_bound(A)
        assert cert.value == sdd1_epsilon_bound(A, cert.parameters["epsilon"]).value
        assert cert.value >= exact_norm(A)
        return cert

    def test_minimum_at_interval_start(self):
        # The grid and golden section stopped at 1.658616487754962, eps = 5.27e-7.
        cert = self.auto_without_warnings(generate_sdd1(3, 34, n1_fraction=0.2))
        assert cert.parameters["minimizer"] == "interval_start"
        assert cert.parameters["epsilon"] == math.nextafter(0.0, 1.0)
        assert cert.value == 1.6586152198981583

    def test_minimum_at_interval_end_with_a_zero_q0(self):
        # With q0_j = 0 the start is no candidate: at its adjacent float the
        # denominator eps * g_j is subnormal and its reciprocal overflows.
        A = generate_sdd1(3, 1, n1_fraction=0.2)
        part = dominance_partition(A)
        assert _epsilon_pieces(part)[3].min() == 0.0
        cert = self.auto_without_warnings(A)
        assert cert.parameters["minimizer"] == "interval_end"
        assert cert.parameters["epsilon"] == math.nextafter(cert.parameters["interval_sup"], 0.0)

    def test_interval_end_dropped_where_its_term_rounds_to_zero(self):
        # Here h0_i = |a_ii| - P_i, so h0_i - eps * rs_i is 0.0 at the float
        # below sup: the bound has no finite value there, and a breakpoint wins.
        A = generate_sdd1(3, 11, n1_fraction=0.2)
        part = dominance_partition(A)
        h0, rs1 = _epsilon_pieces(part)[:2]
        sup = sdd1_epsilon_bound(A).parameters["interval_sup"]
        assert (h0 - math.nextafter(sup, 0.0) * rs1).min() == 0.0
        assert self.auto_without_warnings(A).parameters["minimizer"] == "breakpoint"

    def test_infinite_sup_from_rounding_has_no_interval_end(self):
        # Rows of n1 without n2 mass pass the SDD1 test only by rounding, so
        # sup is infinite and the bound grows without limit in eps; at the
        # largest float, eps * g_j would overflow.
        cert = self.auto_without_warnings(SDD1_BY_ROUNDING)
        assert cert.parameters["interval_sup"] == math.inf
        assert cert.parameters["minimizer"] == "breakpoint"

    def test_minimum_at_the_kink(self):
        # N(eps) = max(1, m + eps) turns at eps = 1 - m = 13/21 inside (0, 6/7).
        A = [[7.0, 2.0, 2.0, 0.0], [1.0, 4.0, 3.0, 0.0], [0.0, 0.0, 4.0, 0.0], [2.0, 0.0, 0.0, 3.0]]
        cert = self.auto_without_warnings(A)
        assert cert.parameters["minimizer"] == "kink"
        assert cert.parameters["epsilon"] == 1.0 - 8.0 / 21.0
        assert cert.value == 0.84

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
    # With S = n2, R^{Sbar}_i + Q^S_i is P_i, so S-SDD1 is SDD1 and the
    # witness bound is sdd1_schur_bound.
    @staticmethod
    def _sdd1_inputs(sdd1_ensemble, b1_ensemble):
        return [*sdd1_ensemble, *(b1_split(M).a for M in b1_ensemble), *SDD1_FIXTURES,
                SDD1_BY_ROUNDING, SINGLE_N2]

    def test_reduction_to_full_n2_is_exact(self, sdd1_ensemble, b1_ensemble):
        # The bound agrees to the bit in value, phi and psi.
        for A in self._sdd1_inputs(sdd1_ensemble, b1_ensemble):
            n2 = dominance_partition(A).n2
            if len(n2) >= 2:
                full, restricted = sdd1_schur_bound(A), s_sdd1_schur_bound(A, n2)
                assert (restricted.value, restricted.parameters) == (full.value, full.parameters)

    def test_full_n2_agrees_within_rounding(self, sdd1_ensemble, b1_ensemble):
        # Membership agrees too, down to rows that are dominant only after
        # rounding (SDD1_BY_ROUNDING): n2 is a witness exactly when A is
        # SDD1, and it is the witness reported.
        for A in self._sdd1_inputs(sdd1_ensemble, b1_ensemble):
            n2 = dominance_partition(A).n2
            assert is_s_sdd1(A, n2) == is_sdd1(A) is True
            assert find_s_sdd1_witness(A) == n2

    def test_decimal_tie_in_n2_is_neither_sdd1_nor_s_sdd1(self):
        # P_0 = 0.9 + 0.06 * 0.5 rounds to |a_00| = 0.93, while the margin
        # (0.93 - 0.9) - 0.03 rounds to +2.8e-17: a test on that margin took
        # n2 for a witness and gave a vacuous 5.8e16 bound.
        n2 = dominance_partition(TIE_N2_WITNESS).n2
        assert classify(TIE_N2_WITNESS).s_sdd1_witness is None
        assert is_s_sdd1(TIE_N2_WITNESS, n2) is is_sdd1(TIE_N2_WITNESS) is False
        for call in (lambda: s_sdd1_schur_bound(TIE_N2_SCHUR, dominance_partition(TIE_N2_SCHUR).n2),
                     lambda: sdd1_schur_bound(TIE_N2_SCHUR)):
            with pytest.raises(HypothesisError):
                call()

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
        # Row 0 stays unscaled, so its eliminated-row term 1 + phi R^S_0 is finite.
        tie = 2.0**-10
        M = np.ldexp([[1.0, -1.0, -1.0], [-tie, 1.0, -tie], [-tie, -tie, 1.0]], 515)
        M[0] = [1.0, -1.0, -1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = lcp_b1_bound(M)
        assert cert.parameters["phi"] == np.ldexp(1.0 + tie, 515)
        assert cert.parameters["psi"] is not None and math.isfinite(cert.value)

    def test_lcp_overflowing_eliminated_row_term_raises(self):
        # Scaled as a whole, phi R^S_0 is about 2^1031: no vacuous inf certificate.
        tie = 2.0**-10
        M = np.ldexp([[1.0, -1.0, -1.0], [-tie, 1.0, -tie], [-tie, -tie, 1.0]], 515)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DenominatorError) as info:
                lcp_b1_bound(M)
        assert info.value.rows == (0,)
        assert info.value.what.startswith("eliminated-row term")

    def test_epsilon_denominator_names_non_dominant_rows(self):
        # Past the interval's supremum a non-dominant row's term h0 - eps * rs turns negative.
        part = dominance_partition(NORM_8X8)
        pieces = _epsilon_pieces(part)
        eps = 10 * sdd1_epsilon_bound(NORM_8X8).parameters["interval_sup"]
        for call in (lambda: _epsilon_value(pieces, eps),
                     lambda: _epsilon_value(pieces, np.array([eps / 100, eps]))):
            with pytest.raises(DenominatorError) as info:
                call()
            assert info.value.rows and set(info.value.rows) <= set(part.n1)

    def test_overflowing_epsilon_bound_raises(self):
        # At 2^-1040 the entries are subnormal: every epsilon term stays positive,
        # but max(1, m + eps) / D overflows, on the automatic and the fixed path.
        A = generate_sdd1(8, 3, n1_fraction=0.5)
        unscaled = sdd1_epsilon_bound(A).parameters
        B = np.ldexp(A, -1040)
        part = dominance_partition(B)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for eps in (None, unscaled["epsilon"], unscaled["interval_sup"] / 2):
                with pytest.raises(DenominatorError) as info:
                    sdd1_epsilon_bound(B, eps)
                assert info.value.what.startswith("epsilon bound")
                assert info.value.rows and set(info.value.rows) <= set(range(8))
        # The rows named are those whose term is the least: the D overflowed on.
        pieces = _epsilon_pieces(part)
        h0, rs1, g, q0, _, _ = pieces
        eps = unscaled["epsilon"]
        terms = dict(zip(part.n1 + part.n2, np.concatenate([h0 - eps * rs1, eps * g + q0])))
        with pytest.raises(DenominatorError) as info:
            sdd1_epsilon_bound(B, eps)
        assert info.value.rows == tuple(sorted(i for i, t in terms.items()
                                               if t == min(terms.values())))

    def test_restricted_margin_names_eliminated_rows(self):
        part = dominance_partition(NORM_8X8)
        with pytest.raises(DenominatorError) as info:
            _restricted_schur_bound(FORMULA_SDD1_SCHUR, part, part.n2, (part.r_n2, 10 * part.diag))
        assert info.value.rows and set(info.value.rows) <= set(part.n1)


def test_moduli_only_outputs_are_the_same_on_the_comparison_matrix(sdd1_ensemble):
    # Every norm certificate and both determinant brackets read only the moduli
    # |a_ij|, so each is bit-identical on A and on <A> = comparison_matrix(A); a
    # formula that started to read a sign would differ.  SDD_PAIRWISE refuses the
    # ensemble (it is not SDD), so it also runs on the SDD complement A/n2.
    def ordered(bracket):
        return lambda M: bracket(dominance_ordering(M).apply(M))

    for A in sdd1_ensemble:
        n2 = list(dominance_partition(A).n2)
        S = schur_complement(A, n2).complement
        for f, M in [(sdd_pairwise_bound, A), (sdd_pairwise_bound, S), (sdd1_schur_bound, A),
                     (sdd1_epsilon_bound, A), (lambda M: s_sdd1_schur_bound(M, n2), A),
                     (ordered(huang_bracket), A), (ordered(dominance_bracket), A)]:
            got = outcome(lambda: f(M))
            assert got == outcome(lambda: f(comparison_matrix(M)))
            assert got[0] != "raises" or M is A and f is sdd_pairwise_bound


def test_moduli_only_outputs_hold_for_the_comparison_matrix(sdd1_ensemble, b1_ensemble):
    # For an H-matrix ||A^-1|| <= ||<A>^-1|| and det<A> <= |det A|, so a bound
    # that reads only the moduli must also bound the oracles of <A> itself:
    # each norm certificate under verify's slack rule, each bracket within
    # 1e-9 relative.  The B1 members enter through their SDD1 shift parts.
    for A in [*sdd1_ensemble, *(b1_split(M).a for M in b1_ensemble), *SDD1_FIXTURES]:
        C = comparison_matrix(A)
        exact, det = inf_norm(inverse(C)), determinant(C)
        n2 = list(dominance_partition(A).n2)
        for cert in (sdd1_schur_bound(A), sdd1_epsilon_bound(A), s_sdd1_schur_bound(A, n2)):
            assert cert.value - exact >= -1e-9 * min(1.0, exact)
        for bracket in (huang_bracket(A), dominance_bracket(A)):
            assert bracket.lower <= det * (1 + 1e-9) and det <= bracket.upper * (1 + 1e-9)
