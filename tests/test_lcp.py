import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagdom import (
    FORMULA_LCP_B1,
    HypothesisError,
    SizeLimitError,
    ValidationError,
    corner_norms,
    dominance_partition,
    generate_b1,
    generate_sdd1,
    lcp_b1_bound,
    run_experiment,
    scaled_matrix_sdd1_check,
)
from matrices import LCP_8X8, LCP_8X8_BOUND, SINGLE_N2_B1, TOL4
from test_vectorized import draw


def scaled(M, dvec):
    return np.diag(1.0 - dvec) + dvec[:, None] * M


class TestBound:
    def test_fixture_value(self):
        cert = lcp_b1_bound(LCP_8X8)
        assert cert.formula_id == FORMULA_LCP_B1
        assert cert.value == pytest.approx(LCP_8X8_BOUND, abs=TOL4)
        assert cert.parameters["zero_shift"]
        assert cert.parameters["coefficient"] == 1

    def test_identity(self):
        cert = lcp_b1_bound(np.eye(4))
        assert cert.value == 1.0
        assert (corner_norms(np.eye(4)) <= 1.0 + 1e-12).all()

    def test_zero_shift_reduction_consistency(self, b1_ensemble):
        for M in b1_ensemble[:40]:
            cert = lcp_b1_bound(M)
            n = M.shape[0]
            if cert.parameters["zero_shift"]:
                assert cert.parameters["coefficient"] == 1
            else:
                assert cert.parameters["coefficient"] == n - 1
                # Removing the shift coefficient recovers the reduced form.
                reduced = cert.value / (n - 1)
                assert reduced == pytest.approx(
                    cert.parameters["prefactor"]
                    * max(cert.parameters["phi"], cert.parameters["psi"] or 0.0),
                    rel=1e-12,
                )

    def test_single_dominant_row_branch(self):
        cert = lcp_b1_bound(SINGLE_N2_B1)
        # phi takes the max{1, 1/diagonal} route when n2 is a singleton.
        assert cert.parameters["phi"] == 1.0
        exact = corner_norms(SINGLE_N2_B1).max()
        assert cert.value >= exact - 1e-9

    def test_not_b1_guard(self):
        with pytest.raises(HypothesisError):
            lcp_b1_bound([[1.0, 2.0], [2.0, 1.0]])

    def test_sound_against_samples(self, b1_ensemble):
        for M in b1_ensemble[:25]:
            exp = run_experiment(M, 100, seed=99)
            assert exp.violations == 0


class TestExperiment:
    def test_deterministic_records(self):
        a = run_experiment(LCP_8X8, 40, seed=12345)
        b = run_experiment(LCP_8X8, 40, seed=12345)
        assert a.to_lines() == b.to_lines()
        assert np.array_equal(a.d_samples, b.d_samples)
        assert np.array_equal(a.exact_norms, b.exact_norms)
        assert not a.d_samples.flags.writeable  # records are immutable

    def test_different_seeds_differ(self):
        a = run_experiment(LCP_8X8, 10, seed=1)
        b = run_experiment(LCP_8X8, 10, seed=2)
        assert not np.array_equal(a.d_samples, b.d_samples)

    def test_fixture_run_clean(self):
        exp = run_experiment(LCP_8X8, 500, seed=7)
        assert exp.violations == 0
        assert exp.exact_norms.max() <= exp.analytic_bound + 1e-9
        assert (exp.d_samples >= 0).all() and (exp.d_samples < 1).all()

    def test_sample_count_validation(self):
        with pytest.raises(ValidationError):
            run_experiment(LCP_8X8, 0, seed=1)

    def test_not_b1_guard(self):
        with pytest.raises(HypothesisError):
            run_experiment([[1.0, 2.0], [2.0, 1.0]], 5, seed=1)

    def test_serialization_round_trip(self, tmp_path):
        exp = run_experiment(LCP_8X8, 12, seed=3)
        path = tmp_path / "record.txt"
        exp.write(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith(f"matrix={exp.matrix_digest} seed=3 samples=12")
        assert len(lines) == 13
        for k, line in enumerate(lines[1:]):
            tokens = line.split()
            assert int(tokens[0]) == k
            dvec = np.array([float(t) for t in tokens[1:-1]])
            assert np.array_equal(dvec, exp.d_samples[k])
            assert float(tokens[-1]) == exp.exact_norms[k]


class TestCorners:
    def test_zero_corner_is_identity(self):
        norms = corner_norms(LCP_8X8)
        assert norms[0] == 1.0  # D = 0 scales to the identity

    def test_all_corners_below_bound(self):
        bound = lcp_b1_bound(LCP_8X8).value
        assert corner_norms(LCP_8X8).max() <= bound + 1e-9

    def test_guard(self):
        with pytest.raises(SizeLimitError):
            corner_norms(np.eye(13))


class TestScaledMatrixCheck:
    def test_identity_scaling(self):
        A = generate_sdd1(6, seed=505, positive_diagonal=True)
        assert scaled_matrix_sdd1_check(A, np.ones(6))
        assert scaled_matrix_sdd1_check(A, np.zeros(6))

    def test_random_scalings(self):
        rng = np.random.default_rng(23)
        for seed in range(20):
            n = 4 + seed % 7
            A = generate_sdd1(n, seed=900 + seed, positive_diagonal=True)
            for _ in range(5):
                assert scaled_matrix_sdd1_check(A, rng.random(n))

    def test_containments_explicitly(self):
        A = generate_sdd1(7, seed=42, positive_diagonal=True)
        part = dominance_partition(A)
        rng = np.random.default_rng(1)
        for _ in range(10):
            B = scaled(A, rng.random(7))
            bpart = dominance_partition(B)
            assert set(bpart.n1) <= set(part.n1)
            assert set(part.n2) <= set(bpart.n2)

    def test_input_validation(self):
        A = generate_sdd1(5, seed=77, positive_diagonal=True)
        for bad in (1.5, -0.5, np.nan, np.inf, -np.inf):  # NaN once made a vacuous False
            dvec = np.full(5, 0.5)
            dvec[2] = bad
            with pytest.raises(ValidationError, match=r"must lie in \[0,1\]\^n"):
                scaled_matrix_sdd1_check(A, dvec)
        with pytest.raises(HypothesisError):
            scaled_matrix_sdd1_check(-np.eye(3), np.zeros(3))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=3, max_value=10), st.integers(min_value=0, max_value=2**31 - 1))
def test_no_sample_exceeds_the_corner_maximum(n, seed):
    # The vertex argument in the module docstring of ``diagdom.lcp``: the maximum
    # over D in [0, 1]^n is taken at a corner.  No slack: a sample's computed norm
    # could pass its corner's only by rounding, within about 1e-15 of that corner.
    M = draw(generate_b1, n, seed)
    assert run_experiment(M, 200, seed).exact_norms.max() <= corner_norms(M).max()
