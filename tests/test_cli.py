import json

import numpy as np
import pytest

from diagdom import read_matrix_market
from diagdom.classify import WITNESS_SEARCH_MAX
from diagdom.cli import VERIFY_P_MATRIX_MAX_ORDER, main
from matrices import LCP_8X8_BOUND, TOL4


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def strip_timing(report):
    report = dict(report)
    report.pop("timing", None)
    return report


class TestClassify:
    def test_fixture_report(self, capsys, fixture_path):
        code, report = run_json(capsys, "classify", "--input", fixture_path("norm_8x8.mtx"))
        assert code == 0
        result = report["result"]
        assert result["is_sdd1"] and not result["is_sdd"]
        assert result["n1"] == [1, 2, 3, 4]
        assert result["n2"] == [5, 6, 7, 8]
        assert result["is_h_matrix"]

    def test_deterministic_modulo_timing(self, capsys, fixture_path):
        _, a = run_json(capsys, "classify", "--input", fixture_path("norm_8x8.mtx"))
        _, b = run_json(capsys, "classify", "--input", fixture_path("norm_8x8.mtx"))
        assert strip_timing(a) == strip_timing(b)

    def test_witness_size_guard_reported(self, capsys, tmp_path):
        path = tmp_path / "sdd1_40.mtx"
        code, _ = run_json(
            capsys,
            "generate", "--kind", "sdd1", "--order", "40", "--seed", "3",
            "--n1-fraction", "0.3", "--output", str(path),
        )
        assert code == 0
        code, report = run_json(capsys, "classify", "--input", str(path))
        assert code == 0
        assert len(report["result"]["n2"]) == 28 > WITNESS_SEARCH_MAX
        assert report["result"]["s_sdd1_witness"] == {
            "skipped": "size guard",
            "limit": WITNESS_SEARCH_MAX,
        }


class TestSchur:
    def test_one_based_reporting(self, capsys, fixture_path):
        code, report = run_json(
            capsys, "schur", "--input", fixture_path("schur_5x5.mtx"), "--alpha", "1"
        )
        assert code == 0
        result = report["result"]
        assert result["alpha"] == [1]
        assert result["alpha_bar"] == [2, 3, 4, 5]
        assert result["tilde_n1"] == [5]
        assert result["tilde_n2"] == [2, 3, 4]
        got = np.array(result["complement"])
        assert np.array_equal(got, [[5, 0.5, 1, 0], [0, 3, 0, 0], [0, -0.5, 2, 1], [2, 0, 1, 2]])

    def test_missing_alpha_is_structured(self, capsys, fixture_path):
        code, report = run_json(capsys, "schur", "--input", fixture_path("schur_5x5.mtx"))
        assert code == 1
        assert "error" in report


class TestNormBound:
    def test_default_formula(self, capsys, fixture_path):
        code, report = run_json(capsys, "norm-bound", "--input", fixture_path("norm_8x8.mtx"))
        assert code == 0
        cert = report["certificates"][0]
        assert cert["formula_id"] == "SDD1_SCHUR"
        assert cert["value"] > 0

    def test_epsilon_formula(self, capsys, fixture_path):
        code, report = run_json(
            capsys,
            "norm-bound",
            "--input", fixture_path("norm_8x8.mtx"),
            "--formula", "sdd1-epsilon",
            "--epsilon", "0.2122",
        )
        assert code == 0
        cert = report["certificates"][0]
        assert cert["parameters"]["epsilon"] == 0.2122

    def test_hypothesis_error_exit_code(self, capsys, tmp_path):
        # Strictly dominant input has no admissible epsilon split.
        from diagdom import write_matrix_market

        path = tmp_path / "sdd.mtx"
        write_matrix_market(path, np.diag([2.0, 3.0]) + 0.1)
        code, report = run_json(
            capsys, "norm-bound", "--input", str(path), "--formula", "sdd1-epsilon"
        )
        assert code == 1
        assert report["error"]["kind"] == "hypothesis"
        assert "n1" in report["error"]["hypothesis"]


class TestDetBound:
    def test_brackets_reported(self, capsys, fixture_path):
        code, report = run_json(capsys, "det-bound", "--input", fixture_path("det_6x6_first.mtx"))
        assert code == 0
        result = report["result"]
        assert result["permutation"] == [1, 2, 3, 4, 5, 6]
        assert result["huang"]["lower"] <= result["oracle_abs_det"] <= result["huang"]["upper"]
        tight = result["dominance_ratio"]
        assert tight["lower"] <= result["oracle_abs_det"] <= tight["upper"]

    def test_guard_for_sdd_input(self, capsys, tmp_path):
        from diagdom import write_matrix_market

        path = tmp_path / "sdd.mtx"
        write_matrix_market(path, np.diag([3.0, 4.0, 5.0]) + 0.2)
        code, report = run_json(capsys, "det-bound", "--input", str(path))
        assert code == 1
        assert report["error"]["kind"] == "hypothesis"


class TestLcpBound:
    def test_bound_and_experiment(self, capsys, fixture_path):
        code, report = run_json(
            capsys,
            "lcp-bound",
            "--input", fixture_path("lcp_8x8.mtx"),
            "--samples", "60",
            "--seed", "9",
        )
        assert code == 0
        assert report["certificates"][0]["value"] == pytest.approx(LCP_8X8_BOUND, abs=TOL4)
        assert report["experiment"]["violations"] == 0
        assert report["experiment"]["seed"] == 9


class TestVerify:
    def test_all_sound_on_fixture(self, capsys, fixture_path):
        code, report = run_json(
            capsys,
            "verify",
            "--input", fixture_path("lcp_8x8.mtx"),
            "--all",
            "--samples", "50",
            "--seed", "4",
        )
        assert code == 0
        result = report["result"]
        assert result["all_sound"]
        assert result["lcp"]["violations"] == 0
        for cert in result["certificates"]:
            assert cert["slack"] >= -1e-9

    def test_p_matrix_size_guard_reported(self, capsys, tmp_path):
        path = tmp_path / "b1_13.mtx"
        code, _ = run_json(
            capsys,
            "generate", "--kind", "b1", "--order", "13", "--seed", "5",
            "--output", str(path),
        )
        assert code == 0
        code, report = run_json(
            capsys, "verify", "--input", str(path), "--samples", "20", "--seed", "1"
        )
        assert code == 0
        assert report["result"]["p_matrix"] == {
            "skipped": "size guard",
            "limit": VERIFY_P_MATRIX_MAX_ORDER,
        }
        assert VERIFY_P_MATRIX_MAX_ORDER == 12


class TestGenerate:
    def test_stdout_matrix_market(self, capsys, tmp_path):
        code, out = run_cli(capsys, "generate", "--kind", "sdd1", "--order", "6", "--seed", "3")
        assert code == 0
        path = tmp_path / "gen.mtx"
        path.write_text(out)
        A = read_matrix_market(path)
        assert A.shape == (6, 6)

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "b1.mtx"
        code, report = run_json(
            capsys,
            "generate", "--kind", "b1", "--order", "5", "--seed", "8",
            "--output", str(path),
        )
        assert code == 0
        A = read_matrix_market(path)
        from diagdom import is_b1, matrix_digest

        assert is_b1(A)
        assert matrix_digest(A) == report["digest"]


class TestErrors:
    def test_missing_file_exit_2(self, capsys):
        code = main(["classify", "--input", "/nonexistent/never.mtx"])
        capsys.readouterr()
        assert code == 2

    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "broken.mtx"
        path.write_text("garbage\n")
        code = main(["classify", "--input", str(path)])
        capsys.readouterr()
        assert code == 2

    def test_unknown_flag_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["classify", "--nope"])
        capsys.readouterr()
        assert err.value.code == 2
