import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import diagdom
from diagdom import detbounds, normbounds, read_matrix_market
from diagdom.certificates import FORMULA_SDD1_SCHUR, BoundCertificate
from diagdom.cli import VERIFY_P_MATRIX_MAX_ORDER, _emit, main
from matrices import LCP_8X8_BOUND, SDD1_BY_ROUNDING, TIE_T1, TIE_T2, TOL4
from test_detbounds import theta_of

REPO_ROOT = pathlib.Path(__file__).parent.parent


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

    def test_witness_reported_past_the_old_size_guard(self, capsys, tmp_path):
        # |n2| = 28 was past the exhaustive witness search's guard of 15.
        path = tmp_path / "sdd1_40.mtx"
        code, _ = run_json(
            capsys,
            "generate", "--kind", "sdd1", "--order", "40", "--seed", "3",
            "--n1-fraction", "0.3", "--output", str(path),
        )
        assert code == 0
        code, report = run_json(capsys, "classify", "--input", str(path))
        assert code == 0
        result = report["result"]
        assert result["is_sdd1"] and len(result["n2"]) == 28
        assert result["s_sdd1_witness"] == result["n2"]


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


    def test_out_of_range_denominator_is_structured(self, capsys, tmp_path):
        # 2^-600 underflows the pairwise denominators: a JSON error, exit 1, no traceback.
        path = tmp_path / "tiny.mtx"
        diagdom.write_matrix_market(path, np.ldexp(diagdom.generate_sdd1(6, 3, 0.5), -600))
        code = main(["norm-bound", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        error = json.loads(captured.out)["error"]
        assert error["kind"] == "DenominatorError"
        assert error["rows"] and set(error["rows"]) <= {1, 2, 3, 4, 5, 6}
        assert error["message"].endswith(f"is not positive and finite in rows {error['rows']}")


class TestDetBound:
    def test_brackets_reported(self, capsys, fixture_path):
        code, report = run_json(capsys, "det-bound", "--input", fixture_path("det_6x6_first.mtx"))
        assert code == 0
        result = report["result"]
        assert result["permutation"] == [1, 2, 3, 4, 5, 6]
        assert result["huang"]["lower"] <= result["oracle_abs_det"] <= result["huang"]["upper"]
        tight = result["dominance_ratio"]
        assert tight["lower"] <= result["oracle_abs_det"] <= tight["upper"]

    @pytest.mark.parametrize("A", [TIE_T1, TIE_T2], ids=["T1", "T2"])
    def test_tie_rows_keep_the_partition_of_A(self, capsys, tmp_path, A):
        # An ordered copy splits the tie row otherwise (see matrices.py): T2 failed
        # with "not in dominance ordering" and T1 reported theta of the copy's split.
        path = tmp_path / "tie.mtx"
        diagdom.write_matrix_market(path, A)
        assert read_matrix_market(path).tobytes() == A.tobytes()
        code, report = run_json(capsys, "det-bound", "--input", str(path))
        assert code == 0
        result = report["result"]
        assert result["n1_size"] == 2 and result["permutation"] == [3, 4, 1, 2]
        assert result["huang"]["theta"] == theta_of(A)
        exact = result["oracle_abs_det"]
        for name in ("huang", "dominance_ratio"):
            assert result[name]["lower"] <= exact <= result[name]["upper"]
        code, report = run_json(capsys, "verify", "--input", str(path), "--samples", "10")
        assert code == 0
        brackets = report["result"]["det"]["brackets"]
        assert [brackets[name]["contains_det"] for name in ("huang", "dominance_ratio")] == [True, True]

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

    def test_unavailable_huang_bracket_is_reported(self, capsys, tmp_path):
        # theta is undefined on a matrix that is SDD1 only by rounding: verify
        # reports the Huang bracket unavailable and checks the other one.
        path = tmp_path / "rounding.mtx"
        diagdom.write_matrix_market(path, SDD1_BY_ROUNDING)
        assert read_matrix_market(path).tobytes() == SDD1_BY_ROUNDING.tobytes()
        code, report = run_json(capsys, "verify", "--input", str(path))
        assert code == 0
        result = report["result"]
        brackets = result["det"]["brackets"]
        assert brackets["huang"] == {"unavailable": "theta undefined"}
        ratio, exact = brackets["dominance_ratio"], result["det"]["oracle_abs_det"]
        assert ratio["contains_det"] and ratio["lower"] <= exact <= ratio["upper"]
        assert result["all_sound"] is True

    def test_soundness_error_keeps_result(self, capsys, fixture_path, monkeypatch):
        argv = ["verify", "--input", fixture_path("lcp_8x8.mtx"), "--samples", "20"]
        _, sound = run_json(capsys, *argv)
        monkeypatch.setattr(
            normbounds, "sdd1_schur_bound",
            lambda A: BoundCertificate(FORMULA_SDD1_SCHUR, 0.5, {}),  # below the oracle
        )
        code, report = run_json(capsys, *argv)
        assert code == 1
        assert report["error"]["kind"] == "soundness"
        result = report["result"]
        assert result["all_sound"] is False
        assert set(result) == set(sound["result"])
        for key in ("exact_inf_norm_of_inverse", "det", "lcp", "p_matrix", "h_matrix"):
            assert result[key] == sound["result"][key]
        slacks = {c["formula_id"]: c["slack"] for c in result["certificates"]}
        assert slacks[FORMULA_SDD1_SCHUR] < 0.0
        assert list(report["timing"]) == ["verify"]

    @pytest.mark.parametrize("exponent", [0, 40])
    def test_unsound_certificate_is_caught_at_any_scale(self, capsys, fixture_path, tmp_path,
                                                        monkeypatch, exponent):
        # A quarter of the bound is unsound; at 2^40 its slack is only about -1e-12.
        path = tmp_path / "norm.mtx"
        A = np.ldexp(read_matrix_market(fixture_path("norm_8x8.mtx")), exponent)
        diagdom.write_matrix_market(path, A)
        real = normbounds.sdd1_schur_bound
        monkeypatch.setattr(normbounds, "sdd1_schur_bound",
                            lambda A: dataclasses.replace(real(A), value=real(A).value / 4))
        code, report = run_json(capsys, "verify", "--input", str(path), "--samples", "20")
        assert code == 1
        assert report["error"]["kind"] == "soundness"
        assert report["result"]["all_sound"] is False

    def test_bracket_missing_det_is_unsound(self, capsys, fixture_path, monkeypatch):
        real = detbounds.dominance_bracket

        def above_det(A):  # [2u, 3u] for the true upper endpoint u misses |det|
            br = real(A)
            return dataclasses.replace(br, lower=2.0 * br.upper, upper=3.0 * br.upper)

        monkeypatch.setattr(detbounds, "dominance_bracket", above_det)
        code, report = run_json(
            capsys, "verify", "--input", fixture_path("lcp_8x8.mtx"), "--samples", "20"
        )
        assert code == 1
        assert report["error"]["kind"] == "soundness"
        result = report["result"]
        assert result["det"]["brackets"]["dominance_ratio"]["contains_det"] is False
        assert result["det"]["brackets"]["huang"]["contains_det"] is True
        assert all(c["slack"] >= 0.0 for c in result["certificates"])
        assert result["lcp"]["violations"] == 0
        assert result["all_sound"] is False

    @pytest.mark.parametrize("command", ["verify", "lcp-bound"])
    def test_zero_samples_reach_the_library(self, capsys, fixture_path, command):
        code, report = run_json(
            capsys, command, "--input", fixture_path("lcp_8x8.mtx"), "--samples", "0"
        )
        assert code == 1
        assert report["error"] == {"kind": "ValidationError",
                                   "message": "sample_count must be at least 1"}

    def test_tolerance_is_verify_only(self, capsys, fixture_path):
        path = fixture_path("lcp_8x8.mtx")
        code, _ = run_json(capsys, "verify", "--input", path, "--samples", "5", "--tolerance", "1")
        assert code == 0
        with pytest.raises(SystemExit) as err:
            main(["classify", "--input", path, "--tolerance", "1"])
        capsys.readouterr()
        assert err.value.code == 2


# One argv tail per input subcommand, each exiting 0 on lcp_8x8.
INPUT_SUBCOMMANDS = {
    "classify": [],
    "schur": ["--alpha", "1"],
    "norm-bound": [],
    "det-bound": [],
    "lcp-bound": ["--samples", "10"],
    "verify": ["--samples", "10"],
}


class TestTiming:
    @pytest.mark.parametrize("command", sorted(INPUT_SUBCOMMANDS))
    def test_one_key_named_after_the_subcommand(self, capsys, fixture_path, command):
        code, report = run_json(
            capsys, command, "--input", fixture_path("lcp_8x8.mtx"), *INPUT_SUBCOMMANDS[command]
        )
        assert code == 0
        assert list(report["timing"]) == [command]
        assert report["timing"][command] >= 0.0

    @pytest.mark.parametrize("argv", [
        ["classify", "--input", "tests/fixtures/lcp_8x8.mtx"],
        ["verify", "--all", "--seed", "5", "--input", "tests/fixtures/lcp_8x8.mtx"],
    ], ids=["classify", "verify"])
    def test_module_entry_point(self, argv):
        # ``python -m diagdom.cli`` in a child process, run from the repository root,
        # loads only the modules its subcommand computes with.
        package = pathlib.Path(diagdom.__file__).parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(package.parent), os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "diagdom.cli", *argv],
                              cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["command"] == argv[0]
        assert list(report["timing"]) == [argv[0]]
        # Each ``import time:`` line ends in "| <indent><module>"; cli itself runs as __main__.
        loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                  if line.startswith("import time:")}
        loaded = {name for name in loaded if name.split(".")[0] == "diagdom"}
        modules = {f"diagdom.{p.stem}" for p in package.glob("*.py") if p.stem != "__init__"}
        expected = {
            "classify": {"diagdom.core", "diagdom.errors", "diagdom.classify", "diagdom.oracle",
                         "diagdom.mmio"},
            "verify": modules - {"diagdom.cli", "diagdom.schur", "diagdom.generate"},
        }[argv[0]]
        assert loaded == {"diagdom"} | expected


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

    @pytest.mark.parametrize("flags, message", [
        (["--order", "0"], "order must be at least 2"),
        (["--n1-fraction", "0"], "n1_fraction must lie strictly between 0 and 1"),
    ], ids=["order", "n1-fraction"])
    def test_zero_reaches_the_library(self, capsys, flags, message):
        code, report = run_json(capsys, "generate", "--seed", "1", *flags)
        assert code == 1
        assert report["error"] == {"kind": "ValidationError", "message": message}

    def test_failed_output_leaves_path_uncreated(self, capsys, tmp_path):
        path = tmp_path / "g.mtx"
        code, report = run_json(capsys, "generate", "--order", "1", "--output", str(path))
        assert code == 1
        assert report["error"] == {"kind": "ValidationError", "message": "order must be at least 2"}
        assert not path.exists()


class TestReportOutput:
    def test_report_written_to_the_file(self, capsys, fixture_path, tmp_path):
        path = tmp_path / "report.json"
        _, expected = run_json(capsys, "classify", "--input", fixture_path("norm_8x8.mtx"))
        code, out = run_cli(capsys, "classify", "--input", fixture_path("norm_8x8.mtx"),
                            "--output", str(path))
        assert code == 0 and out == ""
        assert strip_timing(json.loads(path.read_text())) == strip_timing(expected)

    def test_error_report_written_to_the_file(self, capsys, tmp_path):
        matrix, path = tmp_path / "sdd.mtx", tmp_path / "report.json"
        diagdom.write_matrix_market(matrix, np.diag([2.0, 3.0]) + 0.1)
        argv = ["norm-bound", "--input", str(matrix), "--formula", "sdd1-epsilon"]
        _, expected = run_json(capsys, *argv)
        code, out = run_cli(capsys, *argv, "--output", str(path))
        assert code == 1 and out == ""
        assert json.loads(path.read_text()) == expected
        assert expected["error"]["kind"] == "hypothesis"

    @pytest.mark.parametrize("value", [np.bool_(True), np.int64(3), {1, 2}])
    def test_only_arrays_beyond_json_are_serialized(self, capsys, value):
        _emit({"x": np.array([[1.0, 2.0]])}, None)
        assert json.loads(capsys.readouterr().out) == {"x": [[1.0, 2.0]]}
        with pytest.raises(TypeError):
            _emit({"x": value}, None)
        assert capsys.readouterr().out == ""


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

    @pytest.mark.parametrize("layout, size", [("array", "-1 -1"), ("coordinate", "-2 -2 0"),
                                              ("array", "0 0")])
    def test_order_below_one_exit_2(self, capsys, tmp_path, layout, size):
        path = tmp_path / "order.mtx"
        path.write_text(f"%%MatrixMarket matrix {layout} real general\n{size}\n1.0\n")
        code = main(["classify", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "line 2: matrix order must be at least 1" in captured.err

    def test_unknown_flag_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["classify", "--nope"])
        capsys.readouterr()
        assert err.value.code == 2
