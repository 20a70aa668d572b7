"""Golden CLI reports: every subcommand on every fixture, errors included.

Each case runs the CLI in-process from the fixture directory (so the
``input`` field holds the bare file name) and compares the exit code, the
parsed JSON report with ``timing`` removed, and stderr against the stored
golden with ``==``.  Floats survive the JSON round trip exactly, so this is a
bit-identity check on every reported value.

Regenerate the goldens with ``PYTHONPATH=src python tests/test_golden_reports.py``;
do so only when a report is meant to change.
"""

import contextlib
import io
import json
import os
import pathlib

import pytest

from diagdom.cli import main

TESTS_DIR = pathlib.Path(__file__).parent
FIXTURE_DIR = TESTS_DIR / "fixtures"
GOLDEN_DIR = TESTS_DIR / "golden"

# Per fixture: 1-based n1 and n2 as the classify report gives them.
FIXTURES = {
    "det_6x6_first": ("1,2,3", "4,5,6"),
    "det_6x6_second": ("1,2,3", "4,5,6"),
    "lcp_8x8": ("1,2,3,4", "5,6,7,8"),
    "norm_8x8": ("1,2,3,4", "5,6,7,8"),
    "schur_5x5": ("4,5", "1,2,3"),
    "schur_6x6": ("4,5,6", "1,2,3"),
}


def fixture_cases(n1, n2):
    """Named argv tails (after ``--input``) run on one fixture."""
    first_n1, first_n2 = n1.split(",")[0], n2.split(",")[0]
    superset = ",".join(sorted(n2.split(",") + [first_n1], key=int))
    return {
        "classify": ["classify"],
        "schur-alpha-1": ["schur", "--alpha", "1"],
        "schur-alpha-in-n2": ["schur", "--alpha", first_n2],
        "schur-alpha-n2": ["schur", "--alpha", n2],
        "schur-alpha-over-n2": ["schur", "--alpha", superset],
        "schur-alpha-n1": ["schur", "--alpha", n1],
        "schur-no-alpha": ["schur"],
        "norm-sdd-pairwise": ["norm-bound", "--formula", "sdd-pairwise"],
        "norm-sdd1-epsilon": ["norm-bound", "--formula", "sdd1-epsilon"],
        "norm-sdd1-epsilon-fixed": ["norm-bound", "--formula", "sdd1-epsilon", "--epsilon", "0.01"],
        "norm-sdd1-epsilon-outside": ["norm-bound", "--formula", "sdd1-epsilon", "--epsilon", "50"],
        "norm-sdd1-schur": ["norm-bound", "--formula", "sdd1-schur"],
        "norm-default": ["norm-bound"],
        "norm-s-sdd1-schur": ["norm-bound", "--formula", "s-sdd1-schur", "--s-set", n2],
        "norm-s-sdd1-schur-single": ["norm-bound", "--formula", "s-sdd1-schur", "--s-set", first_n2],
        "norm-s-sdd1-schur-outside-n2": ["norm-bound", "--formula", "s-sdd1-schur", "--s-set", n1],
        "norm-s-sdd1-schur-no-set": ["norm-bound", "--formula", "s-sdd1-schur"],
        "det-bound": ["det-bound"],
        "lcp-bound": ["lcp-bound"],
        "lcp-bound-samples": ["lcp-bound", "--samples", "40", "--seed", "11"],
        "verify-all": ["verify", "--all", "--seed", "5"],
    }


def all_cases():
    cases = {}
    for name, (n1, n2) in FIXTURES.items():
        for case, tail in fixture_cases(n1, n2).items():
            cases[f"{name}/{case}"] = [tail[0], "--input", f"{name}.mtx", *tail[1:]]
    cases["errors/missing-file"] = ["classify", "--input", "missing.mtx"]
    cases["errors/alpha-full"] = ["schur", "--input", "schur_5x5.mtx", "--alpha", "1,2,3,4,5"]
    cases["errors/alpha-out-of-range"] = ["schur", "--input", "schur_5x5.mtx", "--alpha", "9"]
    cases["errors/alpha-not-integers"] = ["schur", "--input", "schur_5x5.mtx", "--alpha", "a,b"]
    return cases


def run_case(argv):
    """Run one CLI invocation from the fixture directory: (code, report, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(FIXTURE_DIR)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    report = json.loads(out.getvalue()) if out.getvalue() else None
    if isinstance(report, dict):
        report.pop("timing", None)
    return {"code": code, "report": report, "stderr": err.getvalue()}


def load_golden(case):
    group, name = case.split("/")
    with open(GOLDEN_DIR / f"{group}.json", encoding="ascii") as fh:
        return json.load(fh)[name]


CASES = all_cases()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case):
    assert run_case(CASES[case]) == load_golden(case)


def write_goldens():
    groups = {}
    for case, argv in CASES.items():
        group, name = case.split("/")
        groups.setdefault(group, {})[name] = run_case(argv)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for group, results in groups.items():
        with open(GOLDEN_DIR / f"{group}.json", "w", encoding="ascii") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    write_goldens()
