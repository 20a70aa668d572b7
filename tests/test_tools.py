"""``tools/ab_pairs.py``: its read-only trajectory view over the committed BENCH files, and its
trace mode on synthetic runs."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).parent.parent
BENCH_FILES = sorted((p.name for p in REPO_ROOT.glob("BENCH_*.json")),
                     key=lambda name: int(name[len("BENCH_"):-len(".json")]))


def test_trajectory_over_committed_bench_files():
    before = {p: p.read_bytes() for p in REPO_ROOT.iterdir() if p.is_file()}
    proc = subprocess.run([sys.executable, "tools/ab_pairs.py", "--trajectory", *BENCH_FILES],
                          cwd=REPO_ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert {p: p.read_bytes() for p in REPO_ROOT.iterdir() if p.is_file()} == before
    lines = proc.stdout.splitlines()
    docs = [json.loads((REPO_ROOT / name).read_text()) for name in BENCH_FILES]
    for workload, entry in docs[0]["workloads"].items():
        for metric, summary in entry["metrics"].items():
            header = f"{workload} {metric} ({summary['unit']}, {summary['better']} is better)"
            at = lines.index(header)
            for k, (name, doc) in enumerate(zip(BENCH_FILES, docs)):
                m = doc["workloads"][workload]["metrics"][metric]
                fields = lines[at + 1 + k].split()
                assert fields[0] == name
                assert float(fields[1]) == float(f"{m['parent']['median']:.4g}")
                assert float(fields[3]) == float(f"{m['change']['median']:.4g}")
                assert fields[5] == f"{m['wins']}/{m['pairs']}"
    ensemble = lines.index("ensemble-audit throughput_ops_s (1/s, higher is better)")
    for claimed in ("BENCH_7.json", "BENCH_29.json"):  # claimed gains, won on every pair
        assert lines[ensemble + 1 + BENCH_FILES.index(claimed)].split()[5] == "10/10"
    assert "BENCH_35.json" in BENCH_FILES and "BENCH_36.json" in BENCH_FILES
    for workload in docs[0]["workloads"]:
        at = lines.index(f"{workload} digests (seeds whose parent and change digests differ)")
        for k, name in enumerate(BENCH_FILES):
            # BENCH_11's additive ``h_scaling`` field changed the CLI's output bits,
            # BENCH_21's exactly minimized epsilon bound changed those of every workload,
            # BENCH_28's S = n2 witness bound, now SDD1_SCHUR's bits, ensemble-audit's,
            # and BENCH_31's closed-form S-SDD1 witness large-dense's: its ``classify``
            # value holds n2 where the skipped search left null at |n2| > 15.
            # Every other file kept them, BENCH_29's once-per-family Schur results,
            # BENCH_30's results without pivot factors, BENCH_32's sweeps built whole,
            # BENCH_33's results built outside the memo lock, BENCH_34's row
            # functionals and certified Schur bounds read from the partition,
            # BENCH_35's one LU elimination kernel and BENCH_36's memo records
            # found by identity only too.
            changed = name == "BENCH_21.json" or (name, workload) in (
                ("BENCH_11.json", "cli-oneshot"), ("BENCH_28.json", "ensemble-audit"),
                ("BENCH_31.json", "large-dense"))
            differ = "10/10" if changed else "0/10"
            assert lines[at + 1 + k].split() == [name, "differ", "on", differ]


def test_comparison_mode_still_needs_its_arguments():
    proc = subprocess.run([sys.executable, "tools/ab_pairs.py", "--out", "unused.json"],
                          cwd=REPO_ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "--parent, --pair and --out are required" in proc.stderr
    assert not (REPO_ROOT / "unused.json").exists()


def load_ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", REPO_ROOT / "tools" / "ab_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_mode_writes_layer_quartiles_on_synthetic_runs(monkeypatch, tmp_path):
    # Four pairs of made-up traced runs: each side's per-layer quartiles are written,
    # with no wins or verdicts, and only the layers every run reports.
    ab_pairs = load_ab_pairs()
    extracted, calls = [], []
    monkeypatch.setattr(ab_pairs, "extract",
                        lambda ref, dest: extracted.append(ref) or f"rev-{ref}")

    def run_bench(checkout, command, workload, seed, seconds, trace=False):
        side = checkout.name
        calls.append((side, seed, trace))
        value = seed / 1000 + (0.5 if side == "change" else 1.0)
        metrics = {"schur.schur_complement_s": value, "schur.schur_complement_calls": 22.0}
        if side == "parent":
            metrics["oracle.inverse_s"] = 1.0  # missing from the change's runs, so left out
        report = {"machine": {"cpu": "synthetic"}, "digest": f"d{seed}",
                  "metrics": {k: {"value": v} for k, v in metrics.items()}}
        result = {"correct": True, "attempted": 10, "failed": 0,
                  "metrics": {k: {"value": v} for k, v in metrics.items()}}
        return report, result

    monkeypatch.setattr(ab_pairs, "run_bench", run_bench)
    out = tmp_path / "trace.json"
    assert ab_pairs.main(["--trace", "--parent", "p", "--change", "c",
                          "--pair", "ensemble-audit=1-4", "--out", str(out)]) == 0
    assert extracted == ["p", "c"]
    assert calls == [("parent", 1, True), ("change", 1, True), ("change", 2, True),
                     ("parent", 2, True), ("parent", 3, True), ("change", 3, True),
                     ("change", 4, True), ("parent", 4, True)]
    doc = json.loads(out.read_text())
    assert doc["trace"] is True and doc["parent"] == "rev-p" and doc["change"] == "rev-c"
    entry = doc["workloads"]["ensemble-audit"]
    assert entry["digest_mismatch_seeds"] == [] and "metrics" not in entry
    assert set(entry["layers"]) == {"schur.schur_complement_s", "schur.schur_complement_calls"}
    layer = entry["layers"]["schur.schur_complement_s"]
    assert (layer["unit"], layer["better"]) == ("s/op", "lower")
    assert layer["parent"] == pytest.approx({"q1": 1.00175, "median": 1.0025, "q3": 1.00325})
    assert layer["change"] == pytest.approx({"q1": 0.50175, "median": 0.5025, "q3": 0.50325})
    assert set(layer) == {"unit", "better", "parent", "change"}  # no wins, no verdicts
    assert all("failed_share" not in run for run in entry["runs"])


def test_trace_mode_needs_a_change_ref():
    proc = subprocess.run([sys.executable, "tools/ab_pairs.py", "--trace", "--parent", "HEAD",
                           "--pair", "ensemble-audit=1", "--out", "unused.json"],
                          cwd=REPO_ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "--trace needs --change" in proc.stderr
    assert not (REPO_ROOT / "unused.json").exists()
