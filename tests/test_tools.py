"""The read-only trajectory view of ``tools/ab_pairs.py`` over the committed BENCH files."""

import json
import pathlib
import subprocess
import sys

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
    at = BENCH_FILES.index("BENCH_7.json")
    assert lines[ensemble + 1 + at].split()[5] == "10/10"  # BENCH_7's claimed gain
    for workload in docs[0]["workloads"]:
        at = lines.index(f"{workload} digests (seeds whose parent and change digests differ)")
        for k, name in enumerate(BENCH_FILES):
            # BENCH_11's additive ``h_scaling`` field changed the CLI's output bits,
            # BENCH_21's exactly minimized epsilon bound changed those of every workload,
            # and BENCH_28's S = n2 witness bound, now SDD1_SCHUR's bits, ensemble-audit's.
            changed = name == "BENCH_21.json" or (name, workload) in (
                ("BENCH_11.json", "cli-oneshot"), ("BENCH_28.json", "ensemble-audit"))
            differ = "10/10" if changed else "0/10"
            assert lines[at + 1 + k].split() == [name, "differ", "on", differ]


def test_comparison_mode_still_needs_its_arguments():
    proc = subprocess.run([sys.executable, "tools/ab_pairs.py", "--out", "unused.json"],
                          cwd=REPO_ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "--parent, --pair and --out are required" in proc.stderr
    assert not (REPO_ROOT / "unused.json").exists()
