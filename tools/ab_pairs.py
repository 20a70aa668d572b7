"""Alternating parent/change benchmark pairs, summarised per end-to-end metric.

    python3 tools/ab_pairs.py --parent REF [--change REF] \\
        --pair ensemble-audit=3301-3310 --pair large-dense=3401,3402 --out BENCH.json
    python3 tools/ab_pairs.py --trace --parent REF --change REF \\
        --pair ensemble-audit=3301-3310 --out TRACE.json
    python3 tools/ab_pairs.py --trajectory BENCH_*.json

The parent (and ``--change``, when given; otherwise this checkout) is
extracted with ``git archive`` into a temporary directory.  For each seed of
each ``--pair WORKLOAD=SEEDS`` it runs the benchmark command of
``BENCHMARK.json`` once on each side, one run at a time, alternating which
side goes first (parent first on even pairs).  The output file holds, for
every end-to-end metric of every workload: q1/median/q3 per side, the wins
of the change (ties count for neither side), the median change relative to
the parent, the parent's interquartile range, whether a gain is resolved
(at least nine tenths of the pairs won and a median gap above the parent's
IQR) and whether the change stays within the metric's bound.  It also keeps
each run's digest, check counts and metrics, and the machine block of the
benchmark's report line.  Standard library only.

``--trace`` runs the same alternating pairs with ``--trace 1`` and writes,
for every per-layer metric of ``BENCHMARK.json`` that every run reports,
q1/median/q3 per side under ``layers``, with no wins and no verdicts: a
traced run times each layer, not the op.  A traced run writes its trace
file under ``bench/traces/`` of its checkout, so both sides are extracted
and ``--change`` is required.

``--trajectory`` only reads: for every workload and end-to-end metric it
prints one line per given file (in the order given) with that file's parent
and change medians, the change's wins out of its pairs and the median change;
then, for every workload, one line per file with the number of seeds whose
parent and change digests differ, so a round that changed output bits shows.
"""

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    """'3301-3305,3310' -> [3301, 3302, 3303, 3304, 3305, 3310]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def extract(ref, dest):
    """Write the tree of ``ref`` into ``dest``; return the full commit or tree id."""
    rev = subprocess.run(["git", "rev-parse", ref], cwd=ROOT, capture_output=True, text=True,
                         check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return rev


def run_bench(checkout, command, workload, seed, seconds, trace=False):
    """One benchmark run: (report line, result object) parsed from its last two lines."""
    args = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace))]
    if args[0] in ("python", "python3"):
        args[0] = sys.executable
    out = subprocess.run(args, cwd=checkout, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def summarise(spec, parent, change):
    """Per-metric comparison of paired runs; ``parent[i]`` and ``change[i]`` share a seed."""
    sign = 1.0 if spec["better"] == "higher" else -1.0
    p = quartiles(parent)
    c = quartiles(change)
    gap = c["median"] - p["median"]
    iqr = p["q3"] - p["q1"]
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": p,
        "change": c,
        "wins": wins,
        "pairs": len(parent),
        "median_change": gap / p["median"],
        "parent_iqr": iqr,
        "gain_resolved": wins >= 0.9 * len(parent) and sign * gap > iqr,
        "within_bound": -sign * gap <= spec["bound"] * p["median"],
    }


def layers(specs, parent, change):
    """Per-layer quartiles of paired traced runs, for each metric every run reports."""
    runs = parent + change
    return {spec["name"]: {"unit": spec["unit"], "better": spec["better"],
                           "parent": quartiles([r[spec["name"]] for r in parent]),
                           "change": quartiles([r[spec["name"]] for r in change])}
            for spec in specs if all(spec["name"] in r for r in runs)}


def trajectory(paths):
    """Lines of the trajectory view of the given output files."""
    docs = [(Path(p).name, json.loads(Path(p).read_text())) for p in paths]
    rows = {}  # (workload, metric) -> [(file, summary)], in first-seen order
    digests = {}  # workload -> [(file, differing seeds, seeds)]
    for name, doc in docs:
        for workload, entry in doc["workloads"].items():
            for metric, summary in entry["metrics"].items():
                rows.setdefault((workload, metric), []).append((name, summary))
            digests.setdefault(workload, []).append(
                (name, len(entry["digest_mismatch_seeds"]), len(entry["seeds"])))
    width = max(len(name) for name, _ in docs)
    lines = []
    for (workload, metric), entries in rows.items():
        unit, better = entries[0][1]["unit"], entries[0][1]["better"]
        lines.append(f"{workload} {metric} ({unit}, {better} is better)")
        for name, m in entries:
            lines.append(f"  {name:<{width}}  {m['parent']['median']:.4g} -> "
                         f"{m['change']['median']:.4g}  wins {m['wins']}/{m['pairs']}  "
                         f"{m['median_change']:+.1%}")
    for workload, entries in digests.items():
        lines.append(f"{workload} digests (seeds whose parent and change digests differ)")
        for name, differ, seeds in entries:
            lines.append(f"  {name:<{width}}  differ on {differ}/{seeds}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="git ref of the parent side")
    parser.add_argument("--change", help="git ref of the change side (default: this checkout)")
    parser.add_argument("--pair", action="append", metavar="WORKLOAD=SEEDS",
                        help="workload and its seeds, e.g. ensemble-audit=3301-3310")
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--trace", action="store_true",
                        help="traced runs: per-layer quartiles per side, no verdicts")
    parser.add_argument("--trajectory", nargs="+", metavar="BENCH.json",
                        help="print the medians and wins of these output files and exit")
    args = parser.parse_args(argv)
    if args.trajectory:
        print("\n".join(trajectory(args.trajectory)))
        return 0
    if not (args.parent and args.pair and args.out):
        parser.error("--parent, --pair and --out are required without --trajectory")
    if args.trace and not args.change:
        parser.error("--trace needs --change: a traced run writes bench/traces/ in its checkout")

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = contract["run_seconds"]
    plan = [(w, parse_seeds(s)) for w, s in (p.split("=", 1) for p in args.pair)]
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"parent": Path(tmp, "parent")}
        revs = {"parent": extract(args.parent, sides["parent"])}
        if args.change:
            sides["change"] = Path(tmp, "change")
            revs["change"] = extract(args.change, sides["change"])
        else:
            sides["change"] = ROOT
            revs["change"] = "checkout"
        doc = {"parent": revs["parent"], "change": revs["change"], "seconds": seconds,
               "command": contract["command"], "trace": args.trace, "machine": None,
               "workloads": {}}
        for workload, seeds in plan:
            runs = []
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    report, result = run_bench(sides[side], contract["command"], workload,
                                               seed, seconds, args.trace)
                    doc["machine"] = doc["machine"] or report["machine"]
                    metrics = {k: v["value"] for k, v in result["metrics"].items()}
                    runs.append({"seed": seed, "side": side, "first": side == order[0],
                                 "digest": report["digest"], "correct": result["correct"],
                                 "attempted": result["attempted"], "failed": result["failed"],
                                 "metrics": metrics})
                    if not args.trace:
                        runs[-1]["failed_share"] = report["metrics"]["failed_share"]["value"]
                    speed = metrics.get("throughput_ops_s",
                                        metrics.get("trace.traced_throughput_ops_s"))
                    print(f"{workload} seed {seed} {side}: {speed}", file=sys.stderr)
            parent = [r for r in runs if r["side"] == "parent"]
            change = [r for r in runs if r["side"] == "change"]

            def values(side, name):
                return [r["metrics"][name] for r in side]

            entry = doc["workloads"][workload] = {
                "seeds": seeds,
                "digest_mismatch_seeds": [p["seed"] for p, c in zip(parent, change)
                                          if p["digest"] != c["digest"]],
                "runs": runs,
            }
            if args.trace:
                entry["layers"] = layers(contract["per_layer"], [r["metrics"] for r in parent],
                                         [r["metrics"] for r in change])
            else:
                entry["metrics"] = {spec["name"]: summarise(spec, values(parent, spec["name"]),
                                                            values(change, spec["name"]))
                                    for spec in contract["end_to_end"]}
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
