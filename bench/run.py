"""diagdom benchmark: one workload, one closed-loop client, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs the workload's ops back to back (a closed loop with one
client and no extra threads) for at least ``--seconds`` and at least one
full cycle of its inputs, checks every output against its oracle and
prints one JSON report line, then, as the last line, the result object:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
The program is imported from this checkout's ``src/``; the benchmark
itself never touches it.  Workloads are described in ``workloads.py`` and
README.md.
"""

import os

# Pin BLAS to one thread before numpy loads, here and in every child
# interpreter (they inherit the environment).  On a 2-CPU machine OpenBLAS's
# default two threads made ``inverse`` at order 256 take 152 ms against
# 4.7 ms with one thread, so an unpinned run measures thread contention.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict, namedtuple  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
SETUP_SNIPPET = "import time; t = time.perf_counter(); import diagdom; print(time.perf_counter() - t)"


def _fail(message):
    sys.stderr.write(f"bench: {message}\n")
    sys.exit(2)


if not (SRC / "diagdom" / "__init__.py").is_file():
    _fail(f"no diagdom sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from speed import Reference  # noqa: E402
from tracing import Tracer, plain_calls, profiled_call_counts  # noqa: E402
from workloads import (  # noqa: E402
    CALLS, CLI_SPANS, FAIL, NONFINITE, WORKLOADS, Context, Record, child_env, value_digest_bytes,
)


def _openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None where it cannot be asked."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": int(BLAS_THREADS),
        "blas_threads_runtime": _openblas_threads(),
    }


def setup_seconds(repeats, reference):
    """Median time of ``import diagdom`` in fresh interpreters, after one discarded.

    Returns (scaled to the reference host speed, unscaled).
    """
    times, refs = [], []
    for _ in range(repeats + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=child_env(),
                             capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout))
        refs.append(reference())
    return statistics.median(reference.scaled(times, refs)[1:]), statistics.median(times[1:])


def _run_op(op, ctx):
    try:
        return op.run(ctx)
    except Exception:  # the loop must go on; the failure is counted and shown
        traceback.print_exc()
        rec = Record()
        rec.check(f"{op.label} completed", False)
        return rec


# One executed op and the host-speed reference timed right after it.  Only a
# digest of its outputs is kept, so memory does not grow with the ops a run
# completes.
Sample = namedtuple("Sample", "position seconds reference span digest statuses counts tightness")


def measure(ops, warmup, seconds, trace, reference):
    """Closed loop over the cycle of ``ops`` after ``warmup`` untimed ops.

    Runs at least one full cycle (two when traced: traced runs alternate a
    plain and a traced cycle) and then stops at the first op boundary after
    ``seconds``.  Returns (samples, tracer).
    """
    plain = Context(plain_calls(CALLS))
    for op in ops[:warmup]:
        _run_op(op, plain)
    tracer = Tracer() if trace else None
    traced_calls = tracer.calls(CALLS) if trace else None
    min_ops = len(ops) * (2 if trace else 1)
    samples = []
    start = time.perf_counter()
    while len(samples) < min_ops or time.perf_counter() - start < seconds:
        j = len(samples) % len(ops)
        op = ops[j]
        span = None
        if trace and (len(samples) // len(ops)) % 2 == 1:
            with tracer.op(op.label) as span:
                ctx = Context(traced_calls, tracer, span)
                t0 = time.perf_counter()
                rec = _run_op(op, ctx)
                dt = time.perf_counter() - t0
            if op.probe is not None:
                with tracer.parent(span):
                    op.probe(ctx)
        else:
            t0 = time.perf_counter()
            rec = _run_op(op, plain)
            dt = time.perf_counter() - t0
        samples.append(Sample(j, dt, reference(), span,
                              hashlib.sha256(value_digest_bytes(rec)).hexdigest(),
                              Counter(status for _, status in rec.checks), rec.counts, rec.tightness))
    return samples, tracer


def assess(samples):
    """Tally checks and digest the outputs of one cycle; repeats must match it."""
    statuses = sum((s.statuses for s in samples), Counter())
    reference = {}
    nondeterministic = 0
    for s in samples:
        nondeterministic += reference.setdefault(s.position, s.digest) != s.digest
    total = hashlib.sha256("".join(reference[p] for p in sorted(reference)).encode("ascii"))
    return {
        "attempted": sum(statuses.values()),
        "failed": statuses[FAIL] + statuses[NONFINITE],
        "nonfinite": statuses[NONFINITE],
        "contradicted": statuses[FAIL],
        "nondeterministic": nondeterministic,
        "digest": "sha256:" + total.hexdigest(),
    }


def scaled_seconds(samples, reference):
    """Op times scaled to the reference host speed (see speed.py), in run order."""
    return reference.scaled([s.seconds for s in samples], [s.reference for s in samples])


def op_medians(samples, seconds):
    """Median of ``seconds`` for each distinct op over its repetitions, in cycle order.

    Medians keep a burst of noise during one repetition out of the op's
    time; the spread between distinct ops is the workload's own.
    """
    times = defaultdict(list)
    for s, t in zip(samples, seconds):
        times[s.position].append(t)
    return [statistics.median(times[p]) for p in sorted(times)]


def latency(seconds):
    """Median and tail in ms; the tail is the highest percentile with ten ops beyond it."""
    ms = sorted(s * 1e3 for s in seconds)
    n = len(ms)
    p50 = statistics.median(ms)
    if n >= 20:
        return p50, ms[n - 11], 100.0 * (n - 10) / n
    return p50, p50, 50.0  # too few ops for a tail: report the median as the tail


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def end_to_end(samples, checks, setup, workload, reference):
    """The end-to-end metrics, and beside them the same timings unscaled."""
    medians = op_medians(samples, scaled_seconds(samples, reference))
    p50, tail, pct = latency(medians)
    metrics = {
        "throughput_ops_s": (len(medians) / sum(medians), "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_tail_ms": (tail, "ms"),
        "failed_share": (checks["failed"] / max(1, checks["attempted"]), "ratio"),
        "peak_rss_mb": (peak_rss_mb(workload == "cli-oneshot"), "MB"),
        "setup_s": (setup[0], "s"),
    }
    raw = op_medians(samples, [s.seconds for s in samples])
    raw_p50, raw_tail, _ = latency(raw)
    extra = {
        "latency_tail_percentile": round(pct, 3),
        "latency_samples": len(medians),
        "repetitions": len(samples) / len(medians),
        "reference_ms_median": 1e3 * statistics.median(s.reference for s in samples),
        "reference_ms_nominal": 1e3 * reference.nominal,
        "unscaled": {"throughput_ops_s": len(raw) / sum(raw), "latency_p50_ms": raw_p50,
                     "latency_tail_ms": raw_tail, "setup_s": setup[1]},
    }
    return metrics, extra


def per_layer(samples, tracer, ops, warmup, gen_times, reference):
    seconds = scaled_seconds(samples, reference)
    traced = [(s, t) for s, t in zip(samples, seconds) if s.span is not None]
    plain = [(s, t) for s, t in zip(samples, seconds) if s.span is None]
    # Span times get the same host-speed scale as the op they belong to.
    scale = {s.span: t / s.seconds for s, t in traced}
    busy = tracer.busy(scale)
    metrics = {}
    for name in (*CALLS, *CLI_SPANS):
        total, calls = busy.get(name, (0.0, 0))
        metrics[f"{name}_s"] = (total / len(traced), "s/op")
        metrics[f"{name}_calls"] = (calls / len(traced), "1/op")

    counts = sum((s.counts for s in samples), Counter())
    per_op = len(samples)
    tightness = [t for s in samples for t in s.tightness]
    metrics.update({
        "classify.witness_skipped": (counts["witness_skipped"] / per_op, "1/op"),
        "schur.complements": (counts["complements"] / per_op, "1/op"),
        "schur.certified_share": (counts["certified"] / max(1, counts["complements"]), "ratio"),
        "normbounds.tightness_p50": (statistics.median(tightness) if tightness else 0.0, "ratio"),
        "detbounds.nonfinite": (counts["nonfinite"] / per_op, "1/op"),
        "lcp.scalings": (counts["scalings"] / per_op, "1/op"),
        "lcp.violations": (counts["violations"] / per_op, "1/op"),
        "generate.sdd1_s": (float(gen_times["sdd1"]), "s"),
        "generate.b1_s": (float(gen_times["b1"]), "s"),
    })

    # Calls made inside the program, counted with the stdlib profiler over the
    # warm-up ops, untimed, so the profiler's cost stays out of every timing.
    context = Context(plain_calls(CALLS))
    profiled = ops[:warmup]
    found = profiled_call_counts(
        lambda: [op.inprocess() if op.inprocess else op.run(context) for op in profiled],
        [("diagdom/core.py", "as_matrix"), ("diagdom/core.py", "dominance_partition")])
    for (_, name), count in found.items():
        metrics[f"core.{name}.calls_per_op"] = (count / len(profiled), "1/op")

    untraced_tput = len(ops) / sum(op_medians(*zip(*plain)))
    traced_tput = len(ops) / sum(op_medians(*zip(*traced)))
    metrics.update({
        "trace.untraced_throughput_ops_s": (untraced_tput, "1/s"),
        "trace.traced_throughput_ops_s": (traced_tput, "1/s"),
        "trace.overhead": (untraced_tput / traced_tput - 1.0, "ratio"),
    })
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs of each workload, for the benchmark's own tests")
    args = parser.parse_args(argv)

    build, reference_parts = WORKLOADS[args.workload]
    reference = Reference(reference_parts)
    # Interpreter start-up is the CLI's kind of work, so setup_s is scaled as
    # cli-oneshot is, whatever the workload.
    setup = setup_seconds(1 if args.tiny else SETUP_REPEATS, Reference(WORKLOADS["cli-oneshot"][1]))
    ops, warmup, gen_times = build(args.seed, args.tiny)
    samples, tracer = measure(ops, warmup, args.seconds, bool(args.trace), reference)
    checks = assess(samples)

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "machine": machine(),
              "digest": checks["digest"], "checks": checks, "ops": len(samples)}
    if args.trace:
        metrics = per_layer(samples, tracer, ops, warmup, gen_times, reference)
        trace_file = ROOT / "bench" / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_file)
        report["trace_file"] = str(trace_file.relative_to(ROOT))
        report["traced_ops"] = sum(s.span is not None for s in samples)
    else:
        metrics, extra = end_to_end(samples, checks, setup, args.workload, reference)
        report.update(extra)
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(report, sort_keys=True))

    if not args.trace:
        del metrics["failed_share"]  # carried by attempted/failed below; it is 0 on most workloads
    result = {
        "correct": checks["contradicted"] == 0 and checks["nondeterministic"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
