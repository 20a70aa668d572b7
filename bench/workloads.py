"""Workload inputs, ops and output checks.

Why each workload exists (see also README.md):

- ``ensemble-audit``: many tiny SDD1 and B1 matrices (orders 4-12), each
  audited the way acceptance criteria 7 and 8 and ``verify`` do.  Python
  call overhead dominates: repeated validation and partitioning, the Schur
  sweeps, the per-sample inversion loop and the 2^n principal-minor scan.
- ``large-dense``: the same certificate and oracle code at orders 256 and
  512, few calls each doing O(n^2-n^3) work.  The Python-loop ``lu_factor``
  and the O(|n2|^2) pairwise loops dominate; no sampling, no 2^n scan.
- ``cli-oneshot``: ``python -m diagdom.cli`` once per fixture and command,
  the way a user audits one matrix.  Interpreter start, ``import diagdom``
  and Matrix Market parsing dominate; the in-process math is tiny.

An op returns a ``Record``: the values that go into the output digest, one
status per check of an output against its oracle, and layer counters.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import diagdom
from diagdom import cli
from diagdom.classify import WITNESS_SEARCH_MAX
from diagdom.errors import GenerationError, HypothesisError

ROOT = Path(__file__).resolve().parent.parent

# Public functions the ops call, by span name.  Each becomes a per-layer
# busy time ("<name>_s") and call count ("<name>_calls").
CALLS = {
    "core.dominance_partition": diagdom.dominance_partition,
    "classify.classify": diagdom.classify,
    "classify.b1_split": diagdom.b1_split,
    "schur.schur_complement": diagdom.schur_complement,
    "schur.quotient_formula_check": diagdom.quotient_formula_check,
    "normbounds.sdd1_schur": diagdom.sdd1_schur_bound,
    "normbounds.s_sdd1_schur": diagdom.s_sdd1_schur_bound,
    "normbounds.sdd1_epsilon": diagdom.sdd1_epsilon_bound,
    "detbounds.ordering": diagdom.dominance_ordering,
    "detbounds.huang": diagdom.huang_bracket,
    "detbounds.dominance": diagdom.dominance_bracket,
    "oracle.lu_factor": diagdom.lu_factor,
    "oracle.determinant": diagdom.determinant,
    "oracle.inverse": diagdom.inverse,
    "oracle.inf_norm": diagdom.inf_norm,
    "oracle.is_h_matrix": diagdom.is_h_matrix,
    "oracle.is_p_matrix": diagdom.is_p_matrix,
    "lcp.lcp_b1_bound": diagdom.lcp_b1_bound,
    "lcp.run_experiment": diagdom.run_experiment,
    "lcp.corner_norms": diagdom.corner_norms,
    "mmio.read": diagdom.read_matrix_market,
}
# Spans measured outside the program's Python calls, on cli-oneshot only.
CLI_SPANS = ("cli.interpreter", "cli.import_numpy", "cli.import_diagdom", "cli.in_process")

TOL = 1e-9               # a certificate may miss its oracle by this much before it fails
LCP_SAMPLES = 500        # criterion 8's experiment size
CORNER_MAX_ORDER = 10    # criterion 8 sweeps corners up to this order
P_SCAN_MAX_ORDER = 12    # verify runs the principal-minor scan up to this order
CHILD_TIMEOUT_S = 60

PASS, FAIL, NONFINITE = "pass", "fail", "nonfinite"


class Record:
    """What one op produced.

    ``values`` is the digest material in call order.  A check whose inputs
    include a non-finite number cannot be compared with its oracle and is
    ``NONFINITE``: it counts as failed, but not as a contradiction.
    """

    def __init__(self):
        self.values = []
        self.checks = []
        self.counts = Counter()
        self.tightness = []

    def value(self, key, value):
        self.values.append([key, value])

    def check(self, name, ok, *operands):
        if not all(math.isfinite(x) for x in operands):
            status = NONFINITE
        else:
            status = PASS if ok else FAIL
        self.checks.append((name, status))


@dataclass(frozen=True)
class Op:
    """One unit of closed-loop work: ``run(ctx) -> Record``."""

    label: str
    run: object
    inprocess: object = None  # what the profiler runs instead, when ``run`` spawns a child
    probe: object = None      # traced runs only: extra layer timings taken after the op


@dataclass
class Context:
    """What an op may use: the diagdom calls (plain or traced) and the tracer."""

    calls: object
    tracer: object = None
    op_span: int | None = None


def _plain(obj):
    """JSON-able copy with numpy scalars and arrays turned into Python values."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def value_digest_bytes(record):
    return json.dumps(record.values, default=_plain, allow_nan=True).encode("ascii")


# --- steps shared by ensemble-audit and large-dense --------------------------------


def _classify(dd, rec, A):
    rep = dd.classify(A)
    part = rep.partition
    rec.value("classify", _plain([rep.is_sdd, rep.is_sdd1, rep.s_sdd1_witness,
                                  part.n1, part.n2, rep.dominance_degrees]))
    if len(part.n2) > WITNESS_SEARCH_MAX:
        rec.counts["witness_skipped"] += 1
    h = dd.is_h_matrix(A)
    rec.value("is_h_matrix", bool(h))
    rec.check("classified SDD1 and H-matrix", rep.is_sdd1 and h)
    return part


def _schur(dd, rec, A, alpha):
    """One complement; its certified margins against the complement's exact ones."""
    res = dd.schur_complement(A, list(alpha))
    rec.counts["complements"] += 1
    certs = res.certified_lower_bounds
    rec.value("schur", _plain([res.alpha, res.tilde_n1, res.certified_kind,
                               None if certs is None else sorted(certs.items())]))
    if certs is None:
        return
    rec.counts["certified"] += 1
    cpart = dd.dominance_partition(res.complement)
    off = cpart.p_values if res.certified_kind == "sdd1_degree" else cpart.row_sums
    exact = np.abs(res.complement.diagonal()) - off
    row = {j: t for t, j in enumerate(res.alpha_bar)}
    ok = all(c <= exact[row[j]] + TOL * max(1.0, abs(exact[row[j]])) for j, c in certs.items())
    rec.check("Schur margin", ok, *certs.values(), *exact)


def _norm_bounds(dd, rec, A, part):
    exact = dd.inf_norm(dd.inverse(A))
    rec.value("inf_norm_inverse", exact)
    certs = [dd.sdd1_schur_bound(A), dd.sdd1_epsilon_bound(A)]
    if len(part.n2) >= 2:
        certs.append(dd.s_sdd1_schur_bound(A, part.n2))
    for cert in certs:
        rec.value(cert.formula_id, _plain([cert.value, cert.parameters]))
        rec.check(cert.formula_id, cert.value >= exact - TOL, cert.value, exact)
        rec.tightness.append(cert.value / exact)


def _brackets(dd, rec, A):
    ordered = dd.dominance_ordering(A).apply(A)
    det = abs(dd.determinant(A))
    rec.value("abs_det", det)
    for name, bracket in (("huang", dd.huang_bracket), ("dominance", dd.dominance_bracket)):
        try:
            br = bracket(ordered)
        except HypothesisError as exc:  # a documented guard, not a failure
            rec.value(name, exc.hypothesis)
            continue
        rec.value(name, [br.lower, br.upper])
        if not (math.isfinite(br.lower) and math.isfinite(br.upper)):
            rec.counts["nonfinite"] += 1
        ok = br.lower <= det * (1 + TOL) + 1e-12 and det <= br.upper * (1 + TOL) + 1e-12
        rec.check(f"{name} bracket", ok, br.lower, br.upper, det)


def _sdd1_part(dd, kind, M):
    return M if kind == "sdd1" else dd.b1_split(M).a


# --- ensemble-audit ---------------------------------------------------------------


def _proper_subsets(n2):
    for size in range(1, len(n2)):
        yield from itertools.combinations(n2, size)


def _supersets(n2, n1, n):
    for size in range(len(n1)):
        for extra in itertools.combinations(n1, size):
            alpha = sorted(n2 + extra)
            if len(alpha) < n:
                yield alpha


def _lcp(dd, rec, M, seed):
    exp = dd.run_experiment(M, LCP_SAMPLES, seed)
    bound = exp.analytic_bound
    rec.value("lcp", [dd.lcp_b1_bound(M).value, bound, exp.violations, exp.exact_norms.tolist()])
    violations = exp.violations
    worst = float(exp.exact_norms.max())
    rec.counts["scalings"] += exp.sample_count
    n = M.shape[0]
    if n <= CORNER_MAX_ORDER:
        corners = dd.corner_norms(M)
        rec.value("corners", corners.tolist())
        violations += int((corners > bound + TOL).sum())
        worst = max(worst, float(corners.max()))
        rec.counts["scalings"] += len(corners)
    rec.counts["violations"] += violations
    rec.check("LCP samples and corners", violations == 0, bound, worst)
    if n <= P_SCAN_MAX_ORDER:
        p = dd.is_p_matrix(M)
        rec.value("is_p_matrix", bool(p))
        rec.check("B1 is a P-matrix", p)


def audit_instance(kind, M, quotient, exp_seed):
    """Criteria 7 and 8 and ``verify`` on one small instance.

    As in the acceptance suite, the Schur sweeps run on SDD1 instances only.
    Their size is 2^|n1| + 2^|n2|, fixed for ``generate_sdd1`` but not for
    the SDD1 part of a B1 instance, whose |n1| varies with the seed.
    """

    def run(ctx):
        dd, rec = ctx.calls, Record()
        A = _sdd1_part(dd, kind, M)
        part = _classify(dd, rec, A)
        if kind == "sdd1":  # criterion 7 sweeps the SDD1 ensemble only
            for alpha in _proper_subsets(part.n2):
                _schur(dd, rec, A, alpha)
            for alpha in _supersets(part.n2, part.n1, A.shape[0]):
                _schur(dd, rec, A, alpha)
            if quotient is not None:
                rec.check("quotient formula", dd.quotient_formula_check(A, *quotient))
        _norm_bounds(dd, rec, A, part)
        _brackets(dd, rec, A)
        if kind == "b1":
            _lcp(dd, rec, M, exp_seed)
        return rec

    return run


# --- large-dense ------------------------------------------------------------------


def dense_pass(kind, M):
    """One full certificate-and-oracle pass over a large matrix."""

    def run(ctx):
        dd, rec = ctx.calls, Record()
        A = _sdd1_part(dd, kind, M)
        part = dd.dominance_partition(A)
        _classify(dd, rec, A)
        _norm_bounds(dd, rec, A, part)
        _brackets(dd, rec, A)
        fact = dd.lu_factor(A)
        rec.value("lu", _plain([fact.perm, fact.sign, fact.packed.diagonal()]))
        _schur(dd, rec, A, part.n2)
        if kind == "b1":
            rec.value("lcp_b1_bound", dd.lcp_b1_bound(M).value)
        return rec

    return run


# --- cli-oneshot ------------------------------------------------------------------


def child_env():
    """Environment for child interpreters: this checkout's ``src`` and the pinned BLAS."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _import_times(stderr):
    """Cumulative seconds of the top-level numpy and diagdom imports from -X importtime."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) == 3 and fields[2].strip() in ("numpy", "diagdom"):
            out[fields[2].strip()] = int(fields[1]) / 1e6
    return out


def cli_invocation(args):
    """``python -m diagdom.cli <args>`` in a child; traced runs add -X importtime."""
    env = child_env()
    path = args[args.index("--input") + 1]  # relative to the checkout, so reports match

    def run(ctx):
        traced = ctx.tracer is not None
        argv = [sys.executable, *(["-X", "importtime"] if traced else []), "-m", "diagdom.cli", *args]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        rec = Record()
        try:
            report = json.loads(proc.stdout)
        except json.JSONDecodeError:
            report = {"unparsed_stdout": proc.stdout}
        timing = report.pop("timing", {})
        rec.value("exit_code", proc.returncode)
        rec.value("report", report)
        ok = proc.returncode == 0
        if args[0] == "verify":
            ok = ok and report.get("result", {}).get("all_sound") is True
            for cert in report.get("result", {}).get("certificates", []):
                if cert.get("exact_value"):
                    rec.tightness.append(cert["value"] / cert["exact_value"])
        rec.check(f"{args[0]} exit code and soundness", ok)
        if traced:
            imports = _import_times(proc.stderr)
            for name, key in (("cli.import_numpy", "numpy"), ("cli.import_diagdom", "diagdom")):
                ctx.tracer.add(name, t0, t0 + imports.get(key, 0.0), ctx.op_span)
            in_process = sum(timing.values())
            ctx.tracer.add("cli.in_process", t0, t0 + in_process, ctx.op_span)
        return rec

    def inprocess():
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main([str(ROOT / a) if a == path else a for a in args])

    def probe(ctx):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=CHILD_TIMEOUT_S)
        ctx.tracer.add("cli.interpreter", t0, time.perf_counter(), ctx.op_span)
        ctx.calls.read_matrix_market(ROOT / path)

    return run, inprocess, probe


# --- input builders ---------------------------------------------------------------


def _generate(rng, timings, kind, n, **kwargs):
    """Seeded instance; a generator seed that exhausts its retry budget is redrawn."""
    fn = diagdom.generate_sdd1 if kind == "sdd1" else diagdom.generate_b1
    t0 = time.perf_counter()
    try:
        while True:
            try:
                return fn(n, int(rng.integers(0, 2**31)), **kwargs)
            except GenerationError:
                continue
    finally:
        timings[kind] += time.perf_counter() - t0


def _quotient_sets(rng, A):
    """(beta, gamma) for criterion 7's one nested elimination identity, or None."""
    n = A.shape[0]
    n2 = diagdom.dominance_partition(A).n2
    if len(n2) < 2:
        return None
    gamma = [n2[0]]
    picks = rng.choice([j for j in range(n) if j != n2[0]], size=min(2, n - 2), replace=False)
    beta = sorted(picks.tolist() + gamma)
    return (beta, gamma) if len(beta) < n else None


def build_ensemble(seed, tiny):
    """Rounds of one SDD1 and one B1 instance per order, built as tests/conftest.py does.

    Returns (cycle of ops, warm-up op count, generation seconds by kind); the
    first round warms up.
    """
    orders = range(4, 7) if tiny else range(4, 13)
    rng = np.random.default_rng([seed, 0xE45E])
    timings = Counter()
    ops = []
    for _ in range(1 if tiny else ENSEMBLE_ROUNDS):
        for n in orders:
            for kind, fraction in (("sdd1", 0.5), ("b1", 0.45)):
                M = _generate(rng, timings, kind, n, n1_fraction=fraction)
                quotient = _quotient_sets(rng, M) if kind == "sdd1" else None
                exp_seed = int(rng.integers(0, 2**31))
                ops.append(Op(f"{kind}-{n}", audit_instance(kind, M, quotient, exp_seed)))
    return ops, 2 * len(orders), timings


def build_large(seed, tiny):
    """SDD1 and B1 matrices at orders 256 and 512, one pass each; the first of each warms up."""
    per_kind = {16: 1, 24: 1} if tiny else LARGE_PER_KIND
    rng = np.random.default_rng([seed, 0x1A26E])
    timings = Counter()
    ops = []
    for rep in range(max(per_kind.values())):
        for n, count in per_kind.items():
            if rep < count:
                for kind, fraction in (("sdd1", 0.5), ("b1", 0.45)):
                    M = _generate(rng, timings, kind, n, n1_fraction=fraction)
                    ops.append(Op(f"{kind}-{n}", dense_pass(kind, M)))
    return ops, 2 * len(per_kind), timings


FIXTURES = ("det_6x6_first", "det_6x6_second", "lcp_8x8", "norm_8x8", "schur_5x5", "schur_6x6")


def build_cli(seed, tiny):
    """Both commands on every fixture, twice; the seed picks each ``verify`` experiment seed."""
    rng = np.random.default_rng([seed, 0xC11])
    ops = []
    for _ in range(1 if tiny else CLI_REPEATS):
        for name in ("lcp_8x8",) if tiny else FIXTURES:
            path = f"tests/fixtures/{name}.mtx"
            verify_seed = str(int(rng.integers(0, 2**31)))
            for args in (["classify", "--input", path],
                         ["verify", "--all", "--seed", verify_seed, "--input", path]):
                run, inprocess, probe = cli_invocation(args)
                ops.append(Op(f"{args[0]}:{name}", run, inprocess, probe))
    return ops, 2, Counter()


# Cycle sizes: enough distinct ops per workload (at least 20) for a latency
# tail with ten ops beyond it, and a cycle short enough to repeat in a run.
# large-dense has twice as many matrices of order 512 as of order 256, so its
# median and tail fall among the order-512 passes, not on the gap between the
# two orders, where they would jump with noise.
ENSEMBLE_ROUNDS = 4
LARGE_PER_KIND = {256: 6, 512: 6}
CLI_REPEATS = 2
# Workload -> (input builder, host-speed reference parts that resemble its work;
# see speed.py).
WORKLOADS = {
    "ensemble-audit": (build_ensemble, ("small",)),
    "large-dense": (build_large, ("dense",)),
    "cli-oneshot": (build_cli, ("small", "dense")),
}
