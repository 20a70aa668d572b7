"""Command-line front end: file in, structured JSON report out.

Subcommands: classify, schur, norm-bound, det-bound, lcp-bound, verify,
generate.  All indices in flags and reports are 1-based; the Python API
underneath is 0-based.  Exit codes: 0 success, 1 when a guarded hypothesis is
violated (the violation is reported structurally, never as a traceback), 2
for I/O, parse, or usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import detbounds, lcp, normbounds
from .classify import classify
from .errors import HypothesisError, MatrixMarketError, ToolkitError, ValidationError
from .generate import generate_b1, generate_sdd1
from .mmio import format_matrix_market, matrix_digest, read_matrix_market, write_matrix_market
from .oracle import determinant, inf_norm, inverse, is_h_matrix, is_p_matrix
from .schur import SCALAR_RTOL, schur_complement

__all__ = ["main"]

VERIFY_P_MATRIX_MAX_ORDER = 12  # verify runs the principal-minor scan up to this order


def _one_based(indices):
    return [int(i) + 1 for i in indices]


def _parse_index_list(text):
    try:
        return [int(tok) - 1 for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValidationError(f"expected a comma list of integers, got {text!r}") from None


def _s_sdd1_schur(A, args):
    if not args.s_set:
        raise ValidationError("--s-set is required for the s-sdd1-schur formula")
    return normbounds.s_sdd1_schur_bound(A, _parse_index_list(args.s_set))


# Each norm-bound formula as a callable (A, args) -> BoundCertificate.
_FORMULAS = {
    "sdd-pairwise": lambda A, args: normbounds.sdd_pairwise_bound(A),
    "sdd1-epsilon": lambda A, args: normbounds.sdd1_epsilon_bound(A, args.epsilon),
    "sdd1-schur": lambda A, args: normbounds.sdd1_schur_bound(A),
    "s-sdd1-schur": _s_sdd1_schur,
}


def _cert_payload(cert):
    params = _jsonable(cert.parameters)
    if isinstance(params.get("s"), list):  # reports speak 1-based
        params["s"] = [i + 1 for i in params["s"]]
    return {
        "formula_id": cert.formula_id,
        "value": cert.value,
        "parameters": params,
        "exact_value": cert.exact_value,
        "slack": cert.slack,
    }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _emit(report, args):
    text = json.dumps(report, indent=2, sort_keys=True)
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _load(args):
    A = read_matrix_market(args.input)
    return A, {"command": args.command, "input": args.input, "input_digest": matrix_digest(A)}


def _cmd_classify(args):
    A, report = _load(args)
    t0 = time.perf_counter()
    rep = classify(A)
    report["result"] = {
        "order": int(A.shape[0]),
        "is_sdd": rep.is_sdd,
        "is_sdd1": rep.is_sdd1,
        "n1": _one_based(rep.partition.n1),
        "n2": _one_based(rep.partition.n2),
        "row_sums": _jsonable(rep.partition.row_sums),
        "p_values": _jsonable(rep.partition.p_values),
        "dominance_degrees": _jsonable(rep.dominance_degrees),
        "s_sdd1_witness": None if rep.s_sdd1_witness is None else _one_based(rep.s_sdd1_witness),
        "is_h_matrix": is_h_matrix(A),
    }
    report["timing"] = {"classify": time.perf_counter() - t0}
    return report


def _cmd_schur(args):
    A, report = _load(args)
    if not args.alpha:
        raise ValidationError("--alpha is required for the schur subcommand")
    alpha = _parse_index_list(args.alpha)
    t0 = time.perf_counter()
    res = schur_complement(A, alpha)
    det_full = determinant(A)
    det_block = determinant(A[np.ix_(res.alpha, res.alpha)])
    det_comp = determinant(res.complement)
    report["result"] = {
        "alpha": _one_based(res.alpha),
        "alpha_bar": _one_based(res.alpha_bar),
        "complement": _jsonable(res.complement),
        "tilde_n1": _one_based(res.tilde_n1),
        "tilde_n2": _one_based(res.tilde_n2),
        "delta_available": res.delta is not None,
        "delta": None if res.delta is None else _jsonable(res.delta),
        "certified_kind": res.certified_kind,
        "certified_lower_bounds": None
        if res.certified_lower_bounds is None
        else {str(k + 1): v for k, v in sorted(res.certified_lower_bounds.items())},
        "determinant_identity": {
            "det": det_full,
            "det_block_times_det_complement": det_block * det_comp,
            "matches": bool(
                abs(det_full - det_block * det_comp)
                <= SCALAR_RTOL * max(1.0, abs(det_full))
            ),
        },
    }
    report["timing"] = {"schur": time.perf_counter() - t0}
    return report


def _cmd_norm_bound(args):
    A, report = _load(args)
    t0 = time.perf_counter()
    cert = _FORMULAS[args.formula or "sdd1-schur"](A, args)
    report["certificates"] = [_cert_payload(cert)]
    report["timing"] = {"norm-bound": time.perf_counter() - t0}
    return report


def _cmd_det_bound(args):
    A, report = _load(args)
    t0 = time.perf_counter()
    ordering = detbounds.dominance_ordering(A)
    ordered = ordering.apply(A)
    result = {
        "permutation": _one_based(ordering.permutation),
        "n1_size": ordering.s,
        "oracle_abs_det": abs(determinant(A)),
    }
    try:
        broad = detbounds.huang_bracket(ordered)
        result["huang"] = {
            "lower": broad.lower,
            "upper": broad.upper,
            "theta": broad.theta,
            "factors": _jsonable(broad.factors),
        }
    except HypothesisError as exc:
        result["huang"] = {"unavailable": str(exc), "hypothesis": exc.hypothesis}
    tight = detbounds.dominance_bracket(ordered)
    result["dominance_ratio"] = {
        "lower": tight.lower,
        "upper": tight.upper,
        "factors": _jsonable(tight.factors),
    }
    report["result"] = result
    report["timing"] = {"det-bound": time.perf_counter() - t0}
    return report


def _cmd_lcp_bound(args):
    A, report = _load(args)
    t0 = time.perf_counter()
    cert = lcp.lcp_b1_bound(A)
    report["certificates"] = [_cert_payload(cert)]
    if args.samples:
        exp = lcp.run_experiment(A, args.samples, args.seed if args.seed is not None else 0)
        report["experiment"] = {
            "seed": exp.seed,
            "samples": exp.sample_count,
            "generator": exp.generator,
            "violations": exp.violations,
            "max_sampled_norm": float(exp.exact_norms.max()),
            "bound": exp.analytic_bound,
        }
    report["timing"] = {"lcp-bound": time.perf_counter() - t0}
    return report


def _cmd_verify(args):
    A, report = _load(args)
    t0 = time.perf_counter()
    tol = args.tolerance if args.tolerance is not None else 1e-9
    certs = []
    notes = []
    exact_norm = inf_norm(inverse(A))

    def push(maker, *maker_args):
        try:
            cert = maker(*maker_args).with_exact(exact_norm)
        except HypothesisError as exc:
            notes.append({"skipped": maker.__name__, "hypothesis": exc.hypothesis})
            return
        certs.append(cert)

    push(normbounds.sdd_pairwise_bound, A)
    push(normbounds.sdd1_schur_bound, A)
    push(normbounds.sdd1_epsilon_bound, A, args.epsilon)

    result = {
        "exact_inf_norm_of_inverse": exact_norm,
        "certificates": [_cert_payload(c) for c in certs],
        "skipped": notes,
    }

    try:
        ordering = detbounds.dominance_ordering(A)
        ordered = ordering.apply(A)
        exact_det = abs(determinant(A))

        def contains_det(br):
            return br.lower <= exact_det * (1 + tol) and exact_det <= br.upper * (1 + tol)

        brackets = {}
        try:
            broad = detbounds.huang_bracket(ordered)
            brackets["huang"] = {
                "lower": broad.lower,
                "upper": broad.upper,
                "contains_det": contains_det(broad),
            }
        except HypothesisError as exc:
            brackets["huang"] = {"unavailable": exc.hypothesis}
        tight = detbounds.dominance_bracket(ordered)
        brackets["dominance_ratio"] = {
            "lower": tight.lower,
            "upper": tight.upper,
            "contains_det": contains_det(tight),
        }
        result["det"] = {"oracle_abs_det": exact_det, "brackets": brackets}
    except HypothesisError as exc:
        result["det"] = {"skipped": exc.hypothesis}

    try:
        samples = args.samples if args.samples else 200
        exp = lcp.run_experiment(A, samples, args.seed if args.seed is not None else 0)
        result["lcp"] = {
            "bound": exp.analytic_bound,
            "samples": exp.sample_count,
            "violations": exp.violations,
            "max_sampled_norm": float(exp.exact_norms.max()),
        }
    except HypothesisError as exc:
        result["lcp"] = {"skipped": exc.hypothesis}

    sound = all(c.slack is not None and c.slack >= -tol for c in certs)
    if "violations" in result.get("lcp", {}):
        sound = sound and result["lcp"]["violations"] == 0
    result["all_sound"] = bool(sound)
    if A.shape[0] <= VERIFY_P_MATRIX_MAX_ORDER:
        result["p_matrix"] = is_p_matrix(A)
    else:
        result["p_matrix"] = {"skipped": "size guard", "limit": VERIFY_P_MATRIX_MAX_ORDER}
    result["h_matrix"] = is_h_matrix(A)
    report["result"] = result
    report["timing"] = {"verify": time.perf_counter() - t0}
    if not sound:
        report["error"] = {"kind": "soundness", "message": "a certificate fell below the oracle"}
    return report


def _cmd_generate(args):
    t0 = time.perf_counter()
    kind = args.kind or "sdd1"
    order = args.order or 8
    seed = args.seed if args.seed is not None else 0
    if kind == "sdd1":
        A = generate_sdd1(order, seed, args.n1_fraction or 0.4)
    elif kind == "b1":
        A = generate_b1(order, seed, args.n1_fraction or 0.4)
    else:
        raise ValidationError(f"unknown kind {kind!r}")
    comment = f"generated kind={kind} order={order} seed={seed}"
    if args.output:
        write_matrix_market(args.output, A, comment=comment)
        report = {
            "command": "generate",
            "written": args.output,
            "digest": matrix_digest(A),
            "kind": kind,
            "order": order,
            "seed": seed,
            "timing": {"generate": time.perf_counter() - t0},
        }
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        # No output path: the matrix itself goes to stdout in Matrix Market form.
        sys.stdout.write(format_matrix_market(A, comment=comment))
    return None


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="diagdom",
        description="Dominance-structured dense matrix analysis with certified bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, needs_input=True):
        p = sub.add_parser(name)
        if needs_input:
            p.add_argument("--input", required=True, help="Matrix Market file")
        p.add_argument("--output", help="write the JSON report here instead of stdout")
        p.add_argument("--tolerance", type=float, help="soundness slack tolerance")
        return p

    add("classify")

    p = add("schur")
    p.add_argument("--alpha", help="comma list of 1-based pivot rows")

    p = add("norm-bound")
    p.add_argument("--formula", choices=sorted(_FORMULAS), help="bound formula")
    p.add_argument("--epsilon", type=float, help="epsilon for the sdd1-epsilon formula")
    p.add_argument("--s-set", dest="s_set", help="comma list of 1-based witness rows")

    add("det-bound")

    p = add("lcp-bound")
    p.add_argument("--samples", type=int, help="run a sampling experiment of this size")
    p.add_argument("--seed", type=int, help="experiment seed")

    p = add("verify")
    p.add_argument("--all", action="store_true",
                   help="accepted and ignored: verify always runs every applicable check")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)

    p = add("generate", needs_input=False)
    p.add_argument("--kind", choices=["sdd1", "b1"])
    p.add_argument("--order", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--n1-fraction", dest="n1_fraction", type=float)

    return parser


_HANDLERS = {
    "classify": _cmd_classify,
    "schur": _cmd_schur,
    "norm-bound": _cmd_norm_bound,
    "det-bound": _cmd_det_bound,
    "lcp-bound": _cmd_lcp_bound,
    "verify": _cmd_verify,
    "generate": _cmd_generate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report = _HANDLERS[args.command](args)
    except (MatrixMarketError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except HypothesisError as exc:
        payload = {
            "command": args.command,
            "error": {
                "kind": "hypothesis",
                "hypothesis": exc.hypothesis,
                "message": str(exc),
            },
        }
        _emit(payload, args)
        return 1
    except ToolkitError as exc:
        payload = {
            "command": args.command,
            "error": {"kind": type(exc).__name__, "message": str(exc)},
        }
        _emit(payload, args)
        return 1
    if report is not None:
        if "error" in report:
            _emit(report, args)
            return 1
        _emit(report, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
