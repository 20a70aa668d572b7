"""Command-line front end: file in, structured JSON report out.

Subcommands: classify, schur, norm-bound, det-bound, lcp-bound, verify,
generate.  All indices in flags and reports are 1-based; the Python API
underneath is 0-based.  Exit codes: 0 success, 1 when a guarded hypothesis is
violated or a bound's denominator is not positive and finite (reported
structurally, never as a traceback), 2 for I/O, parse, or usage errors.

Every subcommand but ``generate`` runs one pipeline in ``main``: read and hash
the input, call the subcommand's handler ``(A, args) -> dict`` (no I/O, no
timing), time that call, and emit one report.

Only what every subcommand uses is imported at the top; each handler imports
its own modules where it runs, so one call loads only what it computes with.
``main`` loads them before the timer starts.  Handlers call through the module
(``normbounds.sdd1_schur_bound``), so a patched module attribute is the one
they call.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .errors import (DenominatorError, HypothesisError, MatrixMarketError, ToolkitError,
                     ValidationError)
from .mmio import format_matrix_market, matrix_digest, read_matrix_market, write_matrix_market

__all__ = ["main"]

VERIFY_P_MATRIX_MAX_ORDER = 12  # verify runs the principal-minor scan up to this order


def _one_based(indices):
    return [int(i) + 1 for i in indices]


def _parse_index_list(text):
    try:
        return [int(tok) - 1 for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValidationError(f"expected a comma list of integers, got {text!r}") from None


def _s_sdd1_schur(normbounds, A, args):
    if not args.s_set:
        raise ValidationError("--s-set is required for the s-sdd1-schur formula")
    return normbounds.s_sdd1_schur_bound(A, _parse_index_list(args.s_set))


# Each norm-bound formula as a callable (normbounds, A, args) -> BoundCertificate.
_FORMULAS = {
    "sdd-pairwise": lambda normbounds, A, args: normbounds.sdd_pairwise_bound(A),
    "sdd1-epsilon": lambda normbounds, A, args: normbounds.sdd1_epsilon_bound(A, args.epsilon),
    "sdd1-schur": lambda normbounds, A, args: normbounds.sdd1_schur_bound(A),
    "s-sdd1-schur": _s_sdd1_schur,
}


def _cert_payload(cert):
    params = dict(cert.parameters)
    if isinstance(params.get("s"), list):  # reports speak 1-based
        params["s"] = [i + 1 for i in params["s"]]
    return {
        "formula_id": cert.formula_id,
        "value": cert.value,
        "parameters": params,
        "exact_value": cert.exact_value,
        "slack": cert.slack,
    }


def _emit(report, output):
    text = json.dumps(report, indent=2, sort_keys=True, default=np.ndarray.tolist) + "\n"
    if output:
        with open(output, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _h_section(A):
    """Whether A is an H-matrix, and the scaling x that proves it (None if not)."""
    from .oracle import h_scaling
    x = h_scaling(A)
    return x is not None, x


def _cmd_classify(A, args):
    from .classify import classify
    rep = classify(A)
    is_h, scaling = _h_section(A)
    witness = None if rep.s_sdd1_witness is None else _one_based(rep.s_sdd1_witness)
    return {"result": {
        "order": int(A.shape[0]),
        "is_sdd": rep.is_sdd,
        "is_sdd1": rep.is_sdd1,
        "n1": _one_based(rep.partition.n1),
        "n2": _one_based(rep.partition.n2),
        "row_sums": rep.partition.row_sums,
        "p_values": rep.partition.p_values,
        "dominance_degrees": rep.dominance_degrees,
        "s_sdd1_witness": witness,
        "is_h_matrix": is_h,
        "h_scaling": scaling,
    }}


def _cmd_schur(A, args):
    from .oracle import determinant
    from .schur import SCALAR_RTOL, schur_complement
    if not args.alpha:
        raise ValidationError("--alpha is required for the schur subcommand")
    res = schur_complement(A, _parse_index_list(args.alpha))
    det_block = determinant(A[np.ix_(res.alpha, res.alpha)])
    det_full = determinant(A)
    det_comp = determinant(res.complement)
    return {"result": {
        "alpha": _one_based(res.alpha),
        "alpha_bar": _one_based(res.alpha_bar),
        "complement": res.complement,
        "tilde_n1": _one_based(res.tilde_n1),
        "tilde_n2": _one_based(res.tilde_n2),
        "delta_available": res.delta is not None,
        "delta": res.delta,
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
    }}


def _cmd_norm_bound(A, args):
    from . import normbounds
    return {"certificates": [_cert_payload(_FORMULAS[args.formula](normbounds, A, args))]}


def _det_section(A):
    """The det-bound result: dominance ordering, oracle |det| and both brackets.

    The global-weight (Huang) bracket reports its violated hypothesis instead
    of failing; any other ``HypothesisError`` propagates.
    """
    from . import detbounds
    from .oracle import determinant
    ordering = detbounds.dominance_ordering(A)
    result = {
        "permutation": _one_based(ordering.permutation),
        "n1_size": ordering.s,
        "oracle_abs_det": abs(determinant(A)),
    }
    try:
        broad = detbounds.huang_bracket(A)
        result["huang"] = {
            "lower": broad.lower,
            "upper": broad.upper,
            "theta": broad.theta,
            "factors": broad.factors,
        }
    except HypothesisError as exc:
        result["huang"] = {"unavailable": str(exc), "hypothesis": exc.hypothesis}
    tight = detbounds.dominance_bracket(A)
    result["dominance_ratio"] = {
        "lower": tight.lower,
        "upper": tight.upper,
        "factors": tight.factors,
    }
    return result


def _experiment_section(A, samples, seed):
    """The lcp-bound experiment: ``samples`` seeded diagonal scalings of A."""
    from . import lcp
    exp = lcp.run_experiment(A, samples, seed)
    return {
        "seed": exp.seed,
        "samples": exp.sample_count,
        "generator": exp.generator,
        "violations": exp.violations,
        "max_sampled_norm": float(exp.exact_norms.max()),
        "bound": exp.analytic_bound,
    }


def _cmd_det_bound(A, args):
    return {"result": _det_section(A)}


def _cmd_lcp_bound(A, args):
    from . import lcp
    report = {"certificates": [_cert_payload(lcp.lcp_b1_bound(A))]}
    if args.samples is not None:
        report["experiment"] = _experiment_section(A, args.samples, args.seed)
    return report


def _verify_det(A, tol):
    """verify's det block, projected from ``_det_section``."""
    section = _det_section(A)
    exact_det = section["oracle_abs_det"]

    def bracket(entry):
        if "hypothesis" in entry:
            return {"unavailable": entry["hypothesis"]}
        lower, upper = entry["lower"], entry["upper"]
        contains = lower <= exact_det * (1 + tol) and exact_det <= upper * (1 + tol)
        return {"lower": lower, "upper": upper, "contains_det": contains}

    brackets = {name: bracket(section[name]) for name in ("huang", "dominance_ratio")}
    return {"oracle_abs_det": exact_det, "brackets": brackets}


def _cmd_verify(A, args):
    from . import normbounds
    from .oracle import inf_norm, inverse, is_p_matrix
    tol = args.tolerance
    certs = []
    notes = []
    exact_norm = inf_norm(inverse(A))
    for maker, *maker_args in ((normbounds.sdd_pairwise_bound, A),
                               (normbounds.sdd1_schur_bound, A),
                               (normbounds.sdd1_epsilon_bound, A, args.epsilon)):
        try:
            certs.append(maker(*maker_args).with_exact(exact_norm))
        except HypothesisError as exc:
            notes.append({"skipped": maker.__name__, "hypothesis": exc.hypothesis})
    result = {
        "exact_inf_norm_of_inverse": exact_norm,
        "certificates": [_cert_payload(c) for c in certs],
        "skipped": notes,
    }
    try:
        result["det"] = _verify_det(A, tol)
    except HypothesisError as exc:
        result["det"] = {"skipped": exc.hypothesis}
    try:
        exp = _experiment_section(A, args.samples, args.seed)
        result["lcp"] = {k: exp[k] for k in ("bound", "samples", "violations", "max_sampled_norm")}
    except HypothesisError as exc:
        result["lcp"] = {"skipped": exc.hypothesis}

    sound = all(c.slack is not None and c.slack >= -tol * min(1.0, abs(c.exact_value))
                for c in certs)
    brackets = result["det"].get("brackets", {}).values()
    contained = all(b.get("contains_det", True) for b in brackets)
    result["all_sound"] = bool(sound and contained and result["lcp"].get("violations", 0) == 0)
    if A.shape[0] <= VERIFY_P_MATRIX_MAX_ORDER:
        result["p_matrix"] = is_p_matrix(A)
    else:
        result["p_matrix"] = {"skipped": "size guard", "limit": VERIFY_P_MATRIX_MAX_ORDER}
    result["h_matrix"], result["h_scaling"] = _h_section(A)
    report = {"result": result}
    if not result["all_sound"]:
        report["error"] = {"kind": "soundness",
                           "message": "a certificate or bracket disagreed with its oracle"}
    return report


def _generate(args):
    """Write a generated matrix to --output (and a JSON receipt to stdout) or to stdout."""
    from .generate import generate_b1, generate_sdd1
    t0 = time.perf_counter()
    make = generate_b1 if args.kind == "b1" else generate_sdd1
    A = make(args.order, args.seed, args.n1_fraction)
    comment = f"generated kind={args.kind} order={args.order} seed={args.seed}"
    if not args.output:
        sys.stdout.write(format_matrix_market(A, comment=comment))
        return
    write_matrix_market(args.output, A, comment=comment)
    _emit({
        "command": "generate",
        "written": args.output,
        "digest": matrix_digest(A),
        "kind": args.kind,
        "order": args.order,
        "seed": args.seed,
        "timing": {"generate": time.perf_counter() - t0},
    }, None)


# Each subcommand's handler and the modules it computes with.  ``main`` imports
# them before it starts the timer, so ``timing`` counts no compile or import.
_HANDLERS = {
    "classify": (_cmd_classify, ("classify", "oracle")),
    "schur": (_cmd_schur, ("oracle", "schur")),
    "norm-bound": (_cmd_norm_bound, ("normbounds",)),
    "det-bound": (_cmd_det_bound, ("detbounds", "oracle")),
    "lcp-bound": (_cmd_lcp_bound, ("lcp",)),
    "verify": (_cmd_verify, ("detbounds", "lcp", "normbounds", "oracle")),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="diagdom",
        description="Dominance-structured dense matrix analysis with certified bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {}
    for name in _HANDLERS:
        p = subs[name] = sub.add_parser(name)
        p.add_argument("--input", required=True, help="Matrix Market file")
        p.add_argument("--output", help="write the JSON report here instead of stdout")

    subs["schur"].add_argument("--alpha", help="comma list of 1-based pivot rows")

    p = subs["norm-bound"]
    p.add_argument("--formula", choices=sorted(_FORMULAS), default="sdd1-schur",
                   help="bound formula")
    p.add_argument("--epsilon", type=float, help="epsilon for the sdd1-epsilon formula")
    p.add_argument("--s-set", dest="s_set", help="comma list of 1-based witness rows")

    p = subs["lcp-bound"]
    p.add_argument("--samples", type=int, help="run a sampling experiment of this size")
    p.add_argument("--seed", type=int, default=0, help="experiment seed")

    p = subs["verify"]
    p.add_argument("--all", action="store_true",
                   help="accepted and ignored: verify always runs every applicable check")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-9,
                   help="soundness slack tolerance, relative to an oracle below 1")

    p = sub.add_parser("generate")
    p.add_argument("--output", help="write the matrix here (Matrix Market) instead of stdout")
    p.add_argument("--kind", choices=["sdd1", "b1"], default="sdd1")
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n1-fraction", dest="n1_fraction", type=float, default=0.4)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            _generate(args)
            return 0
        A = read_matrix_market(args.input)
        report = {"command": args.command, "input": args.input, "input_digest": matrix_digest(A)}
        handler, modules = _HANDLERS[args.command]
        for module in modules:  # ``__import__`` shows in -X importtime; import_module does not
            __import__(f"{__package__}.{module}")
        t0 = time.perf_counter()
        report.update(handler(A, args))
        report["timing"] = {args.command: time.perf_counter() - t0}
    except (MatrixMarketError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ToolkitError as exc:
        error = {"kind": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, HypothesisError):
            error = {"kind": "hypothesis", "hypothesis": exc.hypothesis, "message": str(exc)}
        if isinstance(exc, DenominatorError):  # reports speak 1-based
            rows = _one_based(exc.rows)
            error.update(message=exc._describe(rows), rows=rows)
        report = {"command": args.command, "error": error}
    _emit(report, None if args.command == "generate" else args.output)  # --output is the matrix
    return 1 if "error" in report else 0


if __name__ == "__main__":
    sys.exit(main())
