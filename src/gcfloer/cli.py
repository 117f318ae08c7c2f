"""Command-line interface.

Subcommands: polytope, potential, critical, qh, match, floer, verify-all.
All numeric flags accept exact rationals as "p/q" strings; decimal-float
literals are converted to exact rationals with a warning on stderr
(`polytope --at` reads its components as floats, with no warning).
Output is JSON (default) or CSV and is byte-stable for fixed flags/seed;
the stdout of `critical`, its seed field aside, is the same for every
seed that finds every critical point.

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 numeric non-convergence.
"""

import argparse
import json
import math
import sys
from fractions import Fraction

from . import gc_core, laurent, novikov, numerics, potential, verify
from .flags import as_fraction
from .spaces import SPACES


def rational(text):
    """argparse type: "p/q" or decimal string -> Fraction."""
    s = text.strip()
    try:
        if "." in s or "e" in s.lower():
            value = as_fraction(float(s))
            print(
                f"warning: float literal {s!r} converted to exact rational {value}",
                file=sys.stderr,
            )
            return value
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _complex_pair(z):
    z = complex(z)
    return [z.real, z.imag]


def _frac_pair(f):
    return [f.numerator, f.denominator]


def _emit(doc, fmt="json", csv_rows=None, csv_header=None):
    if fmt == "csv" and csv_rows is not None:
        lines = [",".join(csv_header)]
        lines += [",".join(str(v) for v in row) for row in csv_rows]
        print("\n".join(lines))
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))


def _add_space_args(sub):
    sub.add_argument("space", choices=tuple(SPACES))
    sub.add_argument("--l1", type=rational, default=Fraction(1), help="full-flag lambda_1")
    sub.add_argument("--l2", type=rational, default=Fraction(1), help="full-flag lambda_2")
    sub.add_argument("--lam", type=rational, default=Fraction(1), help="Grassmannian lambda")


# ---------------------------------------------------------------------------
# subcommands


def cmd_polytope(args):
    space = SPACES[args.space]
    shape, profile = space.shape, space.profile(args)
    polytope = gc_core.build_polytope(shape, profile)
    point = fiber = diamonds = None
    if args.at is not None:
        values = [float(Fraction(v)) if "/" in v else float(v) for v in args.at.split(",")]
        point = gc_core.GCPoint(tuple(values), polytope.index)
        fiber = gc_core.classify_fiber(polytope, point, space.strata)
        diamonds = gc_core.detect_diamonds(shape, profile, point)
    doc = gc_core.polytope_to_json(polytope, point=point, fiber=fiber)
    doc["space"] = args.space
    doc["facet_count"] = sum(1 for iq in polytope.inequalities if iq.facet)
    if diamonds is not None:
        doc["diamonds"] = [list(d) for d in diamonds]
    rows = [
        (iq.label(), iq.facet) for iq in polytope.inequalities
    ]
    _emit(doc, args.format, rows, ("inequality", "facet"))
    return 0


def cmd_potential(args):
    space = SPACES[args.space]
    po = laurent.build_potential(space.shape, space.profile(args))
    doc = {
        "space": args.space,
        "variables": [list(p) for p in po.index],
        "terms": [
            {
                "coeff": _complex_pair(t.coeff),
                "t_exp": _frac_pair(t.t_exp),
                "y_exp": list(t.y_exp),
            }
            for t in po.terms
        ],
    }
    rows = [
        (f"{t.coeff.real:g}", f"{t.t_exp}", " ".join(str(e) for e in t.y_exp))
        for t in po.terms
    ]
    _emit(doc, args.format, rows, ("coeff", "t_exp", "y_exp"))
    return 0


def cmd_critical(args):
    space = SPACES[args.space]
    po = potential.build_potential(space.shape, space.profile(args))
    T0 = float(args.T0)
    cfg = potential.SolverConfig(T0=T0, starts=args.starts, seed=args.seed)
    points = potential.find_critical_points(po, cfg)
    doc = {
        "space": args.space,
        "lambda": {
            "l1": _frac_pair(args.l1),
            "l2": _frac_pair(args.l2),
            "lam": _frac_pair(args.lam),
        },
        "T0": T0,
        "seed": args.seed,
        "critical_points": [
            {
                "y": [{"re": z.real, "im": z.imag} for z in c.y],
                "residual": c.residual,
            }
            for c in points
        ],
        "critical_values": [
            {"re": v.real, "im": v.imag}
            for v in (potential.evaluate(po, c.numeric_at(T0), T0) for c in points)
        ],
        "hessian_dets": [c.hessian_det for c in points],
    }
    if args.verify_known:
        reports = []
        for cand in space.candidates(args):
            rep = potential.verify_candidate(po, cand)
            reports.append(
                {
                    "valuations": [_frac_pair(e) for e in rep["valuations"]],
                    "max_residual": rep["max_residual"],
                    "value_exponent": rep.get("value_exponent"),
                }
            )
        doc["closed_form"] = reports
    rows = [
        tuple(f"{z.real:.12g}{z.imag:+.12g}j" for z in c.y) + (f"{c.residual:.3g}",)
        for c in points
    ]
    header = tuple(f"y{i+1}" for i in range(po.nvars)) + ("residual",)
    _emit(doc, args.format, rows, header)
    return 0


def cmd_qh(args):
    space = SPACES[args.space]
    own = ", ".join(f"--{f}" for f in space.q_flags)
    for flag in ("q", "q1", "q2"):
        if flag not in space.q_flags and getattr(args, flag) is not None:
            raise ValueError(f"{args.space} takes {own}, not --{flag}")
    q = tuple(Fraction(1) if v is None else v for v in (getattr(args, f) for f in space.q_flags))
    space.check_c1_finite(q)
    eigs = space.c1_eigenvalues(tuple(float(v) for v in q))
    doc = {
        "space": args.space,
        "eigenvalues": [_complex_pair(v) for v in eigs],
    }
    rows = [(f"{v.real:.15g}", f"{v.imag:.15g}") for v in eigs]
    _emit(doc, args.format, rows, ("re", "im"))
    return 0


def cmd_match(args):
    if not 0 < args.T0 < 1:
        raise ValueError("T0 must lie in (0, 1)")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError("tol must be a positive finite number")
    T0 = float(args.T0)
    values, eigs, matched, pairing = SPACES[args.space].match_c1(args, T0, args.tol)
    doc = {
        "space": args.space,
        "T0": T0,
        "tol": args.tol,
        "matched": matched,
        "critical_values": [_complex_pair(v) for v in values],
        "eigenvalues": [_complex_pair(v) for v in eigs],
        "pairing": [list(p) for p in pairing],
    }
    _emit(doc)
    return 0


def cmd_floer(args):
    space = SPACES[args.space]
    if space.floer is None:
        raise ValueError(
            f"{args.space} Floer differentials are out of scope ({space.out_of_scope})"
        )
    label, d = space.floer(args)
    dec = novikov.module_presentation(d, ring=args.ring)
    doc = {
        "space": args.space,
        "differential": label,
        "entries": d.to_lists(),
        "ring": args.ring,
        "decomposition": dec.to_dict(),
        "lambda_rank": dec.lambda_rank(),
        "warnings": list(dec.warnings),
    }
    _emit(doc)
    return 0


def cmd_verify_all(args):
    results = verify.run_all(fast=args.fast)
    width = max(len(r.check_id) for r in results)
    failed = False
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.check_id:<{width}}  {status}  {r.detail}")
        failed = failed or not r.passed
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gcfloer",
        description="Gelfand-Cetlin polytopes, potential functions, and "
        "Floer cohomology of flag-manifold fibers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("polytope", help="inequalities, facets, fiber type at a point")
    _add_space_args(p)
    p.add_argument("--at", help="comma-separated point u for a diamond/fiber report")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser(
        "potential",
        help="potential terms; CSV columns: coeff, t_exp, y_exp (space-separated)",
    )
    _add_space_args(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_potential)

    p = sub.add_parser(
        "critical",
        help="critical points; CSV columns: y1..yN (complex), residual",
    )
    _add_space_args(p)
    p.add_argument("--T0", type=rational, default=Fraction(1, 2))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--starts", type=int, default=400)
    p.add_argument(
        "--verify-known",
        "--verify-paper",
        dest="verify_known",
        action="store_true",
        help="plug in the known closed-form critical points and report residuals",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("qh", help="c1 eigenvalues; CSV columns: re, im")
    p.add_argument("space", choices=tuple(SPACES))
    p.add_argument("--q", type=rational, help="Grassmannian q (default 1)")
    p.add_argument("--q1", type=rational, help="full-flag q1 (default 1)")
    p.add_argument("--q2", type=rational, help="full-flag q2 (default 1)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_qh)

    p = sub.add_parser("match", help="critical values vs c1 eigenvalues")
    _add_space_args(p)
    p.add_argument("--T0", type=rational, default=Fraction(1, 2))
    p.add_argument("--tol", type=float, default=1e-7,
                   help="pair distance bound, times min(1, M) for M the largest "
                        "modulus of a critical value or eigenvalue (default 1e-7)")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("floer", help="Floer differential and HF decomposition")
    _add_space_args(p)
    p.add_argument("--t", type=rational, default=Fraction(0), help="U(2) fiber level t")
    p.add_argument("--x-re", type=rational, default=Fraction(0))
    p.add_argument("--x-im", type=rational, default=Fraction(0))
    p.add_argument("--ring", choices=("Lambda0", "Lambda"), default="Lambda0")
    p.add_argument("--pair", action="store_true", help="(L0, b), (L0, -b) pair")
    p.set_defaults(func=cmd_floer)

    p = sub.add_parser("verify-all", help="run the verification suite")
    p.add_argument("--fast", action="store_true", help="reduced sampling density")
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # NonConvergenceError is a RuntimeError.  Classifying one is the only
        # use the CLI itself makes of numerics, which loads numpy
        if not isinstance(exc, numerics.NonConvergenceError):
            raise
        print(f"error: numeric non-convergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
