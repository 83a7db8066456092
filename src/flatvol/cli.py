"""Command line interface.

Subcommands wrap the library operations; all output is deterministic
for a fixed configuration (stable term ordering, fixed JSON key order,
repr floats).  Exit codes: 0 success, 2 invalid input, 3 internal
assertion failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import traceback

from .exact import format_rational, parse_rational
from .graphs import WeightVector, enumerate_star_graphs
from .kernels import DEFAULT_CONVENTION, ConventionFlags, aab_table, det_factor_forms, q_factor
from .recursion import (
    evaluate,
    has_integer_entry,
    riemann_diagnostic,
    scan,
    volume_normalization,
)


def _comma_list(raw: str) -> tuple[str, ...]:
    toks = tuple(tok.strip() for tok in raw.split(",") if tok.strip())
    if not toks:
        raise argparse.ArgumentTypeError("expected a comma-separated list")
    return toks


def _comma_ints(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatvol",
        description="Exact flat-surface volume polynomials via the star-graph recursion.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(sp, formats, default_fmt):
        sp.add_argument("--format", dest="fmt", choices=formats, default=default_fmt)
        sp.add_argument("--out", default=None, help="write output to this path instead of stdout")

    def add_convention(sp):
        sp.add_argument("--s-exponent", dest="s_exponent", choices=("shifted", "printed"),
                        default=DEFAULT_CONVENTION.s_exponent)
        sp.add_argument("--term-sign", dest="term_sign", choices=("prefactor", "printed"),
                        default=DEFAULT_CONVENTION.term_sign)

    def add_point(sp, alpha_required=True):
        sp.add_argument("--g", type=int, required=True, help="genus")
        sp.add_argument("--alpha", type=_comma_list, required=alpha_required,
                        help="weights as p/q,p/q,...")
        sp.add_argument("--i0", type=int, default=1, help="distinguished marking (1-based)")

    for name, text in (
        ("eval", "evaluate v at one weight vector"),
        ("volhat", "evaluate the normalized volume at one weight vector"),
    ):
        sp = sub.add_parser(name, help=text)
        add_point(sp)
        add_convention(sp)
        add_common(sp, ("json", "text"), "json")

    sp = sub.add_parser("scan", help="sample v along a line in weight space")
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--steps", type=int, default=100)
    sp.add_argument("--base", type=_comma_list, default=None)
    sp.add_argument("--direction", type=_comma_list, default=None)
    sp.add_argument("--t-min", dest="t_min", default=None)
    sp.add_argument("--t-max", dest="t_max", default=None)
    sp.add_argument("--i0", type=int, default=1)
    add_convention(sp)
    add_common(sp, ("csv", "json"), "csv")

    sp = sub.add_parser("graphs", help="list the star graphs for (g, n)")
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--i0", type=int, default=1)
    sp.add_argument("--alpha", type=_comma_list, default=None,
                    help="optional weights, prints numeric twist levels")
    add_common(sp, ("text", "json"), "text")

    sp = sub.add_parser("aab", help="print the power-locus intersection table")
    sp.add_argument("--gmax", type=int, default=3)
    add_common(sp, ("text", "csv", "json"), "text")

    sp = sub.add_parser("q", help="print the trigonometric normalization factors")
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--alpha", type=_comma_list, required=True)
    add_common(sp, ("json", "text"), "json")

    sp = sub.add_parser("riemann", help="compare twist lattice sums to exact integrals")
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--alpha", type=_comma_list, required=True)
    sp.add_argument("--i0", type=int, default=1)
    sp.add_argument("--k", type=_comma_ints, default=(20, 40, 80),
                    help="lattice refinements, each k*alpha must be integral")
    add_common(sp, ("csv", "json"), "csv")

    sp = sub.add_parser("validate", help="run the convention matrix property suite")
    add_common(sp, ("text", "json"), "text")

    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_alpha(args: argparse.Namespace) -> WeightVector:
    entries = tuple(parse_rational(tok) for tok in args.alpha)
    n = getattr(args, "n", None)
    if n is not None and n != len(entries):
        raise ValueError(f"--n {n} does not match {len(entries)} alpha entries")
    return WeightVector(args.g, entries)


def _value_doc(fv, vh: float | None) -> dict:
    conv = fv.convention
    return {
        "g": fv.alpha.genus,
        "n": fv.alpha.n,
        "alpha": [format_rational(e) for e in fv.alpha.entries],
        "i0": fv.i0,
        "convention": {"s_exponent": conv.s_exponent, "term_sign": conv.term_sign},
        "v": format_rational(fv.value),
        "volhat": vh,
        "terms": [{"graph": label, "value": format_rational(val)} for label, val in fv.terms],
    }


def _render_value(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    lines = [
        f"g = {doc['g']}, n = {doc['n']}",
        "alpha = " + ", ".join(doc["alpha"]),
        f"i0 = {doc['i0']}",
        f"convention = {doc['convention']['s_exponent']}/{doc['convention']['term_sign']}",
        f"v = {doc['v']}",
        f"volhat = {doc['volhat']}",
        "terms:",
    ]
    for term in doc["terms"]:
        lines.append(f"  {term['value']} : {term['graph']}")
    return "\n".join(lines) + "\n"


def cmd_eval(args: argparse.Namespace) -> int:
    """eval and volhat; volhat refuses a wall point, where volhat is undefined."""
    alpha = _parse_alpha(args)
    eval_at_wall = args.subcommand == "eval" and has_integer_entry(alpha)
    norm = None if eval_at_wall else volume_normalization(alpha)
    fv = evaluate(alpha, i0=args.i0, convention=ConventionFlags(args.s_exponent, args.term_sign))
    vh = None if norm is None else norm * float(fv.value)
    _emit(_render_value(_value_doc(fv, vh), args.fmt), args.out)
    return 0


def _scan_rows(args: argparse.Namespace):
    t_min = parse_rational(args.t_min) if args.t_min is not None else None
    t_max = parse_rational(args.t_max) if args.t_max is not None else None
    base = tuple(parse_rational(tok) for tok in args.base) if args.base else None
    direction = tuple(parse_rational(tok) for tok in args.direction) if args.direction else None
    return scan(
        args.g,
        n=args.n,
        steps=args.steps,
        base=base,
        direction=direction,
        t_min=t_min,
        t_max=t_max,
        i0=args.i0,
        convention=ConventionFlags(args.s_exponent, args.term_sign),
    )


def cmd_scan(args: argparse.Namespace) -> int:
    rows = _scan_rows(args)
    if args.fmt == "json":
        doc = {
            "g": args.g,
            "n": args.n,
            "rows": [
                {
                    "t": format_rational(r.t),
                    "alpha": [format_rational(e) for e in r.alpha],
                    "v": format_rational(r.value) if r.value is not None else None,
                    "volhat": r.volhat,
                    "flag": r.flag,
                }
                for r in rows
            ],
        }
        _emit(json.dumps(doc, indent=2, allow_nan=False) + "\n", args.out)
        return 0
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "alpha", "v_num", "v_den", "volhat", "flag"])
    for r in rows:
        alpha_col = ";".join(format_rational(e) for e in r.alpha)
        v_num = str(r.value.numerator) if r.value is not None else ""
        v_den = str(r.value.denominator) if r.value is not None else ""
        vh = repr(r.volhat) if r.volhat is not None else ""
        writer.writerow([repr(float(r.t)), alpha_col, v_num, v_den, vh, r.flag])
    _emit(buf.getvalue(), args.out)
    return 0


def cmd_graphs(args: argparse.Namespace) -> int:
    markings = tuple(range(1, args.n + 1))
    weights = None
    if args.alpha is not None:
        weights = _parse_alpha(args).weight_map()
    graphs = enumerate_star_graphs(args.g, markings, args.i0)
    lines = [gph.encode(weights) for gph in graphs]
    if args.fmt == "json":
        _emit(json.dumps(lines, indent=2) + "\n", args.out)
    else:
        _emit("\n".join(lines) + ("\n" if lines else ""), args.out)
    return 0


def cmd_aab(args: argparse.Namespace) -> int:
    if args.gmax < 1:
        raise ValueError("--gmax must be >= 1")
    table = aab_table(args.gmax)
    if args.fmt == "json":
        doc = {"gmax": args.gmax, "a": [format_rational(table.a(g)) for g in range(1, args.gmax + 1)]}
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
        return 0
    if args.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["g", "num", "den"])
        for g in range(1, args.gmax + 1):
            val = table.a(g)
            writer.writerow([g, val.numerator, val.denominator])
        _emit(buf.getvalue(), args.out)
        return 0
    lines = [f"a_{g} = {format_rational(table.a(g))}" for g in range(1, args.gmax + 1)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_q(args: argparse.Namespace) -> int:
    alpha = _parse_alpha(args)
    # an integral leading entry is refused as a cotangent pole, any other as a wall point
    sym, closed = det_factor_forms(alpha.genus, alpha.entries)
    q = q_factor(alpha.genus, alpha.entries)
    doc = {
        "g": alpha.genus,
        "n": alpha.n,
        "alpha": [format_rational(e) for e in alpha.entries],
        "q": q,
        "det_sym": sym,
        "det_closed": closed,
    }
    if args.fmt == "json":
        _emit(json.dumps(doc, indent=2, allow_nan=False) + "\n", args.out)
    else:
        lines = [f"q = {q}", f"det_sym = {sym}", f"det_closed = {closed}"]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_riemann(args: argparse.Namespace) -> int:
    alpha = _parse_alpha(args)
    if not args.k:
        raise ValueError("need --k with at least one refinement")
    rows = riemann_diagnostic(alpha, args.k, i0=args.i0)
    if args.fmt == "json":
        doc = [
            {
                "graph": r.graph,
                "k": r.k,
                "lattice": format_rational(r.lattice),
                "exact": format_rational(r.exact),
                "rel_error": r.rel_error,
            }
            for r in rows
        ]
        _emit(json.dumps(doc, indent=2, allow_nan=False) + "\n", args.out)
        return 0
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["graph", "k", "lattice", "exact", "rel_error"])
    for r in rows:
        writer.writerow([r.graph, r.k, format_rational(r.lattice),
                         format_rational(r.exact), repr(r.rel_error)])
    _emit(buf.getvalue(), args.out)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from .validate import run_validation

    report = run_validation()
    if args.fmt == "json":
        _emit(json.dumps(report.to_dict(), indent=2) + "\n", args.out)
    else:
        _emit(report.render() + "\n", args.out)
    return 0 if report.ok else 3


_HANDLERS = {
    "eval": cmd_eval,
    "volhat": cmd_eval,
    "scan": cmd_scan,
    "graphs": cmd_graphs,
    "aab": cmd_aab,
    "q": cmd_q,
    "riemann": cmd_riemann,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.subcommand](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except OSError as exc:
        # bad --out path, permission, full disk: user environment, not a bug
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
