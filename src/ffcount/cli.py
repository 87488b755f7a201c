"""Command-line surface: every computation as a reproducible, exact,
CSV/JSON-emitting subcommand.

All numeric output is exact (integers, or rationals as "p/q" strings);
floats appear only in columns whose names say so.  Identical invocations
produce byte-identical output.  Refusals (budgets, coverage limits) exit
with status 2 and a reason on stderr; other errors exit 1.
"""

import argparse
import csv
import json
import os
import sys
from fractions import Fraction

from . import counting, forms, poly, quadratic, verify, zeta
from .errors import ConsistencyError, DescriptorError, RefusalError


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit(rows, headers, fmt, out=None):
    out = out or sys.stdout
    if fmt == "json":
        out.write(json.dumps([{h: _fmt(r.get(h, "")) for h in headers} for r in rows], indent=2))
        out.write("\n")
        return
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(headers)
    for r in rows:
        writer.writerow([_fmt(r.get(h, "")) for h in headers])


def _descriptor_from_args(args):
    if getattr(args, "descriptor", None):
        with open(args.descriptor, encoding="utf-8") as fh:
            return zeta.parse_descriptor(fh.read())
    if args.q is None:
        raise DescriptorError("--q is required unless --descriptor is given")
    L = tuple(int(x) for x in args.L.split(",")) if args.L else (1,)
    return zeta.CurveDescriptor(args.q, args.g, L)


def cmd_zeta(args):
    desc = _descriptor_from_args(args)
    printed = False
    if args.s is not None and args.euler_D is None:
        print(_fmt(zeta.zeta_value(desc, args.s)))
        printed = True
    if args.schanuel:
        if args.n is None:
            raise SystemExit("--schanuel needs --n")
        print(_fmt(zeta.schanuel_constant(desc, args.n)))
        printed = True
    if args.divisors is not None:
        a = zeta.divisor_counts(desc, args.divisors)
        emit([{"l": l, "a_l": v} for l, v in enumerate(a)], ["l", "a_l"], args.format)
        printed = True
    if args.moebius is not None:
        b = zeta.moebius_sums(desc, args.moebius)
        emit([{"l": l, "b_l": v} for l, v in enumerate(b)], ["l", "b_l"], args.format)
        printed = True
    if args.euler_D is not None:
        if args.s is None:
            raise SystemExit("--euler-D needs --s")
        rows = [{
            "q": desc.q,
            "s": args.s,
            "D": args.euler_D,
            "product": zeta.euler_product_truncation(desc.q, args.s, args.euler_D),
            "closed_form": zeta.zeta_value(zeta.CurveDescriptor.rational(desc.q), args.s),
            "tail_bound": zeta.euler_truncation_bound(desc.q, args.s, args.euler_D),
        }]
        emit(rows, ["q", "s", "D", "product", "closed_form", "tail_bound"], args.format)
        printed = True
    if args.hasse_weil:
        report = zeta.hasse_weil_check(desc)
        print("ok" if report["ok"] else "FAIL: " + "; ".join(report["failures"]))
        printed = True
        if not report["ok"]:
            return 1
    if not printed:
        raise SystemExit("nothing to compute: pass --s, --schanuel, --divisors, ...")
    return 0


COUNT_HEADERS = [
    "q", "n", "d", "m", "N_brute", "N_moebius", "match",
    "main_term", "err_unit_sum", "err_zeta_tail", "err_genus_window",
]


def cmd_count(args):
    rows = []
    m_hi = args.m_to if args.m_to is not None else args.m
    base = zeta.CurveDescriptor.rational(args.q)
    for m in range(args.m, m_hi + 1):
        row = {"q": args.q, "n": args.n, "d": 1, "m": m}
        if args.engine in ("brute", "both"):
            row["N_brute"] = counting.brute_count_rational(
                args.q, args.n, m, budget=args.budget, workers=args.workers
            )
        if args.engine in ("moebius", "both"):
            res = counting.moebius_point_count(base, args.n, m)
            row["N_moebius"] = res.N
            row["main_term"] = res.main_term
            row["err_unit_sum"] = res.err_unit_sum
            row["err_zeta_tail"] = res.err_zeta_tail
            row["err_genus_window"] = res.err_genus_window
        if args.engine == "both":
            row["match"] = row["N_brute"] == row["N_moebius"]
        rows.append(row)
    emit(rows, COUNT_HEADERS, args.format)
    if args.engine == "both" and not all(r["match"] for r in rows):
        return 1
    return 0


def cmd_countd(args):
    rows = []
    m_hi = args.m_to if args.m_to is not None else args.m
    for m in range(args.m, m_hi + 1):
        N = counting.count_fixed_degree_points(args.q, args.d, m, budget=args.budget)
        rows.append({"q": args.q, "n": 2, "d": args.d, "m": m, "N": N})
    emit(rows, ["q", "n", "d", "m", "N"], args.format)
    return 0


def cmd_assemble(args):
    result = counting.count_degree2_points_by_fields(args.q, args.n, args.m, budget=args.budget)
    if args.per_field:
        rows = [
            {
                "deg_D": fc.field.deg_D,
                "D": poly.format_poly(fc.field.D),
                "u": fc.field.u,
                "g": fc.field.genus,
                "J": fc.field.J,
                "N_line": fc.N_line,
                "rational_correction": fc.rational_correction,
                "contribution": fc.contribution,
            }
            for fc in result.per_field
        ]
        emit(rows, ["deg_D", "D", "u", "g", "J", "N_line", "rational_correction",
                    "contribution"], args.format)
        return 0
    ratio = float(result.N / result.main_term_partial) if result.main_term_partial else None
    rows = [{
        "q": result.q, "n": result.n, "d": 2, "m": result.m, "N": result.N,
        "fields_used": result.fields_used,
        "main_term_partial": result.main_term_partial,
        "N_over_main_float": ratio,
    }]
    emit(rows, ["q", "n", "d", "m", "N", "fields_used", "main_term_partial",
                "N_over_main_float"], args.format)
    return 0


def cmd_fields(args):
    fields = quadratic.enumerate_quadratic_fields(args.q, args.degD_max)
    rows = []
    for f in fields:
        rows.append({
            "q": f.q,
            "deg_D": f.deg_D,
            "D": poly.format_poly(f.D),
            "u": f.u,
            "g": f.genus,
            "L_coeffs": ";".join(str(c) for c in f.descriptor.L),
            "J": f.J,
            "point_counts": ";".join(str(c) for c in f.point_counts),
            "min_gen_height_bound": quadratic.min_generator_height_bound(f),
            "clifford_gap_2delta_minus_g": 2 * quadratic.min_generator_height_bound(f) - f.genus,
            "hasse_weil_ok": zeta.hasse_weil_check(f.descriptor)["ok"],
        })
    emit(rows, ["q", "deg_D", "D", "u", "g", "L_coeffs", "J", "point_counts",
                "min_gen_height_bound", "clifford_gap_2delta_minus_g", "hasse_weil_ok"],
         args.format)
    if args.write_descriptors:
        os.makedirs(args.write_descriptors, exist_ok=True)
        for f in fields:
            code = poly.to_code(f.q, f.D)
            path = os.path.join(args.write_descriptors, f"q{f.q}_D{code}_u{f.u}.desc")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"# field q={f.q} D={poly.format_poly(f.D)} u={f.u}\n")
                fh.write(zeta.serialize_descriptor(f.descriptor))
    return 0


def cmd_forms(args):
    rows = []
    m_hi = args.m_to if args.m_to is not None else args.m
    p = counting.GF(args.q).p
    for m in range(args.m, m_hi + 1):
        table_counts = {}
        d_prime = args.d
        while True:
            table_counts[d_prime] = counting.count_fixed_degree_points(
                args.q, d_prime, m, budget=args.budget
            )
            if d_prime % p:
                break
            d_prime //= p
        table = forms.FormTable(p, args.n, args.d, m, table_counts)
        row = {"q": args.q, "n": args.n, "d": args.d, "m": m, "p": p,
               "N_counts": ";".join(f"{k}:{v}" for k, v in sorted(table_counts.items())),
               "NF": "", "brute_NF": "", "match": "",
               "identity_ok": forms.form_count_identity_check(table)}
        try:
            row["NF"] = forms.form_count(table)
        except ConsistencyError as exc:
            row["NF"] = f"non-integral ({exc})"
        if args.brute:
            row["brute_NF"] = forms.brute_force_forms(args.q, args.n, args.d, m,
                                                      budget=args.budget)
            row["match"] = row["NF"] == row["brute_NF"]
        rows.append(row)
    emit(rows, ["q", "n", "d", "m", "p", "N_counts", "NF", "brute_NF", "match",
                "identity_ok"], args.format)
    return 0


def cmd_schanuel_sum(args):
    total, report = counting.schanuel_sum_quadratic(args.q, args.n, args.degD_max)
    rows = []
    for d in sorted(report["increments"]):
        rows.append({
            "deg_D": d,
            "increment": report["increments"][d],
            "increment_float": report["increment_floats"][d],
            "ratio_to_previous_float": report["ratio_to_previous_degree"].get(d, ""),
        })
    rows.append({"deg_D": "total", "increment": total, "increment_float": float(total),
                 "ratio_to_previous_float": ""})
    emit(rows, ["deg_D", "increment", "increment_float", "ratio_to_previous_float"],
         args.format)
    return 0


def cmd_verify(args):
    results = verify.run_suite(args.suite, deep=args.deep)
    failed = 0
    for name, ok, detail in results:
        status = "ok" if ok else "FAIL"
        if ok is None:
            status = "report"
        print(f"{status:6} {name}: {detail}")
        if ok is False:
            failed += 1
    print(f"-- {sum(1 for _, ok, _ in results if ok)} passed, {failed} failed, "
          f"{sum(1 for _, ok, _ in results if ok is None)} reports")
    return 1 if failed else 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="ffcount",
        description="Exact point counts, heights and zeta data over rational "
                    "function fields.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--budget", type=int, default=counting.DEFAULT_BUDGET,
                       help="candidate-tuple budget for exhaustive engines")

    p = sub.add_parser("zeta", help="zeta values, divisor sequences, Schanuel constants")
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--g", type=int, default=0)
    p.add_argument("--L", type=str, default=None, help="comma-separated L coefficients")
    p.add_argument("--descriptor", type=str, default=None, help="descriptor file path")
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--schanuel", action="store_true")
    p.add_argument("--divisors", type=int, default=None, metavar="L_MAX")
    p.add_argument("--moebius", type=int, default=None, metavar="L_MAX")
    p.add_argument("--euler-D", type=int, default=None)
    p.add_argument("--hasse-weil", action="store_true")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("count", help="projective line/space point counts over F_q(T)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--m-to", type=int, default=None)
    p.add_argument("--engine", choices=("brute", "moebius", "both"), default="both")
    p.add_argument("--workers", type=int, default=1)
    add_common(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("countd", help="degree-d point counts via minimal polynomials")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--m-to", type=int, default=None)
    add_common(p)
    p.set_defaults(func=cmd_countd)

    p = sub.add_parser("assemble", help="degree-2 counts assembled over quadratic fields")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--per-field", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_assemble)

    p = sub.add_parser("fields", help="enumerate quadratic extensions")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--degD-max", type=int, required=True)
    p.add_argument("--write-descriptors", type=str, default=None, metavar="DIR")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_fields)

    p = sub.add_parser("forms", help="decomposable-form counts and relations")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--m-to", type=int, default=None)
    p.add_argument("--brute", action="store_true", help="run the form oracle too")
    add_common(p)
    p.set_defaults(func=cmd_forms)

    p = sub.add_parser("schanuel-sum", help="partial sums of Schanuel constants over fields")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degD-max", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_schanuel_sum)

    p = sub.add_parser("verify", help="run the invariant battery")
    p.add_argument("--suite", default="all",
                   choices=("all",) + tuple(verify.SUITES))
    p.add_argument("--deep", action="store_true", help="include the slower checks")
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RefusalError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (DescriptorError, ConsistencyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
