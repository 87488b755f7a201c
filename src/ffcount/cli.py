"""Command-line surface: every computation as a reproducible, exact,
CSV/JSON-emitting subcommand.

All numeric output is exact (integers, or rationals as "p/q" strings);
floats appear only in columns whose names say so.  Identical invocations
produce byte-identical output.  Refusals (budgets, coverage limits, lack
of memory) exit with status 2 and a reason on stderr; other errors exit 1.
"""

import argparse
import io
import operator
import os
import sys
from itertools import chain, islice

# every computing module, and json, is imported by the commands that use
# it, so that `import ffcount.cli` compiles the parser alone and each
# command loads only the modules it runs
from .errors import DEFAULT_BUDGET, ConsistencyError, DescriptorError, RefusalError


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    # a Fraction exists only once fractions is loaded, and _fmt does not load it
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(value, fractions.Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


# rows per out.write: enough to cut the calls of a large output to a few,
# few enough that a streamed output stays small in memory
BLOCK_ROWS = 1024


def _blocks(rows, headers):
    """The rows as lists of formatted cells, in lists of BLOCK_ROWS rows,
    the last one shorter."""
    rows = iter(rows)
    while block := list(islice(rows, BLOCK_ROWS)):
        yield [r if type(r) is list else [_fmt(r.get(h, "")) for h in headers] for r in block]


def emit(rows, headers, fmt, out=None):
    """Write rows, any iterable, as CSV or JSON, one block of BLOCK_ROWS
    rows per out.write.  A row is a dict keyed by header, whose values
    _fmt formats, or a list of the formatted cells in header order."""
    out = out or sys.stdout
    if fmt == "json":
        _write_json(_blocks(rows, headers), headers, out)
        return
    import csv

    for block in _blocks(chain([list(headers)], rows), headers):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(block)
        out.write(buf.getvalue())


def _write_json(blocks, headers, out):
    """Write the bytes of json.dumps([dict(zip(headers, cells)) for cells
    in the blocks], indent=2) and a newline, one block per out.write.
    Every cell is a string, quoted by json's C string encoder; json.dumps
    with an indent runs its pure-Python encoder and builds the whole text
    first."""
    from json.encoder import encode_basestring_ascii

    keys = [f"    {encode_basestring_ascii(h)}: " for h in headers]
    first = opening = "[\n  {\n"
    for block in blocks:
        objects = (",\n".join(map(operator.add, keys, map(encode_basestring_ascii, cells)))
                   for cells in block)
        out.write(opening + "\n  },\n  {\n".join(objects))
        opening = "\n  },\n  {\n"
    out.write("[]\n" if opening is first else "\n  }\n]\n")


def _descriptor_from_args(args):
    from . import zeta

    if getattr(args, "descriptor", None):
        with open(args.descriptor, encoding="utf-8") as fh:
            return zeta.parse_descriptor(fh.read())
    if args.q is None:
        raise DescriptorError("--q is required unless --descriptor is given")
    L = tuple(int(x) for x in args.L.split(",")) if args.L else (1,)
    return zeta.CurveDescriptor(args.q, args.g, L)


def cmd_zeta(args):
    # every flag is checked before anything is printed
    if args.schanuel and args.n is None:
        raise ValueError("--schanuel needs --n")
    if args.euler_D is not None and args.s is None:
        raise ValueError("--euler-D needs --s")
    if (args.s is None and not args.schanuel and args.divisors is None
            and args.moebius is None and not args.hasse_weil):
        raise ValueError("nothing to compute: pass --s, --schanuel, --divisors, ...")
    from . import zeta

    desc = _descriptor_from_args(args)
    out = io.StringIO()  # copied to stdout once every value is computed
    if args.s is not None and args.euler_D is None:
        print(_fmt(zeta.zeta_value(desc, args.s)), file=out)
    if args.schanuel:
        print(_fmt(zeta.schanuel_constant(desc, args.n)), file=out)
    if args.divisors is not None:
        a = zeta.divisor_counts(desc, args.divisors)
        emit([{"l": l, "a_l": v} for l, v in enumerate(a)], ["l", "a_l"], args.format, out)
    if args.moebius is not None:
        b = zeta.moebius_sums(desc, args.moebius)
        emit([{"l": l, "b_l": v} for l, v in enumerate(b)], ["l", "b_l"], args.format, out)
    if args.euler_D is not None:
        rows = [{
            "q": desc.q,
            "s": args.s,
            "D": args.euler_D,
            "product": zeta.euler_product_truncation(desc.q, args.s, args.euler_D),
            "closed_form": zeta.zeta_value(zeta.CurveDescriptor.rational(desc.q), args.s),
            "tail_bound": zeta.euler_truncation_bound(desc.q, args.s, args.euler_D),
        }]
        emit(rows, ["q", "s", "D", "product", "closed_form", "tail_bound"], args.format, out)
    status = 0
    if args.hasse_weil:
        report = zeta.hasse_weil_check(desc)
        print("ok" if report["ok"] else "FAIL: " + "; ".join(report["failures"]), file=out)
        status = 0 if report["ok"] else 1
    sys.stdout.write(out.getvalue())
    return status


COUNT_HEADERS = [
    "q", "n", "d", "m", "N_brute", "N_moebius", "match",
    "main_term", "err_unit_sum", "err_zeta_tail", "err_genus_window",
]


def _height(m):
    """--m, which may not be negative."""
    if m < 0:
        raise ValueError(f"--m must be >= 0, not {m}")
    return m


def _heights(args):
    """--m-to down to --m, the largest price first; --m-to defaults to --m, not below it."""
    m = _height(args.m)
    m_to = m if args.m_to is None else args.m_to
    if m_to < m:
        raise ValueError(f"--m-to {m_to} is below --m {m}")
    return range(m_to, m - 1, -1)


def cmd_count(args):
    # --workers is still accepted, but the count runs in one process
    if args.workers < 1:
        raise ValueError(f"workers must be >= 1, not {args.workers}")
    from . import counting

    rows = []
    if args.engine != "brute":
        from .zeta import CurveDescriptor

        base = CurveDescriptor.rational(args.q)
    for m in _heights(args):
        row = {"q": args.q, "n": args.n, "d": 1, "m": m}
        if args.engine in ("brute", "both"):
            row["N_brute"] = counting.brute_count_rational(args.q, args.n, m, budget=args.budget)
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
    emit(rows[::-1], COUNT_HEADERS, args.format)
    if args.engine == "both" and not all(r["match"] for r in rows):
        return 1
    return 0


def cmd_countd(args):
    from . import counting

    rows = []
    for m in _heights(args):
        N = counting.count_fixed_degree_points(args.q, args.d, m, budget=args.budget)
        rows.append({"q": args.q, "n": 2, "d": args.d, "m": m, "N": N})
    emit(rows[::-1], ["q", "n", "d", "m", "N"], args.format)
    return 0


def cmd_assemble(args):
    from . import counting, poly

    result = counting.count_degree2_points_by_fields(args.q, args.n, _height(args.m),
                                                     budget=args.budget)
    if args.per_field:
        from .quadratic import enumerate_quadratic_fields

        # the assembly sums over count classes; each field's row reads the
        # line count of its descriptor from the cache of moebius_point_count
        corr = result.rational_correction
        fields = enumerate_quadratic_fields(result.q, 2 * result.m) if result.fields_used else ()
        rows = []
        for f in fields:
            n_line = counting.moebius_point_count(f.descriptor, result.n, result.m).N
            rows.append({"deg_D": f.deg_D, "D": poly.format_poly(f.D), "u": f.u, "g": f.genus,
                         "J": f.J, "N_line": n_line, "rational_correction": corr,
                         "contribution": n_line - corr})
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
    from . import poly, quadratic, zeta

    # q and the budget are checked before any directory is made; the class
    # view raises ConsistencyError on a descriptor outside the Hasse-Weil
    # window, so every field passes
    quadratic.check_enumeration_budget(args.q, args.degD_max, args.budget)
    classes = quadratic.field_classes(args.q, args.degD_max)
    if args.write_descriptors:  # a path that cannot be made fails before any output
        os.makedirs(args.write_descriptors, exist_ok=True)
    q, (one, eps) = str(args.q), map(str, classes.twists)

    def rows():
        for dc in classes.degrees:
            # the columns from g on depend only on deg D and the point
            # counts, which determine the descriptor; they are formatted
            # once per pair
            bound = quadratic.min_generator_height_bound(dc)
            tail = [_fmt(bound), _fmt(2 * bound - dc.genus), "true"]
            shared = {}
            for c in dc.sizes:
                desc = classes.descriptors[c]
                shared[c] = [str(dc.genus), ";".join(map(str, desc.L)), str(desc.J),
                             ";".join(map(str, c)), *tail]
            twisted = {c: shared[quadratic.twist_counts(args.q, c)] for c in dc.sizes}
            head = [q, str(dc.deg_D)]
            format_D = quadratic.monic_formatter(args.q, dc.deg_D)
            for code, plain in zip(dc.codes, dc.counts):
                D = format_D(code)
                yield [*head, D, one, *shared[plain]]
                yield [*head, D, eps, *twisted[plain]]

    emit(rows(), ["q", "deg_D", "D", "u", "g", "L_coeffs", "J", "point_counts",
                  "min_gen_height_bound", "clifford_gap_2delta_minus_g", "hasse_weil_ok"],
         args.format)
    if args.write_descriptors:
        for f in quadratic.enumerate_quadratic_fields(args.q, args.degD_max):
            code = poly.to_code(f.q, f.D)
            path = os.path.join(args.write_descriptors, f"q{f.q}_D{code}_u{f.u}.desc")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"# field q={f.q} D={poly.format_poly(f.D)} u={f.u}\n")
                fh.write(zeta.serialize_descriptor(f.descriptor))
    return 0


def cmd_forms(args):
    from . import forms

    rows = []
    for m in _heights(args):
        # the oracle first: it costs more than the table's routes
        brute = forms.brute_force_forms(args.q, 2, args.d, m, args.budget) if args.brute else ""
        table = forms.form_table(args.q, args.d, m, args.budget)
        row = {"q": args.q, "n": 2, "d": args.d, "m": m, "p": table.p,
               "N_counts": ";".join(f"{k}:{v}" for k, v in sorted(table.counts.items())),
               "NF": "", "brute_NF": brute, "match": "",
               "identity_ok": forms.form_count_identity_check(table)}
        try:
            row["NF"] = forms.form_count(table)
        except ConsistencyError as exc:
            row["NF"] = f"non-integral ({exc})"
        if args.brute:
            row["match"] = row["NF"] == brute
        rows.append(row)
    emit(rows[::-1], ["q", "n", "d", "m", "p", "N_counts", "NF", "brute_NF", "match",
                      "identity_ok"], args.format)
    return 1 if any(r["match"] is False or isinstance(r["NF"], str) for r in rows) else 0


def cmd_schanuel_sum(args):
    from . import counting

    total, report = counting.schanuel_sum_quadratic(args.q, args.n, args.degD_max,
                                                    budget=args.budget)
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


# The keys of verify.SUITES, named here so that only `ffcount verify`
# imports the invariant battery.
VERIFY_SUITES = ("algebra", "places", "zeta", "riemann_roch", "counting", "quadratic", "forms")


def cmd_verify(args):
    from . import verify

    results = verify.run_suite(args.suite, deep=args.deep)
    for name, ok, detail in results:
        print(f"{'ok' if ok else 'FAIL':6} {name}: {detail}")
    failed = sum(1 for _, ok, _ in results if not ok)
    print(f"-- {len(results) - failed} passed, {failed} failed")
    return 1 if failed else 0


# the arguments that several commands share, each declared once
SHARED = {
    "--q": dict(type=int, required=True),
    "--n": dict(type=int, required=True),
    "--m": dict(type=int, required=True),
    "--m-to": dict(type=int, default=None),
    "--degD-max": dict(type=int, required=True),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--budget": dict(type=int, default=DEFAULT_BUDGET,
                     help="work budget of the exhaustive engines, in the unit "
                          "each refusal names"),
}
# zeta's --q and --n, which a descriptor file or a flag may make needless
OPTIONAL = dict(required=False)

# name -> (help, handler, arguments in --help order); an argument is a
# flag of SHARED, or (flag, keywords), the keywords updating SHARED[flag]
# where the flag is shared
COMMANDS = {
    "zeta": ("zeta values, divisor sequences, Schanuel constants", cmd_zeta, [
        ("--q", OPTIONAL), ("--g", dict(type=int, default=0)),
        ("--L", dict(help="comma-separated L coefficients")),
        ("--descriptor", dict(help="descriptor file path")),
        ("--s", dict(type=int)), ("--n", OPTIONAL), ("--schanuel", dict(action="store_true")),
        ("--divisors", dict(type=int, metavar="L_MAX")),
        ("--moebius", dict(type=int, metavar="L_MAX")),
        ("--euler-D", dict(type=int)), ("--hasse-weil", dict(action="store_true")), "--format",
    ]),
    "count": ("projective line/space point counts over F_q(T)", cmd_count, [
        "--q", "--n", "--m", "--m-to",
        ("--engine", dict(choices=("brute", "moebius", "both"), default="both")),
        ("--workers", dict(type=int, default=1, help="accepted for old command lines "
                                                     "(>= 1); the count runs in one process")),
        "--format", "--budget",
    ]),
    "countd": ("degree-d point counts via minimal polynomials", cmd_countd, [
        "--q", ("--d", dict(type=int, required=True)), "--m", "--m-to", "--format", "--budget",
    ]),
    "assemble": ("degree-2 counts assembled over quadratic fields", cmd_assemble, [
        "--q", "--n", "--m", ("--per-field", dict(action="store_true")), "--format", "--budget",
    ]),
    "fields": ("enumerate quadratic extensions", cmd_fields, [
        "--q", "--degD-max", ("--write-descriptors", dict(metavar="DIR")), "--format", "--budget",
    ]),
    "forms": ("decomposable-form counts and relations (n = 2)", cmd_forms, [
        "--q", ("--d", dict(type=int, default=2)), "--m", "--m-to",
        ("--brute", dict(action="store_true", help="run the form oracle too")),
        "--format", "--budget",
    ]),
    "schanuel-sum": ("partial sums of Schanuel constants over fields", cmd_schanuel_sum, [
        "--q", "--n", "--degD-max", "--format", "--budget",
    ]),
    "verify": ("run the invariant battery", cmd_verify, [
        ("--suite", dict(default="all", choices=("all",) + VERIFY_SUITES)),
        ("--deep", dict(action="store_true", help="include the slower checks")),
    ]),
}


def build_parser(command=None):
    """The parser of every subcommand, with the arguments of command only,
    or of every command when command is None."""
    ap = argparse.ArgumentParser(
        prog="ffcount",
        description="Exact point counts, heights and zeta data over rational "
                    "function fields.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (summary, _, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        if command in (None, name):
            for argument in arguments:
                flag, keywords = (argument, {}) if isinstance(argument, str) else argument
                p.add_argument(flag, **{**SHARED.get(flag, {}), **keywords})
    return ap


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # exact values may pass 4300 digits
        sys.set_int_max_str_digits(0)
    argv = sys.argv[1:] if argv is None else argv
    # only the running command's arguments are built
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        # bad input, not a refusal: checked before any subcommand runs
        if getattr(args, "budget", 0) < 0:
            raise ValueError(f"--budget must be >= 0, not {args.budget}")
        return COMMANDS[args.command][1](args)
    except (RefusalError, MemoryError) as exc:  # MemoryError carries no message
        print(f"refused: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except (DescriptorError, ConsistencyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
