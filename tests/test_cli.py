import csv
import hashlib
import io
import json
import pathlib
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ffcount import cli, forms, kernels, verify
from ffcount.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_zeta_values(capsys):
    code, out, _ = run(capsys, "zeta", "--q", "2", "--g", "0", "--s", "2")
    assert code == 0 and out.strip() == "8/3"
    code, out, _ = run(capsys, "zeta", "--q", "2", "--g", "0", "--schanuel", "--n", "2")
    assert code == 0 and out.strip() == "3/2"
    code, out, _ = run(capsys, "zeta", "--q", "3", "--g", "1", "--L", "1,0,3",
                       "--schanuel", "--n", "2")
    assert code == 0 and out.strip() == "8/7"


def test_zeta_sequences(capsys):
    code, out, _ = run(capsys, "zeta", "--q", "2", "--g", "0", "--divisors", "3")
    assert code == 0
    assert out.splitlines() == ["l,a_l", "0,1", "1,3", "2,7", "3,15"]


def test_zeta_descriptor_file(tmp_path, capsys):
    path = tmp_path / "curve.desc"
    path.write_text("q = 3\ng = 1\nL_coeffs = 1, 0, 3\n")
    code, out, _ = run(capsys, "zeta", "--descriptor", str(path), "--s", "2")
    assert code == 0 and out.strip() == "7/4"


def test_count_both_engines(capsys):
    code, out, _ = run(capsys, "count", "--q", "2", "--n", "2", "--m", "1", "--engine", "both")
    assert code == 0
    lines = out.splitlines()
    assert lines[1].startswith("2,2,1,1,6,6,true")


def test_count_matches_over_range(capsys):
    code, out, _ = run(capsys, "count", "--q", "2", "--n", "3", "--m", "0",
                       "--m-to", "2", "--engine", "both")
    assert code == 0
    for line in out.splitlines()[1:]:
        assert ",true," in line


def test_count_at_the_gcd_table_cap(capsys):
    # q=5, m=4 (3125 codes): both engines, with --workers 2 accepted
    code, out, _ = run(capsys, "count", "--q", "5", "--n", "2", "--m", "4",
                       "--engine", "both", "--workers", "2")
    assert code == 0
    rows = out.splitlines()
    match = rows[0].split(",").index("match")
    assert [row.split(",")[match] for row in rows[1:]] == ["true"]


def test_count_beyond_the_old_gcd_table_cap(capsys):
    # q=3, m=7 (6561 codes): the brute route counts the leads over the
    # factor-degree sieve, and must equal the Moebius route
    code, out, _ = run(capsys, "count", "--q", "3", "--n", "2", "--m", "7", "--engine", "both")
    assert code == 0
    header, row = out.splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert (fields["N_brute"], fields["N_moebius"], fields["match"]) == (
        "12754584", "12754584", "true")


def test_count_frontier_q2_m12(capsys):
    # 8192 codes, inside the default budget: the brute route counts the
    # leads over the factor-degree sieve and must equal the Moebius route
    code, out, _ = run(capsys, "count", "--q", "2", "--n", "2", "--m", "12")
    assert code == 0
    header, row = out.splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert (fields["N_brute"], fields["N_moebius"], fields["match"]) == (
        "25165824", "25165824", "true")


def test_count_budget_refusal(capsys):
    code, _, err = run(capsys, "count", "--q", "3", "--n", "4", "--m", "4",
                       "--engine", "brute")
    assert code == 2
    assert "refused" in err


def test_countd_and_assemble_agree(capsys):
    code, out, _ = run(capsys, "countd", "--q", "3", "--d", "2", "--m", "1")
    assert code == 0
    countd_value = int(out.splitlines()[1].split(",")[-1])
    code, out, _ = run(capsys, "assemble", "--q", "3", "--n", "2", "--m", "1")
    assert code == 0
    fields = out.splitlines()[1].split(",")
    assert int(fields[4]) == countd_value == 432


def test_assemble_per_field(capsys):
    code, out, _ = run(capsys, "assemble", "--q", "3", "--n", "2", "--m", "1",
                       "--per-field")
    assert code == 0
    assert len(out.splitlines()) == 1 + 18


def test_assemble_per_field_contributions_sum_to_N(capsys):
    code, out, _ = run(capsys, "assemble", "--q", "3", "--n", "2", "--m", "2")
    assert code == 0
    N = int(out.splitlines()[1].split(",")[4])
    code, out, _ = run(capsys, "assemble", "--q", "3", "--n", "2", "--m", "2", "--per-field")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 162 and {r["rational_correction"] for r in rows} == {"24"}
    assert sum(int(r["contribution"]) for r in rows) == N
    # no field has deg D <= 0: no rows at m = 0
    code, out, _ = run(capsys, "assemble", "--q", "3", "--n", "2", "--m", "0", "--per-field")
    assert (code, out) == (0, "deg_D,D,u,g,J,N_line,rational_correction,contribution\n")


@pytest.mark.parametrize("argv, needs", [
    # coprime vectors: each candidate is a tuple of n codes
    ("count --q 3 --n 4 --m 4 --engine brute", "needs 3486784401 candidate tuples"),
    # even q tests every coefficient triple, 100 per triple as the oracle
    ("countd --q 2 --d 2 --m 8",
     "at cost 100 per triple needs 13421772800 weighted oracle triples"),
    # odd q walks the reduced triples, 10 per step
    ("countd --q 3 --d 2 --m 5",
     "at cost 10 per walk step needs 323280720 weighted walk steps"),
    ("forms --q 3 --m 4 --brute", "at cost 100 per triple needs 1434890700 weighted oracle triples"),
    ("assemble --q 3 --n 2 --m 2 --budget 10", "needs 6480 weighted Horner row entries"),
])
def test_budget_refusals_name_their_unit(capsys, argv, needs):
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "") and err.startswith("refused: ")
    assert f"{needs} > budget" in err


def test_assemble_refusal(capsys):
    code, _, err = run(capsys, "assemble", "--q", "3", "--n", "2", "--m", "3")
    assert code == 2 and "genus" in err


def test_assemble_budget_refusal(capsys):
    # the enumeration up to deg D <= 4 builds 324 Horner entries, 6480 weighted
    code, out, err = run(capsys, "assemble", "--q", "3", "--n", "2", "--m", "2",
                         "--budget", "10")
    assert (code, out) == (2, "") and err.startswith("refused: ") and "6480" in err
    code, out, _ = run(capsys, "assemble", "--q", "3", "--n", "2", "--m", "2",
                       "--budget", "6480")
    assert code == 0 and out


def test_fields_csv(capsys):
    code, out, _ = run(capsys, "fields", "--q", "3", "--degD-max", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7
    assert all(line.endswith("true") for line in lines[1:])


def test_fields_write_descriptors(tmp_path, capsys):
    outdir = tmp_path / "descs"
    code, _, _ = run(capsys, "fields", "--q", "3", "--degD-max", "1",
                     "--write-descriptors", str(outdir))
    assert code == 0
    files = sorted(p.name for p in outdir.iterdir())
    assert len(files) == 6
    from ffcount.zeta import parse_descriptor

    text = (outdir / files[0]).read_text()
    assert parse_descriptor(text).q == 3


def test_fields_descriptor_files_match_their_recorded_hash(tmp_path, capsys):
    # the 54 files at q=3, deg D <= 3, twisted descriptors included: the
    # sha256 of each name, a newline and the file's bytes, in name order,
    # recorded when both twists were tabled by their own character sums
    outdir = tmp_path / "descs"
    code, _, _ = run(capsys, "fields", "--q", "3", "--degD-max", "3",
                     "--write-descriptors", str(outdir))
    assert code == 0
    digest = hashlib.sha256()
    paths = sorted(outdir.iterdir())
    for path in paths:
        digest.update(path.name.encode() + b"\n" + path.read_bytes())
    assert len(paths) == 54
    assert digest.hexdigest() == "0caea50f7a46a3c61a67bf4b56447f66f782ac3209f0ba38011f2cbd3bb5efc9"


def test_unwritable_descriptor_dir_exits_1(tmp_path, capsys):
    # no directory can be made under a regular file: exit 1 before any output
    (tmp_path / "file").write_text("")
    code, out, err = run(capsys, "fields", "--q", "3", "--degD-max", "1",
                         "--write-descriptors", str(tmp_path / "file" / "descs"))
    assert code == 1 and out == "" and err.startswith("error: ")


def test_bad_q_makes_no_descriptor_dir(tmp_path, capsys):
    # q is checked before the directory is made
    outdir = tmp_path / "descs"
    code, out, err = run(capsys, "fields", "--q", "6", "--degD-max", "1",
                         "--write-descriptors", str(outdir))
    assert code == 1 and out == "" and "6 is not a prime power" in err
    assert not outdir.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_fields_output_equals_one_dict_per_field(capsys, fmt):
    # the rows formatted once per descriptor are the bytes of one dict per
    # field through emit and _fmt
    from ffcount import cli, poly, quadratic

    headers = ["q", "deg_D", "D", "u", "g", "L_coeffs", "J", "point_counts",
               "min_gen_height_bound", "clifford_gap_2delta_minus_g", "hasse_weil_ok"]
    rows = []
    for f in quadratic.enumerate_quadratic_fields(3, 4):
        bound = quadratic.min_generator_height_bound(f)
        rows.append({
            "q": f.q, "deg_D": f.deg_D, "D": poly.format_poly(f.D), "u": f.u, "g": f.genus,
            "L_coeffs": ";".join(str(c) for c in f.descriptor.L), "J": f.J,
            "point_counts": ";".join(str(c) for c in f.point_counts),
            "min_gen_height_bound": bound, "clifford_gap_2delta_minus_g": 2 * bound - f.genus,
            "hasse_weil_ok": True,
        })
    expected = io.StringIO()
    cli.emit(rows, headers, fmt, expected)
    code, out, _ = run(capsys, "fields", "--q", "3", "--degD-max", "4", "--format", fmt)
    assert code == 0 and out == expected.getvalue()
    # an integral Fraction is written n/1
    if fmt == "csv":
        first = out.splitlines()[1].split(",")
        assert first[1] == "1" and first[8:10] == ["1/2", "1/1"]
    else:
        assert json.loads(out)[0]["clifford_gap_2delta_minus_g"] == "1/1"


def test_forms_cli(capsys):
    code, out, _ = run(capsys, "forms", "--q", "3", "--m", "1", "--brute")
    assert code == 0
    row = out.splitlines()[1]
    assert ",216,216,true,true" in row


def test_forms_cli_char2_even_heights(capsys):
    # heights divisible by p need the Frobenius-image subtraction; the
    # oracle gives 0, 24, 216
    code, out, _ = run(capsys, "forms", "--q", "2", "--m", "0", "--m-to", "2", "--brute")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()]
    header, rows = rows[0], rows[1:]
    nf, brute, match = (header.index(k) for k in ("NF", "brute_NF", "match"))
    assert [r[nf] for r in rows] == ["0", "24", "216"]
    assert [r[brute] for r in rows] == ["0", "24", "216"]
    assert all(r[match] == "true" for r in rows)


def test_forms_cli_disagreement_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(forms, "brute_force_forms", lambda q, n, d, m, budget: 215)
    code, out, _ = run(capsys, "forms", "--q", "3", "--m", "1", "--brute")
    assert code == 1
    assert ",216,215,false," in out.splitlines()[1]


def test_forms_oracle_catches_wrong_discriminant_classes(monkeypatch, capsys):
    # at odd q the oracle classifies the triples by polynomial arithmetic,
    # so one wrong class count on the table side is a disagreement
    real = kernels.discriminant_classes

    def perturbed(q, m):
        classes = real(q, m).copy()
        classes[(0, 1), True] += 1  # one more triple with discriminant class T
        return classes

    monkeypatch.setattr(kernels, "discriminant_classes", perturbed)
    code, out, _ = run(capsys, "forms", "--q", "3", "--m", "1", "--brute")
    assert code == 1
    assert ",false," in out.splitlines()[1]


def test_forms_oracle_budget_refuses_before_enumerating(monkeypatch, capsys):
    # 7^9 triples at 70-100 us each would run about an hour; the weighted
    # budget refuses before either route starts
    def enumerate_nothing(*args):
        raise AssertionError("enumerated before the refusal")

    monkeypatch.setattr(kernels, "discriminant_classes", enumerate_nothing)
    monkeypatch.setattr(kernels, "classify_triples_by_polys", enumerate_nothing)
    for q in (5, 7):
        code, _, err = run(capsys, "forms", "--q", str(q), "--m", "2", "--brute")
        assert code == 2
        assert "refused" in err


def test_forms_cli_has_no_n_option(capsys):
    # the relation is counted for n = 2 only; --n would label n = 2 values
    with pytest.raises(SystemExit) as exc:
        main(["forms", "--q", "3", "--n", "3", "--m", "1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "--n" in err


def test_schanuel_sum_cli(capsys):
    code, out, _ = run(capsys, "schanuel-sum", "--q", "3", "--n", "6", "--degD-max", "2")
    assert code == 0
    assert out.splitlines()[-1].startswith("total,")


def test_field_enumeration_budget(capsys, monkeypatch):
    # q=3, deg D <= 11 builds 18145134 Horner entries (about 4-5 s and
    # 63 MiB): both commands refuse it before any table is built
    monkeypatch.setattr(kernels, "point_count_tables", None)
    for command in (["fields"], ["schanuel-sum", "--n", "6"]):
        code, out, err = run(capsys, *command, "--q", "3", "--degD-max", "11")
        assert (code, out) == (2, "")
        assert err == ("refused: field enumeration q=3 deg D <= 11 at cost 20 per Horner "
                       "entry needs 362902680 weighted Horner row entries > budget "
                       "100000000; raise the budget explicitly to proceed\n")
    monkeypatch.undo()
    # deg D <= 4: 324 entries
    for command in (["fields"], ["schanuel-sum", "--n", "6"]):
        argv = [*command, "--q", "3", "--degD-max", "4", "--budget"]
        code, out, err = run(capsys, *argv, "6479")
        assert (code, out) == (2, "") and "needs 6480 weighted Horner row entries" in err
        code, out, _ = run(capsys, *argv, "6480")
        assert code == 0 and out
        code, out, err = run(capsys, *argv, "-1")
        assert (code, out, err) == (1, "", "error: --budget must be >= 0, not -1\n")


@pytest.mark.parametrize("q, m", [(2, 6), (2, 7), (4, 3), (8, 2), (16, 1)])
def test_triple_loop_has_one_price(monkeypatch, capsys, q, m):
    # countd and forms --brute run the same polynomial triple loop, and
    # refuse it with the same line before it starts
    def no_loop(*args):
        raise AssertionError("triples classified before the refusal")

    monkeypatch.setattr(kernels, "classify_triples_by_polys", no_loop)
    code, out, countd_err = run(capsys, "countd", "--q", str(q), "--d", "2", "--m", str(m))
    assert (code, out) == (2, "")
    code, out, forms_err = run(capsys, "forms", "--q", str(q), "--m", str(m), "--brute")
    assert (code, out) == (2, "")
    assert countd_err == forms_err
    assert f"needs {100 * q ** (3 * (m + 1))} weighted oracle triples" in countd_err


@pytest.mark.parametrize("q, m, budget, unit", [
    (3, 2, "6479", "weighted Horner row entries"),  # admitted at 6480
    (23, 2, "100000000", "weighted Horner row entries"),
    (19, 2, "100000000", "weighted table entries"),  # code-sum tables of q^6 + q^4 entries
    (101, 1, "100000000", "weighted table entries"),  # genus 0: no Horner entry
    (1009, 1, "100000000", "weighted table entries"),  # a kernel of 1009^3 entries
])
def test_field_enumeration_has_one_price(monkeypatch, capsys, q, m, budget, unit):
    # assemble and fields build the same enumeration, and refuse it with the
    # same line before any of its tables is built
    def no_table(*args):
        raise AssertionError("table built before the refusal")

    for name in ("squarefree_kernel", "point_count_tables", "code_sums"):
        monkeypatch.setattr(kernels, name, no_table)
    code, out, assemble_err = run(capsys, "assemble", "--q", str(q), "--n", "2",
                                  "--m", str(m), "--budget", budget)
    assert (code, out) == (2, "")
    code, out, fields_err = run(capsys, "fields", "--q", str(q), "--degD-max", str(2 * m),
                                "--budget", budget)
    assert (code, out) == (2, "")
    assert assemble_err == fields_err
    assert fields_err.startswith("refused: ") and f" {unit} > budget {budget};" in fields_err


def test_walk_and_field_tables_have_one_price(monkeypatch, capsys):
    # at q=79 the walk of countd --m 1 builds the kernel and code-sum tables
    # that assemble --m 1 and fields --degD-max 2 build: all three refuse
    # them with the same count before any table is built
    def no_table(*args):
        raise AssertionError("table built before the refusal")

    for name in ("squarefree_kernel", "point_count_tables", "code_sums"):
        monkeypatch.setattr(kernels, name, no_table)
    for argv in (("countd", "--d", "2", "--m", "1"), ("assemble", "--n", "2", "--m", "1"),
                 ("fields", "--degD-max", "2")):
        code, out, err = run(capsys, argv[0], "--q", "79", *argv[1:])
        assert (code, out) == (2, "")
        assert err.startswith("refused: ") and (
            " at cost 3 per code-sum entry needs 116868966 weighted table entries > "
            "budget 100000000;") in err


@pytest.mark.parametrize("argv", [
    "countd --q 2 --d 2 --m 0 --m-to 6",
    "forms --q 2 --m 0 --m-to 6",
    "count --q 2 --n 2 --m 0 --m-to 13",
    "countd --q 5 --d 2 --m 0 --m-to 4",
])
def test_height_range_is_refused_before_its_first_height(monkeypatch, capsys, argv):
    # prices grow with m, and the rows are computed from the largest height
    # down, so a range refused at its top computes no height
    def no_loop(*args):
        raise AssertionError("a height computed before the refusal")

    for name in ("count_coprime_vectors", "discriminant_classes", "classify_triples_by_polys"):
        monkeypatch.setattr(kernels, name, no_loop)
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "") and err.startswith("refused: ")


def test_forms_brute_bad_degree_is_bad_input(capsys):
    # the oracle runs before the table, and still takes d < 1 as bad input
    for d in ("0", "-2"):
        code, out, err = run(capsys, "forms", "--q", "3", "--d", d, "--m", "1", "--brute")
        assert (code, out, err) == (1, "", f"error: degree d must be >= 1, not {d}\n")


def test_exact_output_past_4300_digits(monkeypatch, capsys):
    # str(int) refuses more than 4300 digits by default from Python 3.10.7
    # on; main lifts the limit, so a 5000-digit numerator is written whole
    import sys
    from fractions import Fraction

    from ffcount import counting

    increment = Fraction(10**4999 + 1, 10**5000)
    report = {"increments": {1: increment}, "increment_floats": {1: float(increment)},
              "ratio_to_previous_degree": {}}
    monkeypatch.setattr(counting, "schanuel_sum_quadratic",
                        lambda q, n, degD_max, budget: (increment, report))
    has_limit = hasattr(sys, "set_int_max_str_digits")
    if has_limit:
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # the default
    try:
        code, out, err = run(capsys, "schanuel-sum", "--q", "3", "--n", "6", "--degD-max", "1")
    finally:
        if has_limit:
            sys.set_int_max_str_digits(saved)
    exact = "1" + "0" * 4998 + "1/1" + "0" * 5000
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == [f"1,{exact},0.1,", f"total,{exact},0.1,"]


def test_memory_error_is_a_refusal(monkeypatch, capsys):
    # a table too large for the process ends in one refusal line, exit 2
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(kernels, "count_coprime_vectors", out_of_memory)
    code, out, err = run(capsys, "count", "--q", "3", "--n", "2", "--m", "1")
    assert (code, out) == (2, "")
    assert err.startswith("refused: out of memory") and err.count("\n") == 1


def test_verify_deep_widens_the_chosen_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "places", "--deep")
    names = [line.split()[1] for line in out.splitlines()[:-1]]
    assert code == 0 and names == ["principal_divisor_degree:", "height_two_ways:"]


def test_verify_all_deep_covers_every_deep_cell(monkeypatch, capsys):
    # the cells each check of `--suite all` reaches, with and without
    # --deep; the checks without deep cells are stubbed, and the table
    # sides of the walk, definition and point-count checks are cheap fakes
    # that agree
    from ffcount import counting, quadratic

    seen = set()

    def stub():
        return "stub", True

    def walk(q, m):
        seen.add(("walk", q, m))
        return {}

    def definition(q, m):
        seen.add(("definition", q, m))
        return {}

    def tables(K, d, r_max):
        seen.add(("tables", K.q, d))
        return [()] * K.q**d

    real_brute = counting.brute_count_rational

    def brute(*cell):
        seen.add(("oracle", *cell))
        return real_brute(*cell)

    nchecks = sum(map(len, verify.SUITES.values()))
    monkeypatch.setattr(verify, "SUITES", {
        name: [check if check in verify.DEEP_CELLS else stub for check in group]
        for name, group in verify.SUITES.items()})
    monkeypatch.setattr(verify, "discriminant_classes_by_full_walk", walk)
    monkeypatch.setattr(verify, "discriminant_classes_by_definition", definition)
    monkeypatch.setattr(kernels, "discriminant_classes", lambda q, m: {})
    monkeypatch.setattr(kernels, "point_count_tables", tables)
    monkeypatch.setattr(quadratic, "curve_point_counts", lambda K, u, D, r_max: ())
    monkeypatch.setattr(counting, "brute_count_rational", brute)
    reached = {}
    for argv in ([], ["--deep"]):
        seen.clear()
        code, out, _ = run(capsys, "verify", "--suite", "all", *argv)
        assert code == 0 and out.endswith(f"-- {nchecks} passed, 0 failed\n")
        reached[bool(argv)] = set(seen)
    deep_only = {("oracle", *cell) for cell in verify.DEEP_CELLS[verify._oracle_equivalence]}
    deep_only |= {("walk", 3, 4), ("tables", 3, 7), ("definition", 7, 0), ("definition", 7, 1)}
    assert reached[True] - reached[False] == deep_only
    # the walk at q=3 m<=4 and the tables at q=3 deg D<=7, every cell below them too
    assert {("walk", 3, m) for m in range(5)} <= reached[True]
    assert {("tables", 3, d) for d in range(1, 8)} <= reached[True]


def test_json_format(capsys):
    code, out, _ = run(capsys, "count", "--q", "2", "--n", "2", "--m", "2",
                       "--engine", "moebius", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data[0]["N_moebius"] == "24"
    assert data[0]["main_term"] == "24/1"


@pytest.mark.parametrize("argv", [
    ("fields", "--q", "3", "--degD-max", "3"),
    ("count", "--q", "2", "--n", "2", "--m", "0", "--m-to", "3"),
])
def test_json_is_the_bytes_of_one_json_dumps(capsys, argv):
    # the rows are written in blocks, as json.dumps(rows, indent=2)
    # writes the CSV rows as dicts of strings
    code, out, _ = run(capsys, *argv)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0 and out == json.dumps(rows, indent=2) + "\n"


def test_json_of_no_rows_and_escaped_cells():
    from ffcount import cli

    for rows in ([], [["a\"b", "\u00e9\n"]]):
        buf = io.StringIO()
        cli.emit(rows, ["x\\", "y"], "json", buf)
        assert buf.getvalue() == json.dumps([dict(zip(["x\\", "y"], r)) for r in rows],
                                            indent=2) + "\n"


# cells from the characters csv quotes or doubles, the backslash, a
# space and non-ASCII characters, "" among them
CSV_CELLS = st.text(alphabet=[",", '"', "\r", "\n", "\\", " ", "a", "7", "\u00e9", "\u2028"],
                    max_size=3)
MANY_ROWS = [["1", "T^2+1", ""]] * 1500 + [["a,b"], [""], []] + [["x", "y"]] * 600


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(headers=st.lists(CSV_CELLS, max_size=3),
       rows=st.lists(st.lists(CSV_CELLS, max_size=4), max_size=8),
       copies=st.sampled_from([1, 1, 200]))
@example(headers=["x"], rows=[[""]], copies=1)
@example(headers=[], rows=[[], [""], []], copies=1)
@example(headers=["q", "D"], rows=MANY_ROWS, copies=1)
def test_csv_blocks_are_the_bytes_of_csv_writer(headers, rows, copies):
    # rows of one empty cell and empty rows, and, at 200 copies, blocks
    # of 1024 rows with a row that csv quotes in some of them and not in
    # others
    from ffcount import cli

    rows = rows * copies
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerows([headers, *rows])
    out = io.StringIO()
    cli.emit(rows, headers, "csv", out)
    assert out.getvalue() == expected.getvalue()


class CountingStdout(io.StringIO):
    """A stdout stand-in that counts its write calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_large_outputs_are_written_in_blocks(monkeypatch, fmt):
    # 6250 rows in a handful of writes, not one write per row; the CSV is
    # the benchmark's recorded output, which this test only reads
    import sys

    recorded = (pathlib.Path(__file__).parents[1] / "perfbench" / "expected"
                / "fields_q_5_degD-max_5.out").read_text(encoding="utf-8")
    stdout = CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["fields", "--q", "5", "--degD-max", "5", "--format", fmt]) == 0
    assert stdout.writes <= 10
    if fmt == "csv":
        assert stdout.getvalue() == recorded
    else:
        rows = list(csv.DictReader(io.StringIO(recorded)))
        assert stdout.getvalue() == json.dumps(rows, indent=2) + "\n"


def test_byte_identical_reruns(capsys):
    args = ("count", "--q", "3", "--n", "2", "--m", "0", "--m-to", "2", "--engine", "both")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_euler_product_cli(capsys):
    code, out, _ = run(capsys, "zeta", "--q", "2", "--g", "0", "--s", "2",
                       "--euler-D", "1")
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[3] == "64/27" and row[4] == "8/3"


def test_euler_product_refusal_names_no_parameter(capsys):
    # the size limit is a constant no command line can raise
    code, out, err = run(capsys, "zeta", "--q", "2", "--g", "0", "--s", "2",
                         "--euler-D", "40")
    assert (code, out) == (2, "") and err.startswith("refused: ")
    assert "max_bits" not in err and "raise" not in err and "tail_bound" in err


def test_hasse_weil_cli(capsys):
    code, out, _ = run(capsys, "zeta", "--q", "3", "--g", "1", "--L", "1,0,3",
                       "--hasse-weil")
    assert code == 0 and out.strip() == "ok"
    code, out, _ = run(capsys, "zeta", "--q", "3", "--g", "1", "--L", "1,5,3",
                       "--hasse-weil")
    assert code == 1 and "FAIL" in out


def test_count_workers_flag(capsys):
    base = run(capsys, "count", "--q", "3", "--n", "2", "--m", "2",
               "--engine", "brute")
    multi = run(capsys, "count", "--q", "3", "--n", "2", "--m", "2",
                "--engine", "brute", "--workers", "2")
    assert base[0] == multi[0] == 0
    assert base[1] == multi[1]


def test_count_starts_no_process_pool(capsys, monkeypatch):
    # --workers is accepted, but the count runs in this process
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    code, out, _ = run(capsys, "count", "--q", "3", "--n", "3", "--m", "2",
                       "--engine", "both", "--workers", "2")
    assert code == 0 and out.splitlines()[1].split(",")[6] == "true"


def test_verify_fast_suites(capsys):
    # every line is a passed check, then the summary: no report-only lines
    for suite in ("algebra", "zeta", "riemann_roch", "counting", "quadratic", "forms"):
        code, out, _ = run(capsys, "verify", "--suite", suite)
        *checks, summary = out.splitlines()
        assert code == 0 and checks
        assert all(line.startswith("ok     ") for line in checks)
        assert summary == f"-- {len(checks)} passed, 0 failed"
        if suite == "forms":
            assert "q=2 m<=2" in out


def test_verify_reports_a_raising_check_and_runs_the_rest(capsys, monkeypatch):
    from ffcount.errors import ConsistencyError

    def _planted():
        raise ConsistencyError("planted")

    oracle, _, pipeline = verify.SUITES["counting"]
    monkeypatch.setitem(verify.SUITES, "counting", [oracle, _planted, pipeline])
    code, out, err = run(capsys, "verify", "--suite", "counting")
    lines = out.splitlines()
    assert code == 1 and err == ""
    assert lines[0].startswith("ok     oracle_equivalence: ")
    assert lines[1] == "FAIL   planted: raised ConsistencyError: planted"
    assert lines[2].startswith("ok     pipeline_agreement: ")
    assert lines[3:] == ["-- 2 passed, 1 failed"]


def test_bad_descriptor_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.desc"
    path.write_text("q = 3\ng = 1\nL_coeffs = 1, 0, 2\n")
    code, _, err = run(capsys, "zeta", "--descriptor", str(path), "--s", "2")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "zeta", "--g", "0", "--s", "2")
    assert code == 1
    assert err.strip() == "error: --q is required unless --descriptor is given"
    code, out, err = run(capsys, "zeta", "--descriptor", str(tmp_path / "none"), "--s", "2")
    assert code == 1 and out == "" and err.startswith("error: ") and "none" in err
    # no field has 6 elements, by flags or by file
    code, out, err = run(capsys, "zeta", "--q", "6", "--g", "0", "--s", "2")
    assert (code, out, err.strip()) == (
        1, "", "error: constant field size: 6 is not a prime power")
    path.write_text("q = 6\ng = 0\nL_coeffs = 1\n")
    code, out, err = run(capsys, "zeta", "--descriptor", str(path), "--s", "2")
    assert (code, out, err.strip()) == (
        1, "", "error: invalid descriptor: constant field size: 6 is not a prime power")


@pytest.mark.parametrize("argv, message", [
    (("count", "--n", "2", "--m", "1", "--workers", "0"), "workers must be >= 1, not 0"),
    (("count", "--n", "2", "--m", "1", "--workers", "-1"), "workers must be >= 1, not -1"),
    (("count", "--n", "2", "--m", "2", "--m-to", "1"), "--m-to 1 is below --m 2"),
    (("countd", "--d", "2", "--m", "2", "--m-to", "1"), "--m-to 1 is below --m 2"),
    (("forms", "--brute", "--m", "2", "--m-to", "1"), "--m-to 1 is below --m 2"),
    (("countd", "--d", "0", "--m", "1"), "degree d must be >= 1, not 0"),
    (("countd", "--d", "-2", "--m", "1"), "degree d must be >= 1, not -2"),
    (("forms", "--d", "0", "--m", "1"), "degree d must be >= 1, not 0"),
    (("forms", "--d", "-2", "--m", "1"), "degree d must be >= 1, not -2"),
    # zeta checks its flags before it prints anything
    (("zeta", "--s", "2", "--schanuel"), "--schanuel needs --n"),
    (("zeta", "--divisors", "2", "--euler-D", "3"), "--euler-D needs --s"),
    (("zeta", "--g", "0"), "nothing to compute: pass --s, --schanuel, --divisors, ..."),
    # a value that fails after others are computed still prints nothing
    (("zeta", "--q", "2", "--g", "0", "--s", "2", "--divisors", "-1"), "l_max must be >= 0"),
    # no field has 6 elements: bad input, not the even-q refusal
    (("fields", "--q", "6", "--degD-max", "1"), "6 is not a prime power"),
    (("schanuel-sum", "--q", "6", "--n", "6", "--degD-max", "1"), "6 is not a prime power"),
    (("assemble", "--q", "6", "--n", "2", "--m", "1"), "6 is not a prime power"),
    # a negative height is bad input for every engine and subcommand
    (("count", "--n", "2", "--m", "-1"), "--m must be >= 0, not -1"),
    (("count", "--n", "2", "--m", "-1", "--engine", "brute"), "--m must be >= 0, not -1"),
    (("count", "--n", "2", "--m", "-2", "--m-to", "1"), "--m must be >= 0, not -2"),
    (("countd", "--d", "2", "--m", "-1"), "--m must be >= 0, not -1"),
    (("forms", "--brute", "--m", "-1"), "--m must be >= 0, not -1"),
    (("assemble", "--n", "2", "--m", "-1"), "--m must be >= 0, not -1"),
    # so is a negative budget, before any refusal against it
    (("count", "--n", "2", "--m", "1", "--budget", "-1"), "--budget must be >= 0, not -1"),
    (("countd", "--d", "2", "--m", "1", "--budget", "-1"), "--budget must be >= 0, not -1"),
    (("forms", "--brute", "--m", "1", "--budget", "-1"), "--budget must be >= 0, not -1"),
    (("assemble", "--n", "2", "--m", "1", "--budget", "-1"), "--budget must be >= 0, not -1"),
])
def test_out_of_range_input_exits_1(capsys, argv, message):
    q = () if "--q" in argv else ("--q", "3")  # --q 3 unless the case names one
    code, out, err = run(capsys, argv[0], *q, *argv[1:])
    assert (code, out, err.strip()) == (1, "", f"error: {message}")


def fresh_python(*args):
    """stdout of a fresh interpreter run with this package's source first
    on its path; no module of this process is shared with it."""
    import os
    import subprocess
    import sys

    import ffcount

    src = os.path.dirname(os.path.dirname(ffcount.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": path}).stdout


# modules that `import ffcount.cli` must not load: every module that
# computes, and the standard modules behind them
DEFERRED = ("ffcount.verify", "ffcount.places", "ffcount.quadratic", "ffcount.zeta",
            "ffcount.riemann_roch", "ffcount.forms", "ffcount.counting", "ffcount.kernels",
            "ffcount.poly", "ffcount.gf", "fractions", "decimal", "json")


def test_verify_suite_choices_without_importing_verify(capsys):
    from ffcount import cli, verify

    assert cli.VERIFY_SUITES == tuple(verify.SUITES)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2 and "invalid choice" in capsys.readouterr().err
    # only `ffcount verify` loads the invariant battery and the places of
    # F_q(T), its reference definitions; the other command modules and
    # fractions load with the commands that run them
    probe = ("import sys, ffcount.cli; "
             f"print(sorted(set({DEFERRED!r}) & set(sys.modules)))")
    assert fresh_python("-c", probe).strip() == "[]"


def test_start_up_loads_only_the_parser():
    probe = ("import sys, ffcount.cli; "
             "print(' '.join(sorted(m for m in sys.modules if m.startswith('ffcount'))))")
    assert fresh_python("-c", probe).split() == ["ffcount", "ffcount.cli", "ffcount.errors"]
    # the package itself loads no submodule
    probe = "import sys, ffcount; print([m for m in sys.modules if m.startswith('ffcount.')])"
    assert fresh_python("-c", probe).strip() == "[]"
    # csv is loaded by the commands that write CSV, when they write
    probe = "import sys, ffcount.cli; print('csv' in sys.modules)"
    assert fresh_python("-c", probe).strip() == "False"
    # countd runs on the tables alone: no Fraction is made
    probe = ("import sys; from ffcount.cli import main; "
             "main(['countd', '--q', '3', '--d', '2', '--m', '1']); "
             "print('fractions' in sys.modules)")
    assert fresh_python("-c", probe).splitlines() == ["q,n,d,m,N", "3,2,2,1,432", "False"]


# one command line per subcommand, passing the arguments it shares
SAMPLE_LINES = {
    "zeta": "zeta --q 2 --n 3 --schanuel --format json",
    "count": "count --q 2 --n 2 --m 0 --m-to 3 --budget 7",
    "countd": "countd --q 3 --d 2 --m 1 --format json",
    "assemble": "assemble --q 3 --n 2 --m 2 --per-field",
    "fields": "fields --q 3 --degD-max 3 --write-descriptors out",
    "forms": "forms --q 3 --m 1 --m-to 2 --brute",
    "schanuel-sum": "schanuel-sum --q 3 --n 6 --degD-max 3 --budget 9",
    "verify": "verify --suite forms --deep",
}


def subcommand_help(capsys, parser, name):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([name, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", cli.COMMANDS)
def test_one_command_parser_equals_the_full_parser(capsys, name):
    full, own = cli.build_parser(), cli.build_parser(name)
    assert subcommand_help(capsys, own, name) == subcommand_help(capsys, full, name)
    argv = SAMPLE_LINES[name].split()
    assert own.parse_args(argv) == full.parse_args(argv)
    # every other subcommand is registered with -h alone
    for other in set(cli.COMMANDS) - {name}:
        assert subcommand_help(capsys, own, other).splitlines()[0] == f"usage: ffcount {other} [-h]"


def test_top_level_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert list(cli.COMMANDS) == ["zeta", "count", "countd", "assemble", "fields", "forms",
                                  "schanuel-sum", "verify"]
    assert "{" + ",".join(cli.COMMANDS) + "}" in out
    for name, (summary, _, _) in cli.COMMANDS.items():
        assert re.search(rf"^ +{re.escape(name)} +{re.escape(summary)}$", out, re.M), name


@pytest.mark.parametrize("argv, command", [
    (["countd", "--q", "3", "--d", "2", "--m", "1"], "countd"),
    (["verify", "--suite", "nope"], "verify"),
    (["bogus"], None),
    (["--", "count", "--q", "2", "--n", "2", "--m", "1"], None),
    ([], None),
])
def test_main_builds_the_arguments_of_the_running_command_only(monkeypatch, capsys, argv,
                                                               command):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda name=None: built.append(name) or real(name))
    try:
        main(argv)
    except SystemExit:
        pass
    assert built == [command]


# the modules each command loads besides ffcount, cli and errors, fractions
# among them when it makes a Fraction: the table of README, Start-up
@pytest.mark.parametrize("argv, loads", [
    ("zeta --q 2 --g 0 --s 2", "zeta gf poly fractions"),
    ("countd --q 3 --d 2 --m 1", "counting kernels gf poly"),
    ("count --q 2 --n 2 --m 1 --engine brute", "counting kernels gf poly"),
    ("count --q 2 --n 2 --m 1", "counting kernels gf poly zeta riemann_roch fractions"),
    ("assemble --q 3 --n 2 --m 1",
     "counting kernels gf poly zeta riemann_roch fractions quadratic"),
    ("fields --q 3 --degD-max 3", "quadratic kernels gf poly zeta fractions"),
    ("schanuel-sum --q 3 --n 6 --degD-max 3", "quadratic kernels gf poly zeta fractions counting"),
    ("forms --q 3 --m 1", "forms counting kernels gf poly fractions"),
    ("verify --suite forms",
     "verify places forms counting kernels gf poly quadratic zeta riemann_roch fractions"),
])
def test_each_command_loads_its_own_modules(argv, loads):
    probe = ("import contextlib, io, sys; from ffcount.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()): main(sys.argv[1:])\n"
             "print(' '.join(m.removeprefix('ffcount.') for m in sys.modules\n"
             "               if m.startswith('ffcount.') or m == 'fractions'))")
    assert sorted(fresh_python("-c", probe, *argv.split()).split()) == sorted(
        ["cli", "errors", *loads.split()])
    # the command's --help exits 0 (fresh_python checks the status)
    command = argv.split()[0]
    assert fresh_python("-m", "ffcount.cli", command, "--help").startswith(
        f"usage: ffcount {command} ")


@pytest.mark.parametrize("argv", [
    "zeta --q 2 --g 0 --s 2 --schanuel --n 3 --moebius 3",
    "count --q 2 --n 2 --m 0 --m-to 3",
    "countd --q 3 --d 2 --m 0 --m-to 2",
    "assemble --q 3 --n 2 --m 2",
    "fields --q 3 --degD-max 3 --format json",
    "forms --q 3 --m 1 --brute",
    "schanuel-sum --q 3 --n 6 --degD-max 3",
    "verify --suite forms",
])
def test_each_command_in_a_fresh_interpreter(capsys, argv):
    # a deferred import that works only because another test loaded its
    # module first fails here
    code, out, _ = run(capsys, *argv.split())
    assert code == 0 and out
    assert fresh_python("-m", "ffcount.cli", *argv.split()) == out


def test_fields_checks_each_descriptor_once(capsys, monkeypatch):
    # the enumeration checks each distinct descriptor, and the command
    # checks none again
    from ffcount import quadratic, zeta

    checked = []
    real = zeta.hasse_weil_check

    def counting_check(desc):
        checked.append(desc)
        return real(desc)

    monkeypatch.setattr(zeta, "hasse_weil_check", counting_check)
    monkeypatch.setattr(quadratic, "hasse_weil_check", counting_check)
    quadratic.field_classes.cache_clear()  # the descriptors are built here
    quadratic.enumerate_quadratic_fields.cache_clear()
    code, out, _ = run(capsys, "fields", "--q", "3", "--degD-max", "4")
    fields = quadratic.enumerate_quadratic_fields(3, 4)
    assert code == 0 and out.count(",true\n") == len(fields)
    assert len(checked) == len(set(checked)) == len({f.descriptor for f in fields})


def test_char2_cells_reached_by_the_echelon_test(capsys):
    # values recorded by the exhaustive Artin-Schreier scan, which took
    # about 150 s per route for the first and 480 s for the second
    code, out, _ = run(capsys, "forms", "--q", "2", "--m", "4", "--brute")
    assert code == 0
    assert out.splitlines()[1] == "2,2,2,4,2,1:384;2:37656,19008,19008,true,true"
    code, out, _ = run(capsys, "countd", "--q", "8", "--d", "2", "--m", "1")
    assert code == 0 and out.splitlines() == ["q,n,d,m,N", "8,2,2,1,64008"]
