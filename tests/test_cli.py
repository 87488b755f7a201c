import json

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


def test_assemble_refusal(capsys):
    code, _, err = run(capsys, "assemble", "--q", "3", "--n", "2", "--m", "3")
    assert code == 2 and "genus" in err


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


def test_forms_cli(capsys):
    code, out, _ = run(capsys, "forms", "--q", "3", "--m", "1", "--brute")
    assert code == 0
    row = out.splitlines()[1]
    assert ",216,216,true,true" in row


def test_schanuel_sum_cli(capsys):
    code, out, _ = run(capsys, "schanuel-sum", "--q", "3", "--n", "6", "--degD-max", "2")
    assert code == 0
    assert out.splitlines()[-1].startswith("total,")


def test_json_format(capsys):
    code, out, _ = run(capsys, "count", "--q", "2", "--n", "2", "--m", "2",
                       "--engine", "moebius", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data[0]["N_moebius"] == "24"
    assert data[0]["main_term"] == "24/1"


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


def test_verify_fast_suites(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "algebra")
    assert code == 0
    assert "failed" not in out or "0 failed" in out


def test_bad_descriptor_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.desc"
    path.write_text("q = 3\ng = 1\nL_coeffs = 1, 0, 2\n")
    code, _, err = run(capsys, "zeta", "--descriptor", str(path), "--s", "2")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "zeta", "--g", "0", "--s", "2")
    assert code == 1
    assert err.strip() == "error: --q is required unless --descriptor is given"
