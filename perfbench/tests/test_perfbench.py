"""Tests of the benchmark itself: span arithmetic, output checks, the smoke
cell end to end and traced, and BENCHMARK.json against the code.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import ROOT, SMOKE_CELL, check_output, child_env, command_for, run_child  # noqa: E402


def test_self_times_on_synthetic_span_tree():
    spans = [
        (0, None, "a", 0.0, 10.0),
        (1, 0, "b", 1.0, 4.0),
        (2, 1, "d", 2.0, 3.0),
        (3, 0, "c", 3.0, 6.0),  # overlaps b: the union [1, 6] is subtracted once
        (4, None, "e", 12.0, 13.0),
        (5, 4, "f", 12.5, 14.0),  # ends after its parent: clipped to [12.5, 13]
        (6, None, "d", 20.0, 21.0),
    ]
    assert tracer.self_times(spans) == {"a": 5.0, "b": 2.0, "c": 3.0, "d": 2.0,
                                        "e": 0.5, "f": 1.5}
    assert tracer.root_coverage(spans, 0.0, 20.0) == 11.0


def test_tracer_wrappers_record_nested_spans():
    ticks = iter(range(100))
    trace = tracer.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    inner = trace.span("inner", leaf)
    outer = trace.span("outer", lambda: inner() + inner())
    counted = trace.count("hot", leaf)
    assert outer() == 2 and counted() == 1
    # clock reads: outer 0, inner 1-2, inner 3-4, outer 5
    assert tracer.self_times(trace.spans) == {"outer": 3.0, "inner": 2.0}
    assert trace.calls == {"hot": 1}


def test_output_check_rejects_a_one_byte_change():
    good = workloads.expected_bytes(SMOKE_CELL.name)
    assert check_output(SMOKE_CELL, 0, good, {}) is None
    for i in (0, len(good) // 2, len(good) - 1):
        bad = good[:i] + bytes([good[i] ^ 1]) + good[i + 1:]
        assert check_output(SMOKE_CELL, 0, bad, {}) is not None
    assert check_output(SMOKE_CELL, 0, good + b"\n", {}) is not None
    assert check_output(SMOKE_CELL, 1, good, {}) == "exit status 1"


def test_cross_route_checks_reject_disagreement():
    countd = workloads.cli("countd --q 5 --d 2 --m 0 --m-to 2")
    assemble = workloads.cli("assemble --q 5 --n 2 --m 2")
    outputs = {}
    assert check_output(countd, 0, workloads.expected_bytes(countd.name), outputs) is None
    assert check_output(assemble, 0, workloads.expected_bytes(assemble.name), outputs) is None
    outputs[countd.name] = outputs[countd.name].replace("864000", "864001")
    assert workloads.CROSS_CHECKS[assemble.name]("", outputs) is not None

    table = workloads.field_table()
    row = sorted(table)[0]
    label, m, brute, _ = row.split("\t")
    assert workloads.check_field_rows(row + "\n", table) is None
    assert workloads.check_field_rows(f"{label}\t{m}\t{brute}\t{int(brute) + 1}\n", table)


def test_smoke_cell_passes():
    child = run_child(command_for(SMOKE_CELL, seed=0), child_env(ROOT / "src"), 120)
    assert check_output(SMOKE_CELL, child.returncode, child.stdout, {}) is None
    assert child.cpu_s > 0 and child.maxrss_mb > 0


def test_smoke_cell_traced(tmp_path):
    record_path = tmp_path / "trace.json"
    cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), "--record", str(record_path),
           "--", *SMOKE_CELL.argv]
    child = run_child(cmd, child_env(ROOT / "src"), 120)
    assert check_output(SMOKE_CELL, child.returncode, child.stdout, {}) is None
    record = json.loads(record_path.read_text())
    assert record["missing"] == [] and record["probe_errors"] == {}
    metrics = tracer.layer_metrics([record])
    assert 0 < metrics["trace.coverage"] <= 1  # a cell this small is mostly argument parsing
    assert metrics["kernels.vector_tables.builds"] == 4  # m = 0..3
    assert metrics["poly.gcd.calls"] == metrics["kernels.vector_tables.gcd_pairs"]
    assert metrics["cli.emit.bytes"] == len(workloads.expected_bytes(SMOKE_CELL.name))


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    lane = list(tracer.LAYER_METRICS)
    assert layer == lane + [("compiled." + n, u, b) for n, u, b in lane] + [
        ("compiled.available", "count", "higher")]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lines", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
