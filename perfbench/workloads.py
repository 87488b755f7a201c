"""Workload table, child-process runner and output checks.

A workload is a fixed list of invocations.  Each runs as a fresh child
process, one at a time (a closed loop with one client).  An invocation is
either an `ffcount` command line, whose stdout must equal the bytes
recorded in `expected/`, or the per-field degree-2 check in
`fieldcheck.py`, whose rows must appear in the recorded field table.  On
top of the byte checks, the cross-route checks hold each pass to the
package's own claim: every `match` column is true, countd agrees with
assemble, and each field's brute count equals its Moebius count.
"""

import csv
import io
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED_DIR = BENCH_DIR / "expected"
FIELD_TABLE = EXPECTED_DIR / "fieldcheck.tsv"
FIELDCHECK_SCRIPT = BENCH_DIR / "fieldcheck.py"
# Scratch space inside the checkout: stderr captures, compiled-lane builds,
# trace records.  Results records go to RESULTS_DIR.
BUILD_DIR = ROOT / ".bench_build"
RESULTS_DIR = ROOT / ".bench_results"

FIELDCHECK = "fieldcheck"


@dataclass(frozen=True)
class Invocation:
    """One child process of a workload pass.

    `argv` is an ffcount command line, or (FIELDCHECK,) for the per-field
    check.  `traced_argv` replaces `argv` in the traced run; its stdout is
    checked against the same recorded bytes.
    """

    argv: tuple
    traced_argv: tuple = None

    @property
    def name(self) -> str:
        """Key of the recorded stdout; `--workers` never changes the bytes."""
        out, skip = [], False
        for arg in self.argv:
            if skip:
                skip = False
            elif arg == "--workers":
                skip = True
            else:
                out.append(arg.lstrip("-"))
        return "_".join(out)

    def argv_for(self, traced: bool) -> tuple:
        return self.traced_argv if traced and self.traced_argv else self.argv


def cli(line: str, traced: str = None) -> Invocation:
    return Invocation(tuple(line.split()), tuple(traced.split()) if traced else None)


# Why each workload exists, and the layer it stresses, is in README.md.
WORKLOADS = {
    "lines": [cli("count --q 2 --n 2 --m 0 --m-to 9")],
    "lines-uncapped": [
        cli("count --q 5 --n 2 --m 4 --workers 2", traced="count --q 5 --n 2 --m 4 --workers 1"),
    ],
    "degree2": [
        cli("countd --q 5 --d 2 --m 0 --m-to 2"),
        cli("assemble --q 5 --n 2 --m 2"),
        Invocation((FIELDCHECK,)),
        cli("forms --q 4 --m 1 --brute"),
        cli("countd --q 9 --d 2 --m 1"),
    ],
    "schanuel": [
        cli("fields --q 5 --degD-max 5"),
        cli("schanuel-sum --q 5 --n 6 --degD-max 5"),
    ],
}

# Cells recorded alongside the workloads but never timed: the README's
# published values (checked while recording) and the smoke cell the tests run.
README_CELLS = {
    "zeta --q 2 --g 0 --s 2": lambda out: out.strip() == "8/3",
    "countd --q 3 --d 2 --m 0 --m-to 2": lambda out: column(out, "N") == ["0", "432", "13824"],
    "forms --q 3 --m 1 --brute": lambda out: column(out, "NF") == ["216"],
}
SMOKE_CELL = cli("count --q 2 --n 2 --m 0 --m-to 3")


def column(stdout: str, name: str) -> list:
    return [row[name] for row in csv.DictReader(io.StringIO(stdout))]


# -- cross-route checks ---------------------------------------------------------


def _all_true(out, name):
    values = column(out, name)
    if not values or any(v != "true" for v in values):
        return f"column {name!r} is not all true: {values}"
    return None


def _countd_vs_assemble(outputs):
    countd = outputs.get("countd_q_5_d_2_m_0_m-to_2")
    assemble = outputs.get("assemble_q_5_n_2_m_2")
    if countd is None or assemble is None:
        return "countd/assemble pair incomplete"
    by_m = dict(zip(column(countd, "m"), column(countd, "N")))
    if [by_m.get("2")] != column(assemble, "N"):
        return f"countd N(m=2) = {by_m.get('2')} but assemble N = {column(assemble, 'N')}"
    return None


def check_field_rows(out, table):
    """Each row is `label, m, brute, moebius`; brute must equal Moebius and
    the row must be one of the recorded ones."""
    lines = out.splitlines()
    if not lines or len(set(lines)) != len(lines):
        return "field check printed no rows or duplicate rows"
    for line in lines:
        parts = line.split("\t")
        if len(parts) != 4 or parts[2] != parts[3]:
            return f"brute and Moebius disagree: {line!r}"
        if line not in table:
            return f"row not in the recorded field table: {line!r}"
    return None


# invocation name -> check(stdout of this invocation, all stdouts of the pass)
CROSS_CHECKS = {
    "count_q_2_n_2_m_0_m-to_9": lambda out, _: _all_true(out, "match"),
    "count_q_5_n_2_m_4": lambda out, _: _all_true(out, "match"),
    "count_q_2_n_2_m_0_m-to_3": lambda out, _: _all_true(out, "match"),
    "assemble_q_5_n_2_m_2": lambda _, outs: _countd_vs_assemble(outs),
    "forms_q_4_m_1_brute": lambda out, _: _all_true(out, "match"),
    "fields_q_5_degD-max_5": lambda out, _: _all_true(out, "hasse_weil_ok"),
}


def expected_bytes(name: str) -> bytes:
    return (EXPECTED_DIR / f"{name}.out").read_bytes()


def field_table() -> frozenset:
    return frozenset(FIELD_TABLE.read_text(encoding="utf-8").splitlines())


def check_output(inv: Invocation, returncode: int, stdout: bytes, outputs: dict,
                 table=None) -> str:
    """None when the invocation passed, else the reason it failed.

    `outputs` maps the names of the pass's earlier invocations to their
    decoded stdout; this one is added to it.
    """
    text = stdout.decode("utf-8", errors="replace")
    outputs[inv.name] = text
    if returncode != 0:
        return f"exit status {returncode}"
    if inv.argv[0] == FIELDCHECK:
        return check_field_rows(text, table if table is not None else field_table())
    if stdout != expected_bytes(inv.name):
        return "stdout differs from the recorded bytes"
    check = CROSS_CHECKS.get(inv.name)
    return check(text, outputs) if check else None


# -- child processes -------------------------------------------------------------


def child_env(src_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_dir)
    return env


def command_for(inv: Invocation, seed: int, traced: bool = False) -> list:
    argv = inv.argv_for(traced)
    if argv[0] == FIELDCHECK:
        return [sys.executable, str(FIELDCHECK_SCRIPT), "--seed", str(seed)]
    return [sys.executable, "-m", "ffcount.cli", *argv]


@dataclass
class ChildResult:
    returncode: int
    stdout: bytes
    stderr: str
    wall_s: float
    cpu_s: float  # user + system of the child and the children it reaped
    maxrss_mb: float  # largest max-RSS of the child or any child it reaped


def run_child(cmd, env, timeout_s: float) -> ChildResult:
    """Run one child to completion and reap it with os.wait4 for its rusage.

    The child leads its own process group, so a timeout kills pool workers
    along with it.
    """
    BUILD_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=BUILD_DIR) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env,
                                cwd=ROOT, start_new_session=True)
        timer = threading.Timer(max(timeout_s, 1.0), _kill_group, (proc.pid,))
        timer.start()
        try:
            stdout = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", errors="replace")
    return ChildResult(proc.returncode, stdout, stderr, wall,
                       usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
