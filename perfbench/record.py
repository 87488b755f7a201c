#!/usr/bin/env python3
"""Record the expected stdout of every benchmarked invocation.

Runs each ffcount invocation of every workload, the README's published
cells and the smoke cell the tests use, once, from the checkout's `src/`
tree, and the per-field check over every field.  Nothing is written
unless every invocation exits 0, every cross-route check passes and the
README values hold (8/3; 0, 432, 13824; NF = 216).  Then it writes
expected/<name>.out and expected/fieldcheck.tsv.

Re-record only when a change is meant to alter the output; the benchmark
counts any other difference as a failure.

Usage:  python3 perfbench/record.py
"""

import sys

from workloads import (CROSS_CHECKS, EXPECTED_DIR, FIELD_TABLE, FIELDCHECK, FIELDCHECK_SCRIPT,
                       README_CELLS, ROOT, SMOKE_CELL, WORKLOADS, check_field_rows, child_env,
                       cli, command_for, run_child)

TIMEOUT_S = 600.0


def main():
    env = child_env(ROOT / "src")
    cells = [inv for invs in WORKLOADS.values() for inv in invs if inv.argv[0] != FIELDCHECK]
    cells += [cli(line) for line in README_CELLS] + [SMOKE_CELL]
    outputs, stdout, problems = {}, {}, []
    for inv in cells:
        child = run_child(command_for(inv, seed=0), env, TIMEOUT_S)
        print(f"{child.wall_s:8.2f} s  {' '.join(inv.argv)}", flush=True)
        if child.returncode != 0:
            problems.append(f"{inv.name}: exit {child.returncode}: {child.stderr.strip()}")
        stdout[inv.name] = child.stdout
        outputs[inv.name] = child.stdout.decode("utf-8")
    for inv in cells:
        check = CROSS_CHECKS.get(inv.name)
        reason = check(outputs[inv.name], outputs) if check else None
        if reason:
            problems.append(f"{inv.name}: {reason}")
    for line, holds in README_CELLS.items():
        if not holds(outputs[cli(line).name]):
            problems.append(f"README value does not hold: ffcount {line}")

    child = run_child([sys.executable, str(FIELDCHECK_SCRIPT)], env, TIMEOUT_S)
    print(f"{child.wall_s:8.2f} s  field check, every field")
    table = child.stdout.decode("utf-8")
    reason = (f"exit {child.returncode}: {child.stderr.strip()}" if child.returncode
              else check_field_rows(table, frozenset(table.splitlines())))
    if reason:
        problems.append(f"field check: {reason}")

    if problems:
        print("not recorded:\n  " + "\n  ".join(problems), file=sys.stderr)
        return 1
    EXPECTED_DIR.mkdir(exist_ok=True)
    for name, data in stdout.items():
        (EXPECTED_DIR / f"{name}.out").write_bytes(data)
    FIELD_TABLE.write_text(table, encoding="utf-8")
    print(f"recorded {len(stdout)} outputs and {len(table.splitlines())} field rows "
          f"in {EXPECTED_DIR.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
