#!/usr/bin/env python3
"""The ffcount benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program comes from its `src/` tree.

--trace 0 measures one workload end to end.  It runs passes over the
workload and stops at the pass boundary nearest to --seconds (at least
one pass).  Each invocation is a fresh child process reaped with os.wait4;
every output is checked.  wall_s, cpu_s and peak_rss_mb are medians over
passes.  setup_s, interpreter start plus `import ffcount.cli`, is the
median of SETUP_SAMPLES timings, half taken before the passes and half
after, so that one slow spell of a shared machine does not set it.

--trace 1 runs the workload once per kernel lane under the span tracer
(tracer.py): the source tree as is, then a copy with `_speedups` built by
gcc from the shipped C file (prefix `compiled.`; a lane that cannot be
built is recorded as unavailable, not as a failure).

Human-readable lines go first; the last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  Each run also
appends a record with an environment block to .bench_results/.
"""

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import sysconfig
import tempfile
import time
from pathlib import Path

import tracer
from workloads import (BUILD_DIR, EXPECTED_DIR, FIELD_TABLE, FIELDCHECK, RESULTS_DIR, ROOT,
                       WORKLOADS, check_output, child_env, command_for, field_table, run_child)

SRC = ROOT / "src"
SETUP_SAMPLES = 8
RUN_LIMIT_S = 170.0  # every child is killed before a run can pass 180 s

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"), ("setup_s", "s"))
LAYER_UNITS = {name: unit for name, unit, _ in tracer.LAYER_METRICS}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def check_checkout():
    if not (SRC / "ffcount" / "cli.py").is_file():
        fail(f"no ffcount source tree at {SRC / 'ffcount'}; run from the root of a checkout")
    names = {inv.name for invs in WORKLOADS.values() for inv in invs if inv.argv[0] != FIELDCHECK}
    missing = [n for n in sorted(names) if not (EXPECTED_DIR / f"{n}.out").is_file()]
    if missing or not FIELD_TABLE.is_file():
        fail(f"recorded outputs missing ({missing or FIELD_TABLE.name}); run perfbench/record.py")


# -- environment block -------------------------------------------------------------


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def loadavg():
    return _read("/proc/loadavg").strip() or "unknown"


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment():
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg_start": loadavg(),
    }


# -- end-to-end run ----------------------------------------------------------------------


class Deadline:
    def __init__(self, seconds):
        self.end = time.perf_counter() + seconds

    def left(self):
        return self.end - time.perf_counter()


def source_lane(env, deadline):
    """Kernel lane of the source tree.  This untimed import also fills
    __pycache__ before setup_s is measured."""
    probe = run_child([sys.executable, "-c",
                       "import ffcount.cli, ffcount.kernels as k; print(k.USING_COMPILED)"],
                      env, deadline.left())
    if probe.returncode != 0:
        fail(f"cannot import ffcount from {SRC}: {probe.stderr.strip()}")
    return "compiled" if probe.stdout.strip() == b"True" else "pure"


def setup_samples(env, deadline, n):
    """Wall times of n children that import ffcount.cli and do nothing else."""
    return [run_child([sys.executable, "-c", "import ffcount.cli"], env, deadline.left()).wall_s
            for _ in range(n)]


def run_pass(name, seed, env, table, deadline):
    children = [(inv, run_child(command_for(inv, seed), env, deadline.left()))
                for inv in WORKLOADS[name]]
    outputs, failures = {}, []
    for inv, child in children:
        reason = check_output(inv, child.returncode, child.stdout, outputs, table)
        if reason:
            failures.append({"invocation": " ".join(inv.argv), "reason": reason,
                             "stderr": child.stderr[-2000:]})
    return {
        "wall_s": sum(c.wall_s for _, c in children),
        "cpu_s": sum(c.cpu_s for _, c in children),
        "peak_rss_mb": max(c.maxrss_mb for _, c in children),
        "invocations": [{"argv": " ".join(inv.argv_for(False)), "wall_s": c.wall_s,
                         "cpu_s": c.cpu_s, "maxrss_mb": c.maxrss_mb} for inv, c in children],
        "attempted": len(children),
        "failures": failures,
    }


def end_to_end(name, seed, seconds):
    deadline = Deadline(RUN_LIMIT_S)
    env = child_env(SRC)
    lane = source_lane(env, deadline)
    setup = setup_samples(env, deadline, SETUP_SAMPLES // 2)
    table = field_table()
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(name, seed, env, table, deadline))
        typical = statistics.median(p["wall_s"] for p in passes)
        elapsed = time.perf_counter() - start
        # stop at the pass boundary nearest to --seconds
        if elapsed + typical / 2 >= seconds or elapsed + typical > deadline.left():
            break
    setup += setup_samples(env, deadline, SETUP_SAMPLES - len(setup))
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    metrics = {key: statistics.median(p[key] for p in passes)
               for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setup)
    detail = {"lane": lane, "passes": passes, "setup_samples": setup,
              "fail_ratio": failed / attempted}
    return attempted, failed, metrics, detail


# -- traced run ----------------------------------------------------------------------------


def build_compiled_lane(workdir):
    """Copy src/ffcount into workdir and build `_speedups` there from the
    shipped C file with gcc.  Returns (child env of the lane, None) or
    (None, why the lane is unavailable)."""
    c_file = SRC / "ffcount" / "_speedups.c"
    gcc = shutil.which("gcc")
    if not c_file.is_file():
        return None, "src/ffcount/_speedups.c is not in the checkout"
    if gcc is None:
        return None, "gcc not found"
    package = workdir / "ffcount"
    shutil.copytree(SRC / "ffcount", package, ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    target = package / ("_speedups" + sysconfig.get_config_var("EXT_SUFFIX"))
    cmd = [gcc, "-O2", "-shared", "-fPIC", "-I" + sysconfig.get_paths()["include"],
           str(package / "_speedups.c"), "-o", str(target)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, TMPDIR=str(workdir)))
    except subprocess.TimeoutExpired:
        return None, "gcc timed out"
    if proc.returncode != 0:
        return None, f"gcc failed: {proc.stderr.strip()[-500:]}"
    env = child_env(workdir)
    env.pop("FFCOUNT_PURE", None)
    check = subprocess.run([sys.executable, "-c",
                            "import sys, ffcount.kernels as k; sys.exit(not k.USING_COMPILED)"],
                           env=env, capture_output=True, timeout=60)
    if check.returncode != 0:
        return None, "built module did not load"
    return env, None


def traced_lane(name, seed, env, workdir, table, deadline):
    """Trace each invocation of the workload in its own child; check its
    stdout like an untimed pass would."""
    records, failures, outputs = [], [], {}
    for i, inv in enumerate(WORKLOADS[name]):
        record_path = workdir / f"trace-{i}.json"
        argv = inv.argv_for(traced=True)
        cmd = [sys.executable, tracer.__file__, "--record", str(record_path),
               "--seed", str(seed), "--", *argv]
        child = run_child(cmd, env, deadline.left())
        reason = check_output(inv, child.returncode, child.stdout, outputs, table)
        if reason is None and not record_path.is_file():
            reason = "traced child wrote no record"
        if reason:
            failures.append({"invocation": " ".join(argv), "reason": reason,
                             "stderr": child.stderr[-2000:]})
            continue
        with open(record_path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    return records, failures


def traced(name, seed):
    deadline = Deadline(RUN_LIMIT_S)
    table = field_table()
    BUILD_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="trace-", dir=BUILD_DIR))
    try:
        t0 = time.perf_counter()
        compiled_env, reason = build_compiled_lane(workdir / "compiled")
        detail = {"compiled_build_s": time.perf_counter() - t0, "compiled_unavailable": reason,
                  "lanes": {}, "failures": []}
        lanes = [("default", "", child_env(SRC))]
        if compiled_env is not None:
            lanes.append(("compiled", "compiled.", compiled_env))
        metrics = {}
        for label, prefix, env in lanes:
            lane_dir = workdir / f"records-{label}"
            lane_dir.mkdir()
            records, failures = traced_lane(name, seed, env, lane_dir, table, deadline)
            detail["lanes"][label] = records
            detail["failures"] += failures
            metrics.update({prefix + k: v for k, v in tracer.layer_metrics(records).items()})
        if compiled_env is None:
            metrics.update({"compiled." + k: 0 for k, _, _ in tracer.LAYER_METRICS})
        metrics["compiled.available"] = int(compiled_env is not None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(lanes) * len(WORKLOADS[name])
    return attempted, len(detail["failures"]), metrics, detail


# -- output ----------------------------------------------------------------------------------


def unit_of(metric):
    if metric == "compiled.available":
        return "count"
    return dict(END_TO_END).get(metric) or LAYER_UNITS[metric.removeprefix("compiled.")]


def append_record(record):
    RESULTS_DIR.mkdir(exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%d")
    path = RESULTS_DIR / f"BENCH_{stamp}_{record['env']['git_sha'][:12]}.jsonl"
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    check_checkout()

    env = environment()
    if args.trace:
        attempted, failed, metrics, detail = traced(args.workload, args.seed)
    else:
        attempted, failed, metrics, detail = end_to_end(args.workload, args.seed, args.seconds)
        env["lane"] = detail["lane"]
    env["loadavg_end"] = loadavg()

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env))
    for key, value in metrics.items():
        print(f"  {key:52} {value:>16.6g} {unit_of(key)}")
    print(f"  {'fail_ratio':52} {failed / attempted:>16.6g} ratio  ({failed} of {attempted} failed)")
    failures = detail.get("failures") or [f for p in detail.get("passes", ()) for f in p["failures"]]
    for failure in failures:
        print(f"  FAILED {failure['invocation']}: {failure['reason']}")
    for label, records in detail.get("lanes", {}).items():
        for rec in records:
            if rec["missing"] or rec["probe_errors"]:
                print(f"  WARNING {label} lane, {' '.join(rec['argv'])}: traced names missing "
                      f"{rec['missing']}, probe errors {rec['probe_errors']}")
    path = append_record({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                          "trace": args.trace, "env": env, "attempted": attempted,
                          "failed": failed, "metrics": metrics, **detail})
    print(f"record appended to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
