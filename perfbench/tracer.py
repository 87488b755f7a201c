#!/usr/bin/env python3
"""In-memory span tracer, and the traced child process that uses it.

The tracer wraps layer functions of the ffcount package from outside: every
module binding of a listed function object is replaced, so names imported
elsewhere (`counting.enumerate_quadratic_fields`,
`counting.schanuel_constant`, ...) are traced too.  Each call of a
SPANNED function records a span (id, parent id, name, start, end) in a
list; COUNTED functions are too hot for a span each and only count calls.
Probes read work counts at the same boundaries (tables built, gcd pairs,
triples, fields, bytes emitted).  Spans stay in memory until the child
ends, then become one JSON record.

A layer's self time is its spans' duration minus the part of each span
that its child spans cover.  Coverage is the share of the traced call's
wall time that top-level spans cover.  Overhead is estimated from the
measured cost of an empty traced call, times the number of calls, plus
the measured time of the probes.

Usage (the benchmark starts it; PYTHONPATH selects the lane's source tree):
    python3 perfbench/tracer.py --record OUT.json [--seed N] -- <ffcount argv | fieldcheck>
"""

import argparse
import collections
import functools
import importlib
import inspect
import io
import json
import sys
import time

SPANNED = (
    "kernels.vector_tables",
    "kernels.count_coprime_lead",
    "kernels.quad_tables",
    "kernels.count_quadratic_triples",
    "counting.brute_count_rational",
    "counting.brute_count_p1_over_field",
    "counting.count_fixed_degree_points",
    "counting.moebius_point_count",
    "counting.count_degree2_points_by_fields",
    "counting.schanuel_sum_quadratic",
    "forms.brute_force_forms",
    "quadratic.enumerate_quadratic_fields",
    "quadratic.curve_point_counts",
    "poly.squarefree_part",
    "zeta.schanuel_constant",
    "zeta.hasse_weil_check",
    "riemann_roch.build_class_model",
    "cli.emit",
)
COUNTED = ("poly.gcd",)

MIB = float(1 << 20)

# Per-layer metrics of one lane: (name, unit, better).  `<layer>.self_s` and
# `<layer>.calls` come from the spans and call counters; every other name
# is a probe counter.
LAYER_METRICS = (
    ("kernels.vector_tables.self_s", "s", "lower"),
    ("kernels.vector_tables.builds", "count", "lower"),
    ("kernels.vector_tables.gcd_pairs", "count", "lower"),
    ("kernels.vector_tables.table_mb", "MiB", "lower"),
    ("poly.gcd.calls", "count", "lower"),
    ("kernels.count_coprime_lead.self_s", "s", "lower"),
    ("kernels.count_coprime_lead.calls", "count", "lower"),
    ("kernels.count_coprime_lead.nogcdtab_calls", "count", "lower"),
    ("counting.brute_count_rational.self_s", "s", "lower"),
    ("kernels.quad_tables.self_s", "s", "lower"),
    ("kernels.quad_tables.builds", "count", "lower"),
    ("kernels.quad_tables.classified_codes", "count", "lower"),
    ("kernels.quad_tables.cache_entries", "count", "lower"),
    ("kernels.count_quadratic_triples.self_s", "s", "lower"),
    ("kernels.count_quadratic_triples.calls", "count", "lower"),
    ("kernels.count_quadratic_triples.triples", "count", "lower"),
    ("counting.brute_count_p1_over_field.self_s", "s", "lower"),
    ("counting.count_fixed_degree_points.self_s", "s", "lower"),
    ("forms.brute_force_forms.self_s", "s", "lower"),
    ("quadratic.enumerate_quadratic_fields.self_s", "s", "lower"),
    ("quadratic.enumerate_quadratic_fields.fields", "count", "higher"),
    ("quadratic.enumerate_quadratic_fields.candidates", "count", "lower"),
    ("quadratic.enumerate_quadratic_fields.keep_ratio", "ratio", "higher"),
    ("quadratic.curve_point_counts.self_s", "s", "lower"),
    ("quadratic.curve_point_counts.calls", "count", "lower"),
    ("poly.squarefree_part.self_s", "s", "lower"),
    ("poly.squarefree_part.calls", "count", "lower"),
    ("counting.moebius_point_count.self_s", "s", "lower"),
    ("counting.moebius_point_count.calls", "count", "lower"),
    ("zeta.schanuel_constant.self_s", "s", "lower"),
    ("zeta.schanuel_constant.calls", "count", "lower"),
    ("riemann_roch.build_class_model.calls", "count", "lower"),
    ("cli.emit.self_s", "s", "lower"),
    ("cli.emit.bytes", "bytes", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
)


# -- span arithmetic ---------------------------------------------------------------


def covered_length(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """{name: seconds} summed over spans: each span's duration minus the part
    of it covered by its child spans.  A span is (id, parent id or None,
    name, start, end)."""
    children = collections.defaultdict(list)
    for _, parent, _, t0, t1 in spans:
        children[parent].append((t0, t1))
    out = collections.Counter()
    for sid, _, name, t0, t1 in spans:
        out[name] += (t1 - t0) - covered_length(children.get(sid, ()), t0, t1)
    return dict(out)


def root_coverage(spans, lo, hi):
    """Seconds of [lo, hi] covered by spans that have no parent span."""
    return covered_length([(t0, t1) for _, parent, _, t0, t1 in spans if parent is None], lo, hi)


# -- probes: work counts read at the traced boundaries ---------------------------------


def _misses(tracer, fn):
    return fn.cache_info().misses


def _vector_tables(tracer, fn, args, result, misses):
    if fn.cache_info().misses == misses:
        return
    ncodes, _, gcdtab, _ = result
    tracer.counts["kernels.vector_tables.builds"] += 1
    if gcdtab is not None:
        # every unordered pair of codes except (0, 0) has a gcd entry
        tracer.counts["kernels.vector_tables.gcd_pairs"] += ncodes * (ncodes + 1) // 2 - 1
        tracer.counts["kernels.vector_tables.table_mb"] += len(gcdtab) * gcdtab.itemsize / MIB


def _count_coprime_lead(tracer, fn, args, result, state):
    if tracer.originals["kernels.vector_tables"](args["q"], args["m"])[2] is None:
        tracer.counts["kernels.count_coprime_lead.nogcdtab_calls"] += 1


def _quad_tables(tracer, fn, args, result, misses):
    if fn.cache_info().misses > misses:
        tracer.counts["kernels.quad_tables.builds"] += 1
        tracer.counts["kernels.quad_tables.classified_codes"] += len(result[6]) - 1


def _count_quadratic_triples(tracer, fn, args, result, state):
    tables = tracer.originals["kernels.quad_tables"](args["q"], args["m"], args["target"])
    ncodes, monic_codes = tables[0], tables[3]
    tracer.counts["kernels.count_quadratic_triples.triples"] += len(monic_codes) * ncodes * ncodes


def _enumerate_fields(tracer, fn, args, result, misses):
    if fn.cache_info().misses > misses:
        q, degD_max = args["q"], args["degD_max"]
        tracer.counts["quadratic.enumerate_quadratic_fields.fields"] += len(result)
        # candidates: every monic D of degree 1..degD_max
        tracer.counts["quadratic.enumerate_quadratic_fields.candidates"] += sum(
            q**d for d in range(1, degD_max + 1))


def _stdout_position(tracer, fn):
    return tracer.stdout.tell()


def _emit(tracer, fn, args, result, position):
    written = tracer.stdout.getvalue()[position:]
    tracer.counts["cli.emit.bytes"] += len(written.encode("utf-8"))


# name -> (before(tracer, fn) -> state, after(tracer, fn, arguments, result, state))
PROBES = {
    "kernels.vector_tables": (_misses, _vector_tables),
    "kernels.count_coprime_lead": (None, _count_coprime_lead),
    "kernels.quad_tables": (_misses, _quad_tables),
    "kernels.count_quadratic_triples": (None, _count_quadratic_triples),
    "quadratic.enumerate_quadratic_fields": (_misses, _enumerate_fields),
    "cli.emit": (_stdout_position, _emit),
}


# -- the tracer ----------------------------------------------------------------------


class Tracer:
    def __init__(self, clock=time.perf_counter, stdout=None):
        self.clock = clock
        self.stdout = stdout
        self.spans = []
        self.stack = [None]
        self.calls = collections.Counter()
        self.counts = collections.Counter()
        self.originals = {}
        self.missing = []
        self.probe_s = 0.0
        self.probe_errors = collections.Counter()

    def install(self, package="ffcount"):
        """Wrap every binding of the SPANNED and COUNTED functions in the
        already imported modules of `package`."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for qualname in SPANNED + COUNTED:
            module_name, attr = qualname.split(".")
            try:
                fn = getattr(importlib.import_module(f"{package}.{module_name}"), attr)
            except (ImportError, AttributeError):
                self.missing.append(qualname)
                continue
            self.originals[qualname] = fn
            wrapper = self.span(qualname, fn) if qualname in SPANNED else self.count(qualname, fn)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, name, wrapper)

    def span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, self.clock
        before, after = PROBES.get(name, (None, None))
        signature = inspect.signature(fn) if after else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            state = before(self, fn) if before else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, t0, t1)
            if after:
                self._probe(name, after, fn, signature, args, kwargs, result, state)
            return result

        return traced

    def count(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _probe(self, name, after, fn, signature, args, kwargs, result, state):
        t0 = self.clock()
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            after(self, fn, bound.arguments, result, state)
        except Exception as exc:  # a probe must never fail the traced run
            self.probe_errors[f"{name}: {type(exc).__name__}: {exc}"] += 1
        self.probe_s += self.clock() - t0

    def calibrate(self, n=20000):
        """(seconds per span, seconds per counted call) that the wrappers add
        to an empty function, measured here."""
        def noop():
            return None

        scratch = Tracer(self.clock)
        clock = self.clock

        def per_call(f):
            t0 = clock()
            for _ in range(n):
                f()
            return (clock() - t0) / n

        base = per_call(noop)
        return (max(per_call(scratch.span("calibration", noop)) - base, 0.0),
                max(per_call(scratch.count("calibration", noop)) - base, 0.0))

    def record(self, wall_lo, wall_hi):
        """The JSON-ready record of one traced call over [wall_lo, wall_hi]."""
        spans = [s for s in self.spans if s is not None]
        selfs = self_times(spans)
        span_calls = collections.Counter(name for _, _, name, _, _ in spans)
        per_span, per_count = self.calibrate()
        quad = self.originals.get("kernels.quad_tables")
        counts = dict(self.counts)
        if quad is not None:
            counts["kernels.quad_tables.cache_entries"] = quad.cache_info().currsize
        return {
            "wall_s": wall_hi - wall_lo,
            "covered_s": root_coverage(spans, wall_lo, wall_hi),
            "self_s": selfs,
            "calls": {**span_calls, **self.calls},
            "counts": counts,
            "spans": len(spans),
            "overhead_s": len(spans) * per_span + sum(self.calls.values()) * per_count
            + self.probe_s,
            "missing": self.missing,
            "probe_errors": dict(self.probe_errors),
        }


# -- aggregation of child records into per-layer metrics ---------------------------------


def layer_metrics(records):
    """Per-layer metric values of one lane, summed over its traced calls
    (cache_entries: the largest cache seen at the end of a call)."""
    selfs, calls, counts = collections.Counter(), collections.Counter(), collections.Counter()
    cache_entries = wall = covered = overhead = 0.0
    for rec in records:
        selfs.update(rec["self_s"])
        calls.update(rec["calls"])
        counts.update({k: v for k, v in rec["counts"].items() if not k.endswith(".cache_entries")})
        cache_entries = max(cache_entries, rec["counts"].get("kernels.quad_tables.cache_entries", 0))
        wall += rec["wall_s"]
        covered += rec["covered_s"]
        overhead += rec["overhead_s"]
    out = {}
    for name, _, _ in LAYER_METRICS:
        layer, _, what = name.rpartition(".")
        if what == "self_s":
            out[name] = selfs.get(layer, 0.0)
        elif what == "calls":
            out[name] = calls.get(layer, 0)
        else:
            out[name] = counts.get(name, 0)
    fields = out["quadratic.enumerate_quadratic_fields.fields"]
    candidates = out["quadratic.enumerate_quadratic_fields.candidates"]
    # two fields (twists u = 1, eps) per kept squarefree D
    out["quadratic.enumerate_quadratic_fields.keep_ratio"] = (
        fields / (2 * candidates) if candidates else 0.0)
    out["kernels.quad_tables.cache_entries"] = cache_entries
    out["trace.coverage"] = covered / wall if wall else 0.0
    out["trace.overhead_s"] = overhead
    return out


# -- the traced child --------------------------------------------------------------------


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        sys.exit(__doc__)
    split = argv.index("--")
    ap = argparse.ArgumentParser(usage=__doc__.strip().splitlines()[-1].strip())
    ap.add_argument("--record", required=True)
    ap.add_argument("--seed", type=int, default=None)
    opts, target = ap.parse_args(argv[:split]), argv[split + 1:]

    import ffcount.cli
    from ffcount import kernels

    buffer = io.StringIO()
    tracer = Tracer(stdout=buffer)
    tracer.install()
    real_stdout, sys.stdout = sys.stdout, buffer
    t0 = tracer.clock()
    try:
        if target == ["fieldcheck"]:
            import fieldcheck

            rc = fieldcheck.run(opts.seed, out=buffer)
        else:
            rc = ffcount.cli.main(target)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        t1 = tracer.clock()
        sys.stdout = real_stdout
    sys.stdout.buffer.write(buffer.getvalue().encode("utf-8"))
    sys.stdout.flush()
    record = tracer.record(t0, t1)
    record["using_compiled"] = bool(kernels.USING_COMPILED)
    record["argv"] = target
    with open(opts.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
