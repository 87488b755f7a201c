#!/usr/bin/env python3
"""Per-field degree-2 check through the public library API.

For each quadratic extension K of F_3(T) with deg D <= 4 and each height
m in {1, 2}, the number of P^1(K) points of height m is counted twice: by
`counting.brute_count_p1_over_field` (minimal polynomials, one
`kernels.quad_tables` build per target field) and by
`counting.moebius_point_count` over the field's class model.  The seed
picks which fields are checked: half of them at each height, so every
seed does the same amount of work.  Without --seed every field is checked
(that is how the recorded table is made).

Prints one tab-separated row per (field, m): label, m, brute, Moebius.

Usage:  PYTHONPATH=src python3 perfbench/fieldcheck.py [--seed N]
"""

import argparse
import random
import sys

from ffcount import counting, quadratic

Q, DEGD_MAX, HEIGHTS = 3, 4, (1, 2)


def run(seed=None, out=None):
    out = out or sys.stdout
    fields = quadratic.enumerate_quadratic_fields(Q, DEGD_MAX)
    rng = random.Random(seed)
    for m in HEIGHTS:
        picked = range(len(fields))
        if seed is not None:
            picked = sorted(rng.sample(picked, len(fields) // 2))
        for i in picked:
            field = fields[i]
            brute = counting.brute_count_p1_over_field(field, m)
            moebius = counting.moebius_point_count(field.descriptor, 2, m).N
            out.write(f"{field.label()}\t{m}\t{brute}\t{moebius}\n")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=None)
    return run(ap.parse_args(argv).seed)


if __name__ == "__main__":
    sys.exit(main())
