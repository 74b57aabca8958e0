#!/usr/bin/env python3
"""Regenerate perfbench/reference_digests.json from the current code.

    python3 perfbench/reference.py [--seeds 1-10]

For every workload and seed it makes one checked round and stores each
run's trace hash, final-server-parameter SHA-256 and timeseries.csv SHA-256.
The benchmark compares its own digests with this file and reports
match / mismatch / absent; a mismatch does not fail the benchmark, so a
change that deliberately alters the method only has to regenerate it.
"""

from __future__ import annotations

import argparse
import json
import sys

import run as bench  # pins BLAS threads and imports spykersim from this checkout
from workloads import WORKLOADS


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = p.parse_args(argv)
    table: dict = {}
    failures = []
    for name in sorted(WORKLOADS):
        for seed in parse_seeds(args.seeds):
            b = bench.Bench(name, seed)
            b.checked_round()
            failures += b.errors
            table.setdefault(name, {})[str(seed)] = b.reference
            print(f"{name} seed {seed}: {len(b.reference)} runs", flush=True)
    payload = {"blas_threads": bench.BLAS_THREADS, "digests": table}
    bench.REFERENCE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    for e in failures:
        print(f"CHECK FAILED: {e}")
    print(f"-> {bench.REFERENCE}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
