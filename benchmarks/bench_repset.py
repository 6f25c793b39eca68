#!/usr/bin/env python3
"""Benchmark the GF(2) reduction kernel alone.

The kernel is the inner loop of the representative-set reduction, which
runs on every family above the representative-set bound.  Rows are
cut-matrix bitsets with 2^(m-1) columns; the benchmark reduces random
full-ish partition families for growing ground sets.

Usage: python benchmarks/bench_repset.py [--max-m 14] [--rows 400] [--reps 3]
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

# the checkout's own sources first, so the script runs from any directory
# without PYTHONPATH
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from blockvd.partitions import Partition  # noqa: E402
from blockvd.repset import cut_row, gf2_independent_rows  # noqa: E402


def random_partition(rng: random.Random, m: int) -> Partition:
    labels = [0] * m
    nxt = 1
    for i in range(1, m):
        pick = rng.randint(0, nxt)
        labels[i] = pick
        if pick == nxt:
            nxt += 1
    groups: dict[int, list[int]] = {}
    for e, g in enumerate(labels):
        groups.setdefault(g, []).append(e)
    return Partition.from_parts(m, groups.values())


def bench(kernel, rows: list[int], nbits: int, reps: int) -> tuple[float, int]:
    best = float("inf")
    kept = 0
    for _ in range(reps):
        t0 = time.perf_counter()
        out = kernel(rows, nbits)
        best = min(best, time.perf_counter() - t0)
        kept = len(out)
    return best, kept


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-m", type=int, default=14)
    ap.add_argument("--rows", type=int, default=400)
    ap.add_argument("--reps", type=int, default=3)
    args = ap.parse_args()

    rng = random.Random(0)
    print(f"{'m':>3} {'cols':>6} {'rows':>5} {'kept':>5} {'time (ms)':>10}")
    for m in range(6, args.max_m + 1):
        nbits = 1 << (m - 1)
        rows = [cut_row(random_partition(rng, m)) for _ in range(args.rows)]
        secs, kept = bench(gf2_independent_rows, rows, nbits, args.reps)
        print(f"{m:>3} {nbits:>6} {len(rows):>5} {kept:>5} {secs * 1e3:>10.2f}")


if __name__ == "__main__":
    main()
