#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the blockvd solvers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload block-sparse --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a traced run.  Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record (run context, one row per
instance, and with tracing every span) goes to
``perfbench/results/<workload>-seed<seed>-trace<0|1>.json``.

The exit code is 0 when every solve was right, 1 when any solve failed
the correctness gate, and 2 when the run could not start (for example
when ``src/blockvd`` is missing from the checkout).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_solver() -> str | None:
    """Put the checkout's own sources first; an error message if absent."""
    if not (SRC / "blockvd" / "__init__.py").is_file():
        return f"error: no solver sources at {SRC}; run from a full checkout"
    sys.path.insert(0, str(SRC))
    import blockvd

    if not Path(blockvd.__file__).resolve().is_relative_to(SRC.resolve()):
        return f"error: blockvd imported from {blockvd.__file__}, not {SRC}"
    return None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--setup-only",
        action="store_true",
        help="import the solver, build the suite and exit (a set-up probe)",
    )
    args = ap.parse_args(argv)

    error = _import_solver()
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    import bench
    from workloads import WORKLOADS, make_suite

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        make_suite(WORKLOADS[args.workload], args.seed)
        return 0

    report = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    out = HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    bench.write_report(report, out)

    print("context " + json.dumps(report.context, sort_keys=True))
    print(f"{'instance':<26} {'family':<8} {'n':>3} {'m':>3} {'tw':>2} {'heur':>4} {'k':>2} "
          f"{'decision':>8} {'min':>4} {'states':>7} {'solves':>6} {'solve_s':>8}")
    for row in report.instances:
        print(f"{row['label']:<26} {row['family']:<8} {row['n']:>3} {row['m']:>3} "
              f"{row['td_width']:>2} {row['heuristic_width']:>4} {row['k']:>2} {str(row['decision']):>8} "
              f"{str(row['oracle_min']):>4} {str(row['states']):>7} {row['solves']:>6} "
              f"{row['solve_s']:>8.4f}")
        for failure in row["failures"]:
            print(f"  FAILED: {failure}")
    for note in report.notes:
        print(note)
    for name, (value, unit) in report.metrics.items():
        print(f"{name} {value:.6g} {unit}")
    fail_frac = report.failed / report.attempted
    print(f"fail_frac {fail_frac:.6g} ratio ({report.failed} of {report.attempted} solves)")
    print(f"record written to {out.relative_to(HERE.parent)}")
    print(json.dumps({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.metrics.items()},
    }))
    return 0 if report.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
