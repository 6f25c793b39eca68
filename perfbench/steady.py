#!/usr/bin/env python3
"""Steadiness check: rerun every workload and compare spreads with bounds.

Usage, from the root of a checkout:

    python3 perfbench/steady.py [--runs 10] [--sets 1]

Each set runs ``perfbench/run.py`` once per workload of BENCHMARK.json and
seed (seeds 1 .. runs, workloads interleaved so machine drift hits all of
them alike) with the ``run_seconds`` of BENCHMARK.json.  For every
end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, i.e. the
interquartile range as a share of the median, next to the metric's bound:

* ``steady``  spread below a third of the bound;
* ``within``  spread within the bound;
* ``WIDE``    spread above the bound.

With ``--sets 2`` the two sets' medians must also agree: the second may
differ from the first, in either direction, by at most the bound (``DRIFT``
otherwise).  Exit code 1 if any metric is WIDE or DRIFT, or any run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode not in (0, 1):  # 1: ran, but some solve was wrong
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def drift(first: float, second: float) -> float:
    """How far second is from first, either way, as a share of first."""
    return abs(second - first) / first


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="seeds per set; 1 just runs each workload once")
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = ap.parse_args(argv)
    metrics = spec["end_to_end"]

    # values[set][workload][metric] -> list of run values
    values: list[dict[str, dict[str, list[float]]]] = []
    bad = False
    for set_no in range(args.sets):
        got: dict[str, dict[str, list[float]]] = {w: {m["name"]: [] for m in metrics} for w in workloads}
        for seed in range(1, args.runs + 1):
            for w in workloads:
                res = run_once(w, seed, spec["run_seconds"])
                bad |= not res["correct"]
                for m in metrics:
                    got[w][m["name"]].append(res["metrics"][m["name"]]["value"])
                print(f"set {set_no + 1} {w} seed {seed}: " + ", ".join(
                    f"{k} {v['value']:.4g} {v['unit']}" for k, v in res["metrics"].items())
                    + f", fail_frac {res['failed'] / res['attempted']:.4g}", flush=True)
        values.append(got)

    print(f"\n{'workload':<18} {'metric':<13} {'set':>3} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds = []
            for set_no, got in enumerate(values):
                if len(got[w][name]) < 2:
                    continue  # one run has no spread
                med, q1, q3, sp = spread(got[w][name])
                meds.append(med)
                if sp < bound / 3:
                    verdict = "steady"
                elif sp <= bound:
                    verdict = "within"
                else:
                    verdict, bad = "WIDE", True
                print(f"{w:<18} {name:<13} {set_no + 1:>3} {med:>10.4g} {q1:>10.4g} "
                      f"{q3:>10.4g} {sp:>7.3f} {bound:>6.2f}  {verdict}")
            if len(meds) == 2:
                dr = drift(meds[0], meds[1])
                verdict = "ok" if dr <= bound else "DRIFT"
                bad |= verdict == "DRIFT"
                print(f"{w:<18} {name:<13} {'2v1':>3} {'':>10} {'':>10} {'':>10} "
                      f"{dr:>7.3f} {bound:>6.2f}  {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
