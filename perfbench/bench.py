"""Measurement loop, correctness gate and metrics of the solver benchmark.

One run solves one workload's suite through the public calls
``dp_block.solve_block`` / ``dp_component.solve_component``, in a single
thread, until the requested seconds are used up and every instance ran
at least twice; an instance's time is the best of its repeats.
Correctness is checked outside the timed region:
every decision against ``oracle.brute_force_solve``, every witness with
``oracle.verify_solution``, and every repeat of an instance against its
first solve.

Wall time on a shared machine drifts by tens of percent within seconds.
Each solve is therefore bracketed by a fixed pure-Python reference loop,
and its time is scaled to the reference loop's nominal speed::

    norm_s = raw_s * REF_S / (mean of the reference times around the solve)

Set-up runs in fresh processes, whose start-up cost moves differently
from a loop in a warm process, so each set-up probe is bracketed instead
by a fresh interpreter running the reference loop five times longer
(``REF_PROCESS_S`` at nominal speed).  All reported times are these
normalised seconds; the raw seconds are printed next to them.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import blockvd
from blockvd import dp_block, dp_component
from blockvd.decomposition import heuristic_td
from blockvd.errors import TooLarge
from blockvd.oracle import brute_force_solve, verify_solution

from tracing import Tracer
from workloads import SUITE_SEED, WORKLOADS, Case, Workload, make_suite

HERE = Path(__file__).resolve().parent

# Reference loop: REF_ITERS iterations take REF_S seconds at nominal speed
# (median on a 2-core x86-64 container, CPython 3.11, at definition time).
REF_ITERS = 40_000
REF_S = 0.0100
# The same loop, five times longer, in a fresh interpreter: REF_PROCESS_S
# seconds from process start to exit at nominal speed.
REF_PROCESS = [sys.executable, "-c", (
    "d = {}\n"
    f"for i in range({5 * REF_ITERS}):\n"
    "    key = (i & 255, i >> 5)\n"
    "    d[key] = d.get(key, 0) + 1\n")]
REF_PROCESS_S = 0.19

SETUP_PROBES = 9
# every instance is timed at least this often, a whole pass apart
MIN_PASSES = 2


def reference_loop() -> float:
    """Seconds one fixed dict/tuple workload takes right now."""
    t0 = time.perf_counter()
    d: dict[tuple[int, int], int] = {}
    for i in range(REF_ITERS):
        key = (i & 255, i >> 5)
        d[key] = d.get(key, 0) + 1
    return time.perf_counter() - t0


def _solver(mode: str):
    # looked up at call time, so the tracer's wrappers are seen
    return dp_block.solve_block if mode == "block" else dp_component.solve_component


@dataclass
class Solve:
    case: int
    raw_s: float
    norm_s: float
    decision: bool | None = None
    witness: frozenset[int] | None = None
    states: int | None = None
    retained: int | None = None
    error: str | None = None
    failure: str | None = None


def solve_case(wl: Workload, case: Case, index: int, ref_before: float,
               tracer: Tracer | None = None) -> tuple[Solve, float]:
    """Solve once; returns the record and the reference time measured after."""
    solve = _solver(wl.mode)
    gc.collect()
    out = Solve(index, 0.0, 0.0)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            res = solve(case.inst, witness=wl.witness)
        else:
            with tracer.span("solve", case=case.label):
                res = solve(case.inst, witness=wl.witness)
    except Exception as exc:
        # TooLarge, CapExceeded and a witness AssertionError are the
        # expected ones; any error is a failed solve, not a failed run
        out.error = f"{type(exc).__name__}: {exc}"
    else:
        out.decision = res.decision
        out.witness = res.witness
        out.states = res.stats["states"]
        out.retained = res.stats["retained"]
    out.raw_s = time.perf_counter() - t0
    ref_after = reference_loop()
    out.norm_s = out.raw_s * REF_S / ((ref_before + ref_after) / 2)
    return out, ref_after


def timed_loop(wl: Workload, cases: list[Case], seconds: float, passes: int,
               tracer: Tracer | None = None) -> list[Solve]:
    """Cycle through the cases until seconds are used and passes are done."""
    ref = reference_loop()
    out: list[Solve] = []
    start = time.perf_counter()
    i = 0
    while i < passes * len(cases) or time.perf_counter() - start < seconds:
        s, ref = solve_case(wl, cases[i % len(cases)], i % len(cases), ref, tracer)
        out.append(s)
        i += 1
    return out


# ----------------------------------------------------------------------
# correctness gate


@dataclass
class Verdict:
    oracle_min: int | None = None
    oracle_error: str | None = None
    oracle_s: float = 0.0


def oracle_verdicts(cases: list[Case]) -> list[Verdict]:
    out = []
    for case in cases:
        v = Verdict()
        t0 = time.perf_counter()
        try:
            v.oracle_min = brute_force_solve(case.inst)
        except TooLarge as exc:
            v.oracle_error = f"TooLarge: {exc}"
        v.oracle_s = time.perf_counter() - t0
        out.append(v)
    return out


def check_solves(wl: Workload, cases: list[Case], solves: list[Solve],
                 verdicts: list[Verdict]) -> None:
    """Set ``failure`` on every solve that is not provably right."""
    first: dict[int, Solve] = {}
    for s in solves:
        inst = cases[s.case].inst
        v = verdicts[s.case]
        ref = first.setdefault(s.case, s)
        if s.error is not None:
            s.failure = s.error
        elif v.oracle_error is not None:
            s.failure = f"oracle: {v.oracle_error}"
        elif s.decision != (v.oracle_min is not None):
            s.failure = f"decision {s.decision}, oracle minimum {v.oracle_min}"
        elif (s.states, s.retained, s.decision) != (ref.states, ref.retained, ref.decision):
            s.failure = "repeat solve differs from the first"
        elif wl.witness and s.decision:
            w = s.witness
            if not isinstance(w, frozenset):
                s.failure = f"witness is {type(w).__name__}, not a frozenset"
            elif len(w) > inst.k:
                s.failure = f"witness of size {len(w)} exceeds k={inst.k}"
            elif not verify_solution(inst.graph, w, inst.d, inst.family, inst.mode):
                s.failure = "witness fails verification"


# ----------------------------------------------------------------------
# statistics


def tail(values: list[float]) -> tuple[float, int]:
    """(value, p) at the highest percentile p with >= 10 values beyond it.

    Percentiles use the nearest-rank rule on the sorted values.
    """
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return xs[rank - 1], p
    raise ValueError(f"{n} values leave no percentile with ten beyond it")


def per_case_best(solves: list[Solve], ncases: int, key: str = "norm_s") -> list[float]:
    """Each case's fastest time over its repeats.

    Interference from other work on the machine only ever slows a solve,
    and slow phases last seconds, so the best of repeats taken a pass
    apart is the steadiest estimate of the solver's own time.
    """
    best = [math.inf] * ncases
    for s in solves:
        best[s.case] = min(best[s.case], getattr(s, key))
    return best


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median (normalised, raw) seconds of fresh processes doing set-up.

    Each probe is a new interpreter that imports the solver and builds
    the suite, i.e. everything a run does before its first timed solve.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    norm, raw = [], []
    ref = process_seconds(REF_PROCESS)
    for _ in range(SETUP_PROBES):
        dt = process_seconds(cmd)
        ref_after = process_seconds(REF_PROCESS)
        raw.append(dt)
        norm.append(dt * REF_PROCESS_S / ((ref + ref_after) / 2))
        ref = ref_after
    return statistics.median(norm), statistics.median(raw)


def process_seconds(cmd: list[str]) -> float:
    """Wall seconds from starting cmd to its exit."""
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def e2e_metrics(solves: list[Solve], ncases: int,
                setup_s: float) -> tuple[dict[str, tuple[float, str]], int]:
    """End-to-end metrics by name, with units, and the tail's percentile.

    The samples are the instances' normalised solve times, each the best
    of its repeats: suite_s is their sum, solve_s.p50 their median and
    solve_s.tail the highest percentile with ten instances beyond it.
    """
    best = per_case_best(solves, ncases)
    tail_s, p = tail(best)
    return {
        "suite_s": (sum(best), "s"),
        "solve_s.p50": (statistics.median(best), "s"),
        "solve_s.tail": (tail_s, "s"),
        "setup_s": (setup_s, "s"),
    }, p


# ----------------------------------------------------------------------
# per-layer metrics from a tracer


def _self_of(tracer: Tracer, name: str, kind: str | None = None) -> float:
    return sum(
        s["self_s"] for s in tracer.spans
        if s["name"] == name and (kind is None or s["attrs"].get("kind") == kind)
    )


def layer_metrics(tracer: Tracer, passes: int, scale: float) -> dict[str, float]:
    """Per-suite-pass layer numbers; times are scaled to normalised seconds."""
    acc, cnt = tracer.acc, tracer.counts

    def total(name: str) -> float:
        return acc[name][0] * scale / passes

    def own(name: str) -> float:
        return acc[name][1] * scale / passes

    def calls(name: str) -> float:
        return acc[name][2] / passes

    def c(name: str) -> float:
        return cnt.get(name, 0) / passes

    canon_calls = calls("dpcore.canon")
    rows_in = c("repset.rows_in")
    pairs = c("dpcore.join_pairs")
    return {
        "decomposition.heuristic_td_s": total("decomposition.heuristic_td"),
        "decomposition.to_nice_s": total("decomposition.to_nice"),
        "decomposition.width_max": cnt.get("decomposition.width_max", 0),
        "decomposition.join_nodes": c("decomposition.join_nodes"),
        "families.enumerate_s": total("families.enumerate"),
        "families.patterns": c("families.patterns"),
        "dpcore.build_s": _self_of(tracer, "build") * scale / passes,
        "dpcore.introduce_s": _self_of(tracer, "node", "introduce") * scale / passes,
        "dpcore.forget_s": _self_of(tracer, "node", "forget") * scale / passes,
        "dpcore.join_s": _self_of(tracer, "node", "join") * scale / passes,
        "dpcore.canon_s": own("dpcore.canon"),
        "dpcore.reduce_table_s": own("dpcore.reduce_table"),
        "dpcore.canon_calls": canon_calls,
        "dpcore.canon_hit_ratio": (
            1 - c("dpcore.canon_misses") / canon_calls if canon_calls else 0.0
        ),
        "dpcore.states": c("dpcore.states"),
        "dpcore.retained": c("dpcore.retained"),
        "dpcore.peak_table_states": cnt.get("dpcore.peak_table_states", 0),
        "dpcore.join_pairs": pairs,
        "dpcore.join_pair_yield": c("dpcore.join_pairs_forest") / pairs if pairs else 0.0,
        "partitions.uplus_s": total("partitions.uplus"),
        "partitions.inc_is_forest_s": total("partitions.inc_is_forest"),
        "partitions.one_coarsenings_s": total("partitions.one_coarsenings"),
        "partitions.from_parts_calls": c("partitions.from_parts_calls"),
        "repset.rep_partitions_s": own("repset.rep_partitions"),
        "repset.cut_row_s": total("repset.cut_row"),
        "repset.calls": calls("repset.rep_partitions"),
        "repset.rows_in": rows_in,
        "repset.rows_out": c("repset.rows_out"),
        "repset.coarsenings": c("repset.coarsenings"),
        "repset.keep_ratio": c("repset.rows_out") / rows_in if rows_in else 1.0,
        "gf2.independent_rows_s": total("gf2.independent_rows"),
        "gf2.rows": c("gf2.rows"),
        "gf2.bytes_computed": c("gf2.bytes_computed"),
        "oracle.verify_s": total("oracle.verify"),
    }


def layer_shares(m: dict[str, float], pass_s: float) -> dict[str, float]:
    """Share of a traced pass's time per layer, callees folded in."""
    groups = {
        "decomposition": m["decomposition.heuristic_td_s"] + m["decomposition.to_nice_s"],
        "families": m["families.enumerate_s"],
        "dpcore.build": m["dpcore.build_s"],
        "dpcore.introduce": m["dpcore.introduce_s"],
        "dpcore.forget": m["dpcore.forget_s"],
        "dpcore.join + uplus/inc_is_forest": (
            m["dpcore.join_s"] + m["partitions.uplus_s"] + m["partitions.inc_is_forest_s"]
        ),
        "dpcore.canon": m["dpcore.canon_s"],
        "repset.rep_partitions + children": (
            m["repset.rep_partitions_s"] + m["repset.cut_row_s"]
            + m["partitions.one_coarsenings_s"] + m["gf2.independent_rows_s"]
        ),
        "dpcore.reduce_table (self)": m["dpcore.reduce_table_s"],
        "oracle.verify": m["oracle.verify_s"],
    }
    return {k: v / pass_s for k, v in groups.items()}


# ----------------------------------------------------------------------
# one run


@dataclass
class Report:
    context: dict[str, Any]
    instances: list[dict[str, Any]]
    metrics: dict[str, tuple[float, str]]
    notes: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    spans: list[dict[str, Any]] | None = None


def run_context(wl: Workload, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    return {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "kernel_backend": blockvd.KERNEL_BACKEND,
        "blockvd_version": blockvd.__version__,
        "mode": wl.mode,
        "families": list(wl.families),
        "d": wl.d,
        "k": wl.k,
        "witness": wl.witness,
        "graphs": wl.graphs,
        "suite_seed": SUITE_SEED,
        "ref_iters": REF_ITERS,
        "ref_s_nominal": REF_S,
        "ref_process_s_nominal": REF_PROCESS_S,
    }


def instance_rows(cases: list[Case], solves: list[Solve], verdicts: list[Verdict]) -> list[dict[str, Any]]:
    rows = []
    raw = per_case_best(solves, len(cases), "raw_s")
    norm = per_case_best(solves, len(cases), "norm_s")
    for i, case in enumerate(cases):
        inst = case.inst
        mine = [s for s in solves if s.case == i]
        s0 = mine[0]
        rows.append({
            "label": case.label,
            "family": inst.family,
            "n": inst.graph.n,
            "m": inst.graph.m,
            "td_width": inst.td.width,
            "heuristic_width": heuristic_td(inst.graph).width,
            "k": inst.k,
            "decision": s0.decision,
            "oracle_min": verdicts[i].oracle_min,
            "states": s0.states,
            "retained": s0.retained,
            "solves": len(mine),
            "solve_s": norm[i],
            "solve_raw_s": raw[i],
            "oracle_s": verdicts[i].oracle_s,
            "failures": sorted({s.failure for s in mine if s.failure}),
        })
    return rows


def run(workload: str, seed: int, seconds: float, trace: bool) -> Report:
    wl = WORKLOADS[workload]
    cases = make_suite(wl, seed)
    report = Report(run_context(wl, seed, seconds, trace), [], {})
    if not trace:
        setup_norm, setup_raw = setup_seconds(workload, seed)
        solves = timed_loop(wl, cases, seconds, MIN_PASSES)
        report.metrics, p = e2e_metrics(solves, len(cases), setup_norm)
        raw = per_case_best(solves, len(cases), "raw_s")
        report.notes += [
            f"solve_s.tail is p{p} of {len(cases)} instances, each the best "
            f"of its repeats ({len(solves)} timed solves)",
            f"raw wall seconds: suite {sum(raw):.4f}, "
            f"p50 {statistics.median(raw):.4f}, set-up {setup_raw:.4f}",
            f"peak_rss_mb {peak_rss_mb():.4f} MB (printed only: it varies too "
            f"much between seeds to gate on)",
        ]
    else:
        # alternate untraced and traced passes; the tracer is installed
        # only around the traced ones
        tracer = Tracer()
        plain: list[Solve] = []
        traced: list[Solve] = []
        passes = 0
        start = time.perf_counter()
        while passes < MIN_PASSES or time.perf_counter() - start < seconds:
            plain += timed_loop(wl, cases, 0, 1)
            with tracer.installed():
                traced += timed_loop(wl, cases, 0, 1, tracer)
            passes += 1
        solves = plain + traced
        plain_s = sum(per_case_best(plain, len(cases)))
        traced_s = sum(per_case_best(traced, len(cases)))
        scale = sum(s.norm_s for s in traced) / sum(s.raw_s for s in traced)
        layers = layer_metrics(tracer, passes, scale)
        layers["trace.overhead_frac"] = traced_s / plain_s - 1
        report.metrics = {k: (v, _unit(k)) for k, v in layers.items()}
        report.spans = tracer.spans
        report.context["traced_passes"] = passes
        report.notes.append(
            f"traced suite {traced_s:.4f} s vs untraced {plain_s:.4f} s, "
            f"best of {passes} passes each"
        )
        pass_s = sum(s.norm_s for s in traced) / passes
        report.notes += [
            f"share {k}: {v:.1%}" for k, v in layer_shares(layers, pass_s).items()
        ]
    verdicts = oracle_verdicts(cases)
    check_solves(wl, cases, solves, verdicts)
    report.instances = instance_rows(cases, solves, verdicts)
    report.attempted = len(solves)
    report.failed = sum(1 for s in solves if s.failure)
    return report


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_yield", "_frac")):
        return "ratio"
    if name.endswith("bytes_computed"):
        return "bytes"
    return "count"


def write_report(report: Report, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "context": report.context,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.metrics.items()},
        "notes": report.notes,
        "instances": report.instances,
    }
    if report.spans is not None:
        doc["spans"] = report.spans
    path.write_text(json.dumps(doc, indent=1, default=sorted) + "\n")
