"""Tests of the benchmark's own code: generators, tracer and metric names."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
from blockvd.decomposition import validate_td  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, make_suite, suite_bytes  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
# what every wrapped name is bound to before any tracer is installed
ORIGINALS = {(owner, attr): owner.__dict__[attr] for owner, attr in tracing.wrapped_names()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_byte_deterministic(name):
    wl = WORKLOADS[name]
    first = suite_bytes(make_suite(wl, 7))
    assert first == suite_bytes(make_suite(wl, 7))
    assert first != suite_bytes(make_suite(wl, 8))
    assert len(make_suite(wl, 7)) == wl.graphs * len(wl.families)


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.fixture(scope="module")
def traced():
    """One traced solve of the first instance of every workload."""
    tracer = tracing.Tracer()
    cases = {name: make_suite(wl, 1)[0] for name, wl in WORKLOADS.items()}
    solves = {}
    with tracer.installed():
        for name, case in cases.items():
            s, _ = bench.solve_case(WORKLOADS[name], case, 0, bench.reference_loop(), tracer)
            assert s.error is None
            solves[name] = s
    return tracer, cases, solves


def test_span_self_times_fit_inside_parents(traced):
    tracer, _, _ = traced
    spans = tracer.spans
    assert {s["name"] for s in spans} == {"solve", "build", "node"}
    children: dict[int, list[dict]] = {}
    for s in spans:
        assert s["end"] is not None and s["self_s"] >= 0
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    for parent_id, kids in children.items():
        parent = spans[parent_id]
        duration = parent["end"] - parent["start"]
        assert sum(k["self_s"] for k in kids) <= duration
        assert all(parent["start"] <= k["start"] and k["end"] <= parent["end"] for k in kids)
    for total, own, calls in tracer.acc.values():
        assert 0 <= own <= total + 1e-12 and calls >= 0


def test_node_spans_carry_the_node_record(traced):
    tracer, _, _ = traced
    nodes = [s for s in tracer.spans if s["name"] == "node"]
    assert nodes
    for s in nodes:
        a = s["attrs"]
        assert a["kind"] in ("leaf", "introduce", "forget", "join")
        assert a["parts_after"] <= a["parts_before"]
        assert {"node", "bag", "states", "td_parent"} <= a.keys()
        assert tracer.spans[s["parent"]]["name"] == "solve"


def test_metric_names(traced):
    tracer, _, _ = traced
    layers = bench.layer_metrics(tracer, passes=1, scale=1.0)
    layers["trace.overhead_frac"] = 0.0
    assert list(layers) == [m["name"] for m in SPEC["per_layer"]]
    fake = [bench.Solve(i % 20, 0.1 + i, 0.1 + i) for i in range(40)]
    assert bench.per_case_best(fake, 20)[3] == 3.1
    e2e, p = bench.e2e_metrics(fake, 20, 1.0)
    assert list(e2e) == [m["name"] for m in SPEC["end_to_end"]]
    assert p == 50
    for name in list(layers) + list(e2e):
        assert NAME.fullmatch(name), name


def test_wrapped_names_restored_and_untraced_solve_identical(traced):
    _, cases, solves = traced
    assert len(ORIGINALS) == len(tracing.wrapped_names())
    for (owner, attr), original in ORIGINALS.items():
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"
    for name, case in cases.items():
        plain, _ = bench.solve_case(WORKLOADS[name], case, 0, bench.reference_loop())
        traced_solve = solves[name]
        assert (plain.states, plain.retained, plain.decision) == (
            traced_solve.states, traced_solve.retained, traced_solve.decision
        )


def test_tail_percentile():
    assert bench.tail([float(i) for i in range(100)]) == (89.0, 90)
    with pytest.raises(ValueError):
        bench.tail([1.0] * 10)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_own_decompositions_are_valid(name):
    for case in make_suite(WORKLOADS[name], 3):
        assert validate_td(case.inst.graph, case.inst.td) is None
