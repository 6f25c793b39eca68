"""Bag views and transition contexts keyed by the shape of the bag graph.

``Engine.view`` and the introduce/forget contexts come from per-process
tables keyed by (t, shape, position of v, mode), built in bag positions.
Their vertex-id images must equal the direct construction on the host
graph, which this file keeps as the reference: ``connected_components``
and ``biconnected_blocks`` on the induced subgraph, and the contexts
built from those views node by node.
"""

import random
from itertools import combinations

import pytest

from blockvd._dpcore import Engine, _forget_ctx, _intro_ctx
from blockvd.decomposition import heuristic_td, to_nice
from blockvd.families import enumerate_ud, get_family
from blockvd.graph import Graph, biconnected_blocks, connected_components

from conftest import random_chordal, random_graph

MODES = ("block", "component")


def reference_view(g: Graph, mode: str, keep) -> tuple:
    """(keep, comps, comp_of, units, unit_edges) straight from the host graph."""
    key = tuple(sorted(keep))
    comps = tuple(tuple(sorted(c)) for c in connected_components(g, key))
    comp_of = {v: ci for ci, c in enumerate(comps) for v in c}
    if mode == "block":
        units = tuple(
            tuple(sorted(b)) for b in biconnected_blocks(g, key).blocks if len(b) >= 2
        )
    else:
        units = comps
    unit_edges = tuple(
        tuple((u, w) for u in unit for w in g.neighbors(u) if u < w and w in unit)
        for unit in units
    )
    return key, comps, comp_of, units, unit_edges


def reference_intro(g, mode, bag, v, xk) -> dict:
    keep_parent = tuple(u for u in bag if u not in xk)
    keep_child = tuple(u for u in keep_parent if u != v)
    pkeep, pcomps, pcomp_of, punits, pedges = reference_view(g, mode, keep_parent)
    _, ccomps, _, cunits, _ = reference_view(g, mode, keep_child)
    vunits = []
    absorbed: set[int] = set()
    for unit, edges in zip(punits, pedges):
        if v in unit:
            subs = tuple(j for j, cu in enumerate(cunits) if set(unit).issuperset(cu))
            absorbed.update(subs)
            vunits.append((unit, edges, subs))
    return {
        "vpos": pkeep.index(v),
        "m": len(pcomps),
        "comp_map": tuple(pcomp_of[c[0]] for c in ccomps),
        "vnew": pcomp_of[v],
        "vunits": tuple(vunits),
        "carried": tuple((cu, j) for j, cu in enumerate(cunits) if j not in absorbed),
    }


def reference_forget(g, mode, bag, v, xk) -> dict:
    keep_parent = tuple(u for u in bag if u not in xk)
    keep_child = tuple(sorted(keep_parent + (v,)))
    ckeep, ccomps, ccomp_of, cunits, _ = reference_view(g, mode, keep_child)
    _, pcomps, _, punits, _ = reference_view(g, mode, keep_parent)
    split: list[list[int]] = [[] for _ in ccomps]
    for pidx, c in enumerate(pcomps):
        split[ccomp_of[c[0]]].append(pidx)
    carried = []
    pieces = []
    for j, unit in enumerate(cunits):
        if v not in unit:
            carried.append((unit, j))
            continue
        inside = tuple(pu for pu in punits if set(unit).issuperset(pu))
        if inside:
            pieces.append((j, inside))
    return {
        "vpos": ckeep.index(v),
        "m": len(pcomps),
        "split": tuple(map(tuple, split)),
        "carried": tuple(carried),
        "pieces": tuple(pieces),
    }


def intro_image(engine: Engine, bag, v, xk) -> dict:
    """The context the engine uses, in vertex ids."""
    keep = tuple(u for u in bag if u not in xk)
    ctx = _intro_ctx(len(keep), engine._shape(keep), keep.index(v), engine.mode)

    def ids(unit):
        return tuple(keep[p] for p in unit)

    image = {
        "vpos": ctx["vpos"],
        "m": ctx["m"],
        "comp_map": ctx["comp_map"],
        "vnew": ctx["vnew"],
        "vunits": tuple(
            (ids(unit), tuple((keep[a], keep[b]) for a, b in edges), subs)
            for unit, edges, subs in ctx["vunits"]
        ),
        "carried": tuple((ids(cu), j) for cu, j in ctx["carried"]),
    }
    return image


def forget_image(engine: Engine, bag, v, xk) -> dict:
    keep = tuple(sorted(u for u in bag + (v,) if u not in xk))
    ctx = _forget_ctx(len(keep), engine._shape(keep), keep.index(v), engine.mode)
    pkeep = tuple(u for u in keep if u != v)

    def ids(unit):
        return tuple(pkeep[p] for p in unit)

    image = {
        "vpos": ctx["vpos"],
        "m": ctx["m"],
        "split": ctx["split"],
        # carried units avoid v, so the parent's vertex ids name them
        "carried": tuple((ids(cu), j) for cu, j in ctx["carried"]),
        "pieces": tuple((j, tuple(map(ids, inside))) for j, inside in ctx["pieces"]),
    }
    return image


def graphs() -> list[Graph]:
    rng = random.Random(23)
    out = [
        # 0 has degree 7, more than any bag holds
        Graph(8, [(0, w) for w in range(1, 8)] + [(1, 2), (3, 4), (4, 5), (3, 5)]),
        # two triangles sharing the cut vertex 2, plus a pendant path
        Graph(7, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4), (4, 5), (5, 6)]),
        # two components, one a 4-cycle with a chord
        Graph(7, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (4, 5), (5, 6)]),
    ]
    out += [random_graph(rng, n, rng.randint(n, 2 * n)) for n in (7, 8, 9, 10, 11, 12)]
    out += [random_chordal(rng, n) for n in (8, 10)]
    return out


def engine_of(g: Graph, mode: str) -> Engine:
    ntd = to_nice(heuristic_td(g), g)
    return Engine(mode, g, 3, 1, enumerate_ud(3, get_family("k1k2")), ntd)


def subsets(bag):
    return (xk for r in range(len(bag) + 1) for xk in combinations(bag, r))


@pytest.mark.parametrize("mode", MODES)
def test_view_equals_the_host_graph_construction(mode):
    checked = set()
    for g in graphs():
        engine = engine_of(g, mode)
        for bag in engine.ntd.bags:
            for keep in subsets(bag):
                key, comps, _, units, unit_edges = reference_view(g, mode, keep)
                view = engine.view(reversed(keep))
                assert view.keep == key
                assert view.comps == comps
                assert view.units == units
                assert view.unit_edges == unit_edges
                if biconnected_blocks(g, key).cut_vertices:
                    checked.add("cut vertex")
                if len(comps) > 1:
                    checked.add("disconnected")
    assert checked == {"cut vertex", "disconnected"}


@pytest.mark.parametrize("mode", MODES)
def test_contexts_equal_the_per_node_construction(mode):
    kinds = set()
    for g in graphs():
        engine = engine_of(g, mode)
        ntd = engine.ntd
        for node, kind in enumerate(ntd.kinds):
            bag, v = ntd.bags[node], ntd.acted[node]
            if kind == "introduce":
                for xk in subsets(tuple(u for u in bag if u != v)):
                    image = intro_image(engine, bag, v, xk)
                    assert image == reference_intro(g, mode, bag, v, xk)
                    kinds.add((kind, bool(image["vunits"]), bool(image["carried"])))
            elif kind == "forget":
                for xk in subsets(bag):
                    image = forget_image(engine, bag, v, xk)
                    assert image == reference_forget(g, mode, bag, v, xk)
                    kinds.add((kind, bool(image["pieces"]), bool(image["carried"])))
    assert {("introduce", True, True), ("forget", True, True)} <= kinds


def test_shape_ignores_vertex_degree_outside_the_bag():
    # 0 is adjacent to every other vertex; inside the bag (0, 3, 5) only
    # its edges to 3 and 5 count, and 3-5 is an edge too
    g = Graph(8, [(0, w) for w in range(1, 8)] + [(3, 5)])
    engine = engine_of(g, "block")
    assert engine._shape((0, 3, 5)) == 0b111
    assert engine._shape((1, 3, 5)) == 0b100
    assert engine._shape((0, 6)) == 0b1
    assert engine.view((0, 3, 5)).units == ((0, 3, 5),)
