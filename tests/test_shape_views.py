"""Bag views and introduce/forget steps keyed by the shape of the bag graph.

``Engine.view`` and the steps come from per-process tables keyed by
(t, shape, mode) and (t, shape, position of v, mode), built in bag
positions; one step serves the introduce into a shape and the forget
from it.  A transition reads the step of each deleted set X through
``_bag_step``, keyed by the shape of its whole bag and the mask of X's
bag positions.  Their vertex-id images must equal the direct construction on
the host graph, which this file keeps as the reference:
``connected_components`` and ``biconnected_blocks`` on the induced
subgraph, and the introduce and forget contexts built from those views
node by node.
"""

import random
from itertools import combinations

import pytest

from blockvd._dpcore import Engine, _bag_step, _drop_position, _shape_view, _step
from blockvd.decomposition import heuristic_td, to_nice
from blockvd.errors import InvalidInput
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
            tuple(sorted(b)) for b in biconnected_blocks(g, key) if len(b) >= 2
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


def bag_step(engine: Engine, bag, v, xk):
    """The step a transition over the sorted bag, with v in it, reads for
    the deleted set xk."""
    xmask = sum(1 << bag.index(u) for u in xk)
    return _bag_step(len(bag), engine._shape(bag), xmask, bag.index(v), engine.mode)


def intro_image(engine: Engine, bag, v, xk) -> dict:
    """The step the engine's introduce reads, in vertex ids."""
    keep = tuple(u for u in bag if u not in xk)
    step = bag_step(engine, bag, v, xk)
    big = _shape_view(len(keep), engine._shape(keep), engine.mode)

    def ids(unit):
        return tuple(keep[p] for p in unit)

    image = {
        "vpos": step.vpos,
        "m": step.big_m,
        "comp_map": step.comp_map,
        "vnew": step.vcomp,
        "vunits": tuple(
            (ids(unit), tuple((keep[a], keep[b]) for a, b in edges), inside)
            for _, unit, edges, inside in step.vunits
        ),
        # a carried unit is its big unit, which avoids v
        "carried": tuple((ids(big.units[bi]), si) for bi, si in step.carried),
    }
    return image


def forget_image(engine: Engine, bag, v, xk) -> dict:
    """The step the engine's forget reads, in vertex ids."""
    keep = tuple(sorted(u for u in bag + (v,) if u not in xk))
    step = bag_step(engine, tuple(sorted(bag + (v,))), v, xk)
    pkeep = tuple(u for u in keep if u != v)

    def ids(unit):
        return tuple(pkeep[p] for p in unit)

    image = {
        "vpos": step.vpos,
        "m": step.small_m,
        "split": step.split,
        # carried units avoid v, so the parent's vertex ids name them
        "carried": tuple((ids(step.small_units[si]), bi) for bi, si in step.carried),
        "pieces": tuple(
            (bi, tuple(ids(step.small_units[si]) for si in inside))
            for bi, _, _, inside in step.vunits
            if inside
        ),
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
                # every vertex of key lies in a block, and a cut vertex in two
                if sum(map(len, biconnected_blocks(g, key))) > len(key):
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


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("keep", [[-1, 0], [0, 4], [4]], ids=["minus-one", "n", "n-alone"])
def test_view_rejects_ids_outside_the_graph(mode, keep):
    # -1 would index vertex n-1 from the end and report the edge (-1, 0)
    engine = engine_of(Graph(4, [(0, 3), (0, 1)]), mode)
    with pytest.raises(InvalidInput, match="outside 0..3"):
        engine.view(keep)


@pytest.mark.parametrize("mode", MODES)
def test_view_treats_keep_as_a_set(mode):
    engine = engine_of(Graph(3, [(0, 1), (1, 2)]), mode)
    assert engine.view([0, 0, 1]) == engine.view([0, 1])
    assert engine.view([0, 0, 1]).units == ((0, 1),)


@pytest.mark.parametrize("mode", MODES)
def test_every_step_covers_the_small_units_once(mode):
    # what writing each hypothesis straight into its slot relies on, for
    # every shape of at most 5 vertices and every position of v
    for t in range(1, 6):
        for shape in range(1 << (t * (t - 1) // 2)):
            big = _shape_view(t, shape, mode)
            for vpos in range(t):
                step = _step(t, shape, vpos, mode)
                small = _shape_view(t - 1, _drop_position(t, shape, vpos), mode)
                assert step.small_units == small.units
                covered = [si for _, si in step.carried]
                for _, _, _, inside in step.vunits:
                    covered += inside
                assert sorted(covered) == list(range(len(small.units)))
                # the big units split into carried ones and ones through v
                big_of = sorted([bi for bi, _ in step.carried] + [bi for bi, *_ in step.vunits])
                assert big_of == list(range(len(big.units)))
                for bi, si in step.carried:
                    assert vpos not in big.units[bi]
                    assert tuple(p - (p > vpos) for p in big.units[bi]) == small.units[si]
                for bi, unit, edges, _ in step.vunits:
                    assert vpos in unit
                    assert (unit, edges) == (big.units[bi], big.unit_edges[bi])
                assert len(step.comp_map) == step.small_m == len(small.comps)
                assert len(step.split) == step.big_m == len(big.comps)
                assert step.vcomp == next(ci for ci, c in enumerate(big.comps) if vpos in c)
                # split is the inverse of the small -> big component map
                assert sorted(
                    (si, bi) for bi, sis in enumerate(step.split) for si in sis
                ) == list(enumerate(step.comp_map))


@pytest.mark.parametrize("mode", MODES)
def test_bag_steps_are_the_steps_of_the_kept_graphs(mode):
    # for every shape of at most 5 vertices, every position of v and
    # every deleted set avoiding it: the step of the kept graph, in the
    # very object ``_step`` gives
    for t in range(1, 6):
        pairs = [(i, j) for i in range(t) for j in range(i + 1, t)]
        for shape in range(1 << len(pairs)):
            for vpos in range(t):
                for xmask in range(1 << t):
                    if xmask >> vpos & 1:
                        continue
                    kept = [p for p in range(t) if not xmask >> p & 1]
                    at = {p: i for i, p in enumerate(kept)}
                    small = sum(
                        1 << b
                        for b, (i, j) in enumerate(combinations(range(len(kept)), 2))
                        if shape >> pairs.index((kept[i], kept[j])) & 1
                    )
                    want = _step(len(kept), small, at[vpos], mode)
                    assert _bag_step(t, shape, xmask, vpos, mode) is want
