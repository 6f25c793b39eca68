"""Unit shapes that only one mode produces, run through the shared engine.

Block mode can introduce a vertex lying in two non-trivial blocks at
once and can split one block into several pieces on a forget; component
mode splits a component when it forgets a vertex joining its pieces.
Each test builds a one-state child table with ``_merge`` and inspects the
produced table with canonization off, so the keys keep their labels.  A
key holds no unit vertices: its hypothesis gh[j] belongs to unit j of
``engine.view`` of the surviving bag vertices, and the tests read the
units from there.
"""

from blockvd import dp_block, dp_component
from blockvd.graph import Graph
from blockvd.instance import Instance
from conftest import members, random_graph, singletons


def _engine(module, g, mode):
    engine = module.build_engine(Instance(g, 4, 1, "chordal", mode))
    engine.canonize = False
    return engine


def _child(engine, lk, gh):
    child: dict = {}
    engine._merge(child, ((),) + engine.canon(lk, gh), {singletons(1): frozenset()})
    return child


def _assert_pieces_share_one_pattern(engine, bag, out, pieces, cands, lv):
    """Every state ties all the pieces to one shared single-pattern slot.

    Each piece also learns that the forgotten vertex, labeled lv, sits
    next to it; together the states cover every candidate pattern.
    """
    assert out
    seen = set()
    for (xk, lk, gh), fam in out.items():
        assert fam
        units = engine.view(v for v in bag if v not in xk).units
        assert list(units) == pieces and len(gh) == len(units)
        slots = dict(zip(units, gh))
        masks = {slots[p][0] for p in pieces}
        assert len(masks) == 1
        (pats,) = [members(mask) for mask in masks]
        assert len(pats) == 1
        seen |= pats
        assert all(slots[p][1] >> (lv - 1) & 1 for p in pieces)
    assert seen == cands


def test_block_intro_vertex_in_two_blocks():
    # triangle 0-1-2 plus the pendant edge 2-3: introducing 2 makes the
    # blocks {0,1,2} and {2,3}, and {0,1,2} absorbs the child block {0,1}
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    engine = _engine(dp_block, g, "block")
    pats = engine.patterns
    full = members(engine.compat_set((0, 1), [(0, 1)], {0: 1, 1: 2}))
    tri = [q for q in sorted(full) if {(1, 2), (1, 4), (2, 4)} <= pats[q].edges]
    # hosts of the triangle on labels 1, 2, 4 that keep v's label 4 apart
    # from the attached label 3, and hosts that do not
    hosts = [q for q in tri if (3, 4) not in pats[q].edges]
    touching = [q for q in tri if (3, 4) in pats[q].edges]
    others = [q for q in sorted(full) if q not in tri]
    assert len(hosts) >= 2 and touching and others
    # below the bag, the block {0,1} kept one of each
    kept_below = (1 << hosts[0]) | (1 << touching[0]) | (1 << others[0])
    hm = 1 << 2  # label 3 is already attached to the block {0,1}
    # vertex 3 is isolated in the child's bag graph, so it carries label 0
    child = _child(engine, (1, 2, 0), ((kept_below, hm),))
    out = engine._introduce((0, 1, 2, 3), 2, child, 0)
    kept = [key for key in out if key[0] == ()]
    # labels 1 and 2 repeat a label of {0,1,2}; label 3 is attached to it.
    # Vertex 3 enters the block {2,3} with any label but v's
    assert [lk for _, lk, _ in kept] == [(1, 2, 4, 1), (1, 2, 4, 2), (1, 2, 4, 3)]
    assert engine.view((0, 1, 2, 3)).units == ((0, 1, 2), (2, 3))
    for _, lk, gh in kept:
        (s1, h1), (s2, h2) = gh
        assert (h1, h2) == (hm, 0)
        # the absorbing block keeps only the child's candidate that hosts it
        assert members(s1) == {hosts[0]}
        # the new block {2,3} is hosted on the edge between 4 and 3's label
        assert members(s2)
        assert all((lk[3], 4) in pats[q].edges for q in members(s2))


def test_block_forget_splits_block_into_two_pieces():
    # the diamond 0-1-2-3 with chord 0-2 is one block; forgetting 0 leaves
    # the path 1-2-3, whose blocks {1,2} and {2,3} are the pieces
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]
    engine = _engine(dp_block, Graph(4, edges), "block")
    unit = (0, 1, 2, 3)
    lab = {0: 1, 1: 2, 2: 3, 3: 4}
    cands = engine.compat_set(unit, edges, lab)
    child = _child(engine, (1, 2, 3, 4), ((cands, 0),))
    out = engine._forget((1, 2, 3), 0, child)
    pieces = [(1, 2), (2, 3)]
    _assert_pieces_share_one_pattern(engine, (1, 2, 3), out, pieces, members(cands), lv=1)


def test_component_forget_splits_component_into_two_pieces():
    # forgetting the middle of the path 1-0-2 splits its component in two
    edges = [(0, 1), (0, 2)]
    engine = _engine(dp_component, Graph(3, edges), "component")
    unit = (0, 1, 2)
    cands = engine.compat_set(unit, edges, {0: 1, 1: 2, 2: 3})
    assert len(members(cands)) > 1
    child = _child(engine, (1, 2, 3), ((cands, 0),))
    out = engine._forget((1, 2), 0, child)
    pieces = [(1,), (2,)]
    _assert_pieces_share_one_pattern(engine, (1, 2), out, pieces, members(cands), lv=1)


def test_view_units_come_sorted(rng):
    """The transitions index child units by position in ``view(keep).units``
    without sorting them, so the view must hand them out sorted."""
    for mode, module in (("block", dp_block), ("component", dp_component)):
        for _ in range(40):
            n = rng.randint(1, 9)
            g = random_graph(rng, n, rng.randint(0, 2 * n))
            engine = module.build_engine(Instance(g, 2, 1, "k1k2", mode))
            for _ in range(10):
                keep = rng.sample(range(n), rng.randint(0, n))
                units = engine.view(keep).units
                assert list(units) == sorted(units)
