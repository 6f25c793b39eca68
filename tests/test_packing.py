"""The packing of infeasible vertex sets behind the component-mode budget.

``pack_infeasible`` packs disjoint connected vertex sets that no
component-mode solution may leave whole.  ``Engine._budget`` allows a
state with deleted bag set X, at a node whose subtree forgets F, k less
|X| less the packed sets that avoid F and X (``packed_masks``).  Both
rest on one assumption, checked here for every family: a connected
induced subgraph of a member is a member.  A bound one too high must
show in the oracle differential.
"""

from __future__ import annotations

import random
from itertools import chain, combinations

import pytest

from blockvd import _dpcore, dp_block, dp_component
from blockvd._dpcore import packed_masks, pack_infeasible
from blockvd.decomposition import heuristic_td, to_nice
from blockvd.errors import NonChordalFamily
from blockvd.families import FAMILIES, Pattern, enumerate_component_patterns
from blockvd.graph import Graph, connected_components
from blockvd.instance import Instance
from blockvd.oracle import verify_solution

from conftest import BUILD, members, random_chordal, random_graph
from test_dp_component import oracle_mismatches


def graphs() -> list:
    """Seeded random graphs and random chordal graphs of 4 to 14 vertices."""
    rng = random.Random(26)
    out = []
    for i in range(24):
        n = rng.randint(4, 14)
        if i % 2:
            out.append(random_chordal(rng, n, 3))
        else:
            out.append(random_graph(rng, n, rng.randint(n - 1, 2 * n)))
    return out


def forgotten_below(ntd) -> list[set[int]]:
    """The vertices forgotten at or below each node, read the long way."""
    out = []
    for node in range(ntd.num_nodes):
        below = set()
        stack = [node]
        while stack:
            x = stack.pop()
            if ntd.kinds[x] == "forget":
                below.add(ntd.acted[x])
            stack.extend(ntd.children[x])
        out.append(below)
    return out


def subsets(bag) -> list[tuple[int, ...]]:
    """Every subset of a bag, as a sorted tuple."""
    bag = sorted(bag)
    return list(chain.from_iterable(combinations(bag, r) for r in range(len(bag) + 1)))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_packed_sets_are_disjoint_infeasible_and_set_each_cap(family, d):
    fam = FAMILIES[family]
    packed = 0
    for g in graphs():
        td = heuristic_td(g)
        ntd = to_nice(td, g)
        packing = pack_infeasible(g, ntd, d, fam)
        sets = [members(mask) for mask in packing]
        covered: set[int] = set()
        for u in sets:
            assert not u & covered
            covered |= u
            assert len(connected_components(g, u)) == 1
            # keeping all of U and nothing else is no solution
            assert not verify_solution(g, set(g.vertices()) - u, d, fam, "component")
        packed += len(sets)
        below = forgotten_below(ntd)
        avoid = tuple(
            sum(1 << i for i, u in enumerate(sets) if not u & f) for f in below
        )
        set_bit = tuple(
            next((1 << i for i, u in enumerate(sets) if v in u), 0) for v in g.vertices()
        )
        assert packed_masks(ntd, g.n, packing) == (avoid, set_bit)
        for k in (0, 3):
            try:
                engine = dp_component.build_engine(Instance(g, d, k, family, "component", td))
            except NonChordalFamily:
                continue  # no component universe of this family at this d
            assert (engine._avoid, engine._set_bit) == (avoid, set_bit)
            for node, f in enumerate(below):
                for xk in subsets(ntd.bags[node]):
                    want = k - len(xk) - sum(1 for u in sets if not u & (f | set(xk)))
                    assert engine._budget(engine._avoid[node], xk) == want
    assert packed > 0


def test_block_engines_get_no_packing():
    # block mode passes the engine no packing: every budget is k - |X|
    for g in graphs()[:6]:
        engine = dp_block.build_engine(Instance(g, 3, 2, "chordal", "block"))
        assert engine._avoid == (0,) * engine.ntd.num_nodes
        for node in range(engine.ntd.num_nodes):
            for xk in subsets(engine.ntd.bags[node]):
                assert engine._budget(engine._avoid[node], xk) == 2 - len(xk)


@pytest.mark.parametrize("mode", ["block", "component"])
def test_every_stored_set_fits_the_budget_of_its_key(mode):
    """Every item of every table has |w| + |X| + (packed sets avoiding F
    and X) <= k.  A forget keeps this without a check: where v is
    deleted it moves from X to w, and where it survives F only grows."""
    rng = random.Random(28)
    items = tight = 0
    for g in graphs():
        d = rng.choice([2, 3, 4])
        k = rng.randint(1, 4)
        inst = Instance(g, d, k, rng.choice(["k1k2", "cliques", "chordal"]), mode)
        engine = BUILD[mode](inst)
        packing = (
            pack_infeasible(g, engine.ntd, d, FAMILIES[inst.family])
            if mode == "component"
            else ()
        )
        sets = [members(mask) for mask in packing]
        below = forgotten_below(engine.ntd)
        for node, table in engine.walk():
            for (xk, _, _), fam in table.items():
                fx = below[node] | set(xk)
                need = len(xk) + sum(1 for u in sets if not u & fx)
                for w in fam.values():
                    assert len(w) + need <= k, (inst, node, xk, w)
                    items += 1
                    tight += len(w) + need == k
    # some items sit at the budget, so a bound one too high would show
    assert items > 0 and tight > 0


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_connected_induced_subgraph_of_a_member_is_a_member(family):
    """The packing is sound only for families closed under connected
    induced subgraphs: a solution missing a packed set U leaves G[U]
    inside one component, which is then no member.  Checked on every
    component universe that builds, d <= 5."""
    built = 0
    for d in range(1, 6):
        try:
            universe = enumerate_component_patterns(d, FAMILIES[family])
        except NonChordalFamily:
            continue
        built += 1
        accepted = set(universe)
        for p in universe:
            for size in range(1, len(p.labels)):
                for labels in map(frozenset, combinations(sorted(p.labels), size)):
                    edges = p.induced(labels)
                    if len(connected_components(Graph(d + 1, edges), labels)) == 1:
                        assert Pattern(labels, edges) in accepted, (family, d, p, labels)
    assert built > 0


def _budget_one_lower(real):
    return lambda engine, avoid, xk: real(engine, avoid, xk) - 1


def _sets_hit_by_x_counted(real):
    # k - |X| less every packed set avoiding F, also those X already hits
    return lambda engine, avoid, xk: engine.k - len(xk) - avoid.bit_count()


def _one_feasible_set_more(real):
    def padded(g, ntd, d, family):
        # a single vertex is a member of every family, so a solution may
        # keep it: packing it claims one deletion too many
        packing = real(g, ntd, d, family)
        free = [v for v in g.vertices() if not any(u >> v & 1 for u in packing)]
        return packing + tuple(1 << v for v in free[:1])

    return padded


@pytest.mark.parametrize(
    "owner, name, mutate",
    [
        (_dpcore.Engine, "_budget", _budget_one_lower),
        (_dpcore.Engine, "_budget", _sets_hit_by_x_counted),
        (dp_component, "pack_infeasible", _one_feasible_set_more),
    ],
    ids=["every-cap-one-lower", "sets-hit-by-x-counted", "one-feasible-set-packed"],
)
def test_a_bound_one_too_high_is_caught(owner, name, mutate, monkeypatch):
    monkeypatch.setattr(owner, name, mutate(getattr(owner, name)))
    assert oracle_mismatches(random.Random(0))
