"""The engine's join, checked against a plain reference join.

``Engine._join`` pairs a right state only with the left states of its
(X, L), rejects a pairing whose h signatures share a bit before any
per-unit work, and pairs a right state whose label orbit has one image
with each left state's first image alone.  The reference here pairs
every right state with every image of every left state of its (X, L),
checks each unit's pattern and h masks one by one, joins the families
with ``uplus`` and ``inc_is_forest`` directly and merges through
``Engine._merge``.  Both must build the same table, in the same order.
"""

from __future__ import annotations

import random

import pytest

from blockvd._dpcore import Engine
from blockvd.decomposition import heuristic_td, to_nice
from blockvd.graph import Graph
from blockvd.instance import Instance
from blockvd.partitions import inc_is_forest, uplus

from conftest import BUILD, clique_patterns, random_graph, star_of_bags
from test_walk import symmetric_instances

FAMILIES = ("k1k2", "cliques", "chordal")


def reference_join(engine, left: dict, right: dict, avoid: int, fired: dict) -> dict:
    """The join table of two child tables, built the long way, keeping the
    joints within the budget of their X at a node whose packed sets
    avoiding the forgotten vertices are avoid.

    fired counts the pairings the engine treats specially: those where
    some unit's two h masks meet (``clash``), and the images past the
    first paired with a right state whose orbit has one image
    (``symmetric``).
    """
    table: dict = {}
    for (rxk, rlk, rgh), rfam in right.items():
        budget = engine._budget(avoid, rxk)
        symmetric = len(engine._orbit(rlk, rgh)[1]) == 1
        for (xk, lk, gh), lfam in left.items():
            if (xk, lk) != (rxk, rlk):
                continue
            for i, (_, lgh) in enumerate(engine._orbit(lk, gh)[1]):
                if any(h1 & h2 for (_, h1), (_, h2) in zip(lgh, rgh)):
                    fired["clash"] += 1
                if symmetric and i > 0:
                    fired["symmetric"] += 1
                entries = []
                for (p1, h1), (p2, h2) in zip(lgh, rgh):
                    common = p1 & p2 & ~engine.linked(h1, h2)
                    if h1 & h2 or not common:
                        break
                    entries.append((common, h1 | h2))
                else:
                    items = [
                        (uplus(p1, p2), w1 | w2)
                        for p1, w1 in lfam.items()
                        for p2, w2 in rfam.items()
                        if len(w1) + len(w2) <= budget and inc_is_forest(p1.m, (p1, p2))
                    ]
                    engine._merge(table, (rxk,) + engine.canon(rlk, tuple(entries)), items)
    return table


def ordered(table: dict) -> list:
    """A table's keys with their families, each in insertion order."""
    return [(key, list(fam.items())) for key, fam in table.items()]


def join_instances(mode: str) -> list[Instance]:
    """Seeded random instances at d from 3 to 5, star-of-bags
    decompositions (one join node over three to five legs), and the
    instances with many absent labels of ``test_walk``.

    The random graphs run up to 2n edges: in block mode, h masks meet
    only where both sides attach labels to a block of the join bag."""
    rng = random.Random(25)
    out = []
    for d in (3, 4, 5):
        for _ in range(6):
            n = rng.randint(7, 10)
            g = random_graph(rng, n, rng.randint(n, 2 * n))
            out.append(Instance(g, d, rng.randint(1, 3), rng.choice(FAMILIES), mode))
        for _ in range(3):
            g, td = star_of_bags(rng)
            out.append(Instance(g, d, rng.randint(1, 3), rng.choice(FAMILIES), mode, td))
    return out + symmetric_instances(mode)


@pytest.mark.parametrize("mode", ["block", "component"])
def test_join_builds_the_reference_table_in_its_order(mode):
    fired = {"clash": 0, "symmetric": 0}
    joins = 0
    for inst in join_instances(mode):
        # without canonization the tables at d = 5 grow too large for a
        # quick test, and every orbit has one image anyway
        for canonize in (True, False) if inst.d == 3 else (True,):
            engine = BUILD[mode](inst)
            engine.canonize = canonize
            ntd = engine.ntd
            tables = dict(engine.walk())
            for node in ntd.postorder():
                if ntd.kinds[node] != "join":
                    continue
                left, right = (tables[c] for c in ntd.children[node])
                avoid = engine._avoid[node]
                got = engine._join(ntd.bags[node], left, right, avoid)
                want = reference_join(engine, left, right, avoid, fired)
                assert ordered(got) == ordered(want), (inst, canonize, node)
                joins += 1
    assert joins > 0
    # the one-AND rejection and the symmetric skip both take effect
    assert fired["clash"] > 0 and fired["symmetric"] > 0, fired


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_signatures_meet_exactly_when_a_unit_is_attached_a_label_twice(d):
    g = Graph(1, [])
    engine = Engine("block", g, d, 0, clique_patterns(d, 2), to_nice(heuristic_td(g), g))
    rng = random.Random(d)

    def mask() -> int:
        return sum(1 << i for i in range(d) if rng.random() < 0.3)

    outcomes = set()
    for _ in range(3000):
        units = rng.randint(0, 4)
        a = tuple((1, mask()) for _ in range(units))
        b = tuple((1, mask()) for _ in range(units))
        clash = any(h1 & h2 for (_, h1), (_, h2) in zip(a, b))
        assert bool(engine._signature(a) & engine._signature(b)) == clash, (a, b)
        outcomes.add(clash)
    assert outcomes == {True, False}
