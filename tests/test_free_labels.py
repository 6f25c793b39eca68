"""Label 0: a kept bag vertex in no unit carries no label.

Only the units of ``view(bag - X)`` read labels, so the engine keys a
state by label 0 at every kept position in no unit: in block mode the
vertices isolated in the bag graph.  A vertex is labeled when it enters a
unit and goes back to 0 when it leaves every unit.  In component mode
every vertex lies in its component's unit, so no key holds a 0.
"""

from __future__ import annotations

import random

import pytest

from blockvd.decomposition import _bags_from_elimination
from blockvd.instance import Instance
from blockvd.oracle import brute_force_solve, verify_solution
from blockvd.partitions import Partition

from conftest import BUILD, SOLVE, path, random_graph

FAMILIES = ("k1k2", "cliques", "chordal")


def sparse_instance(rng: random.Random, d: int, family: str) -> Instance:
    """A sparse graph with a decomposition along a random elimination
    order, whose fill-in puts many vertices isolated in the bag graph
    into the bags.  Widths above 4 are drawn again."""
    while True:
        n = rng.randint(7, 11)
        g = random_graph(rng, n, rng.randint(n - 1, n + 3))
        order = list(range(n))
        rng.shuffle(order)
        td = _bags_from_elimination(g, order)
        if max(map(len, td.bags)) <= 5:
            return Instance(g, d, rng.randint(0, 2), family, "block", td)


def isolated_in_bags(engine) -> int:
    """The most bag vertices of one node in no unit of the bag graph."""
    return max(
        len(bag) - len({v for unit in engine.view(bag).units for v in unit})
        for bag in engine.ntd.bags
    )


def invariant_instances(mode: str) -> list[Instance]:
    rng = random.Random(34)
    out = [Instance(path(3), 2, 1, "k1k2", mode)]
    for d in (2, 3, 4, 5):
        for family in FAMILIES:
            n = rng.randint(6, 8)
            g = random_graph(rng, n, rng.randint(n - 2, n + 2))
            out.append(Instance(g, d, rng.randint(1, 2), family, mode))
    return out


@pytest.mark.parametrize("canonize", [True, False])
@pytest.mark.parametrize("mode", ["block", "component"])
def test_label_zero_exactly_off_the_units(mode, canonize):
    """L[i] is 0 exactly when keep[i] lies in no unit of the bag graph,
    with canonization on and off; component mode never stores a 0."""
    zeros = labeled = 0
    for inst in invariant_instances(mode):
        engine = BUILD[mode](inst)
        engine.canonize = canonize
        for node, table in engine.walk():
            bag = engine.ntd.bags[node]
            for xk, lk, _ in table:
                view = engine.view(v for v in bag if v not in xk)
                in_units = {v for unit in view.units for v in unit}
                assert len(lk) == len(view.keep)
                for v, l in zip(view.keep, lk):
                    assert (l == 0) == (v not in in_units), (inst, node, xk, lk)
                    assert 0 <= l <= engine.d
                    zeros += l == 0
                    labeled += l != 0
    assert labeled > 0
    if mode == "component":
        assert zeros == 0
    else:
        assert zeros > 0


@pytest.mark.parametrize("canonize", [True, False])
def test_forgetting_the_middle_of_a_path_leaves_one_state(canonize):
    """Path a-f-b, ``k1k2``, d = 2.  Once f is forgotten, a and b lie in
    no unit, so the bag {a, b} holds one state for X = (), whether f was
    deleted (a and b apart) or kept (a and b linked below)."""
    a, f, b = 0, 1, 2
    engine = BUILD["block"](Instance(path(3), 2, 1, "k1k2", "block"))
    engine.canonize = canonize
    table = engine._leaf_table(0)
    table = engine._introduce((a,), a, table, 0)
    table = engine._introduce((a, f), f, table, 0)
    table = engine._introduce((a, f, b), b, table, 0)
    table = engine._forget((a, b), f, table)
    kept = {key: fam for key, fam in table.items() if key[0] == ()}
    assert list(kept) == [((), (0, 0), ())]
    (fam,) = kept.values()
    apart = Partition.from_parts(2, [[0], [1]])
    linked = Partition.from_parts(2, [[0, 1]])
    assert fam == {apart: frozenset({f}), linked: frozenset()}


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_sparse_block_instances_agree_with_the_oracle(d):
    """Decisions, minima and witnesses on sparse block instances whose
    bags hold many vertices in no unit."""
    rng = random.Random(3400 + d)
    yes = isolated = 0
    for i in range(24):
        inst = sparse_instance(rng, d, FAMILIES[i % 3])
        isolated = max(isolated, isolated_in_bags(BUILD["block"](inst)))
        res = SOLVE["block"](inst, witness=True)
        want = brute_force_solve(inst)
        assert res.minimum == want, inst
        assert res.decision == (want is not None)
        if res.decision:
            assert len(res.witness) == res.minimum
            assert verify_solution(inst.graph, res.witness, inst.d, inst.family, "block")
            yes += 1
    assert 0 < yes < 24
    assert isolated >= 3
