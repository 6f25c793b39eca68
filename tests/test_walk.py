"""The engine's node walk and the solve folded over it.

``Engine.walk`` yields each node's reduced table in postorder and
``Engine.run`` sums its counters over the walk and reads the decision
from the last (root) table, so a run keeps no state on the engine.
A family maps each partition to its least deletion set, so the root's
one value is both the minimum (its size) and the witness.
"""

import copy
import random

import pytest

from blockvd._dpcore import Engine
from blockvd.decomposition import TreeDecomposition
from blockvd.graph import Graph
from blockvd.instance import Instance
from blockvd.oracle import verify_solution

from conftest import BUILD, SOLVE, clear_caches, cycle, random_graph


def instances(mode: str) -> list[Instance]:
    """C5 with k1k2 at d=3, k=1, then seeded random instances."""
    rng = random.Random(12)
    out = [Instance(cycle(5), 3, 1, "k1k2", mode)]
    for _ in range(10):
        n = rng.randint(5, 8)
        g = random_graph(rng, n, rng.randint(n - 1, n * 3 // 2))
        family = rng.choice(["k1k2", "cliques", "chordal"])
        out.append(Instance(g, rng.choice([2, 3, 4]), rng.randint(0, 2), family, mode))
    return out


@pytest.mark.parametrize("mode", ["block", "component"])
def test_a_second_run_reports_the_same_counts(mode):
    for inst in instances(mode):
        engine = BUILD[mode](inst)
        first, second = engine.run(), engine.run()
        leaf = engine.ntd.postorder()[0]
        if engine._budget(engine._avoid[leaf], ()) >= 0:
            assert first.stats["states"] > 0
        else:
            # the packed sets alone need more than k deletions: the walk
            # decides NO at the leaf and builds no state
            assert not first.decision and first.stats["states"] == 0
        assert second.stats == first.stats
        assert (second.decision, second.witness) == (first.decision, first.witness)


@pytest.mark.parametrize("mode", ["block", "component"])
def test_walk_visits_the_postorder_and_ends_at_the_root(mode):
    decisions = set()
    for inst in instances(mode):
        engine = BUILD[mode](inst)
        walked = list(engine.walk())
        assert [node for node, _ in walked] == engine.ntd.postorder()
        assert len({node for node, _ in walked}) == engine.ntd.num_nodes
        root = walked[-1][1]
        fam = root.get(((), (), ()))
        res = engine.run()
        assert bool(fam) == res.decision
        if fam:
            (wit,) = fam.values()
            assert wit == res.witness
            assert len(wit) == res.minimum <= inst.k
        decisions.add(res.decision)
    assert decisions == {True, False}


@pytest.mark.parametrize("mode", ["block", "component"])
def test_every_family_value_is_a_deletion_set_within_the_budget(mode):
    """Each value is a frozenset of at most k vertices deleted below the
    bag: none of them lies in the bag."""
    values = 0
    for inst in instances(mode):
        engine = BUILD[mode](inst)
        for node, table in engine.walk():
            bag = set(engine.ntd.bags[node])
            for fam in table.values():
                for wit in fam.values():
                    assert type(wit) is frozenset
                    assert len(wit) <= inst.k
                    assert wit <= set(range(inst.graph.n)) - bag
                    values += 1
    assert values > 0


@pytest.mark.parametrize("mode", ["block", "component"])
def test_run_reads_a_verified_least_deletion_set(mode):
    yes = 0
    for inst in instances(mode):
        res = BUILD[mode](inst).run()
        if res.decision:
            assert verify_solution(inst.graph, res.witness, inst.d, inst.family, mode)
            assert len(res.witness) == res.minimum
            yes += 1
        else:
            assert res.witness is None and res.minimum is None
    assert yes > 0


@pytest.mark.parametrize("mode", ["block", "component"])
def test_a_solve_without_witness_returns_none(mode):
    for inst in instances(mode):
        res = SOLVE[mode](inst)
        assert res.witness is None
        assert res.minimum == SOLVE[mode](inst, witness=True).minimum


@pytest.mark.parametrize("mode", ["block", "component"])
def test_each_hypothesis_sits_at_its_units_position(mode):
    """gh[j] of every walked state is the (pattern mask, h mask) pair of
    unit j of the view of the surviving bag vertices: the slot hosts that
    unit's labeled shape and no attached label is one of the unit's."""
    slots = 0
    for inst in instances(mode):
        engine = BUILD[mode](inst)
        assert engine.canonize
        for node, table in engine.walk():
            bag = engine.ntd.bags[node]
            for xk, lk, gh in table:
                view = engine.view(v for v in bag if v not in xk)
                assert len(gh) == len(view.units)
                labs = dict(zip(view.keep, lk))
                for entry, unit, edges in zip(gh, view.units, view.unit_edges):
                    assert type(entry) is tuple and [type(x) for x in entry] == [int, int]
                    pats, hm = entry
                    assert pats and not pats & ~engine.compat_set(unit, edges, labs)
                    assert not hm & sum(1 << (labs[u] - 1) for u in unit)
                    slots += 1
    assert slots > 0


def symmetric_instances(mode: str) -> list[Instance]:
    """Instances at d = 4 and 5, where several labels are absent from most
    bags' L.

    The first of each d introduces vertex 0, next to vertex 1, into the
    bag {1, 2, 3} of a decomposition given with the graph.  That bag
    holds no unit in block mode, so its gh is () and every label swap
    fixes it, including swaps of the labels present in L, which the skip
    must not touch.  Seeded random instances follow.
    """
    rng = random.Random(16)
    out = []
    for d in (4, 5):
        td = TreeDecomposition((frozenset({0, 1, 2, 3}), frozenset({1, 2, 3})), ((0, 1),))
        out.append(Instance(Graph(4, [(0, 1)]), d, 1, "k1k2", mode, td))
        for _ in range(6):
            n = rng.randint(5, 9)
            g = random_graph(rng, n, rng.randint(n - 1, n * 3 // 2))
            family = rng.choice(["k1k2", "cliques", "chordal"])
            out.append(Instance(g, d, rng.randint(1, 3), family, mode))
    return out


@pytest.mark.parametrize("mode", ["block", "component"])
def test_skipping_tied_absent_labels_leaves_every_table_unchanged(mode, monkeypatch):
    """Introduce skips an absent label whose swap with the label below it
    fixes the child's hypotheses.  Every walked table, with its keys,
    partitions and deletion sets, equals the one built when no label is
    tied, and the skip saves canonized targets on some instance.

    Each walk starts on cleared caches: the universe memoizes the targets
    of every child state, and the untied walk must compute its own."""
    orbit = Engine._orbit
    canon = Engine.canon
    canons = {}

    def untied(self, lkey, gh):
        least, images, _ = orbit(self, lkey, gh)
        return least, images, ()

    def counted(self, lkey, gh):
        canons[tied] = canons.get(tied, 0) + 1
        return canon(self, lkey, gh)

    monkeypatch.setattr(Engine, "canon", counted)
    for inst in symmetric_instances(mode):
        tied = True
        clear_caches()
        skipped = list(BUILD[mode](inst).walk())
        tied = False
        clear_caches()
        with monkeypatch.context() as patch:
            patch.setattr(Engine, "_orbit", untied)
            every = list(BUILD[mode](inst).walk())
        assert [node for node, _ in skipped] == [node for node, _ in every]
        for (node, got), (_, want) in zip(skipped, every):
            assert got == want, (inst, node)
    assert canons[True] < canons[False]


@pytest.mark.parametrize("mode", ["block", "component"])
def test_no_walked_table_changes_after_it_is_yielded(mode):
    """Introduce passes a child's family on to the parent as it is where v
    is deleted, so one family object can sit in several tables.  No later
    node may change a table once the walk has yielded it: each one equals,
    in keys, partitions, deletion sets and order, a deep copy taken when
    it was yielded."""
    rng = random.Random(25)
    tables = 0
    for d in (3, 4, 5):
        for _ in range(5):
            n = rng.randint(6, 9)
            g = random_graph(rng, n, rng.randint(n - 1, n * 3 // 2))
            family = rng.choice(["k1k2", "cliques", "chordal"])
            inst = Instance(g, d, rng.randint(1, 3), family, mode)
            walked = [(table, copy.deepcopy(table)) for _, table in BUILD[mode](inst).walk()]
            for table, snapshot in walked:
                assert [(key, list(fam.items())) for key, fam in table.items()] == [
                    (key, list(fam.items())) for key, fam in snapshot.items()
                ], inst
                tables += 1
    assert tables > 0


def copying_merge(self, table: dict, key, fam: dict) -> None:
    """The reference merge: a private deep copy of the family, merged item
    by item, so no family object is ever shared."""
    target = table.get(key)
    for part, wit in copy.deepcopy(fam).items():
        if target is None:
            target = table[key] = {}
        else:
            old = target.get(part)
            if old is not None and len(old) <= len(wit):
                continue
        target[part] = wit


@pytest.mark.parametrize("mode", ["block", "component"])
def test_sharing_families_between_keys_changes_no_table(mode, monkeypatch):
    """``_merge`` stores a new key's family object as it is and copies a
    stored family only before changing it, so one family may sit under
    several keys.  Every table the walk yields, and every solve, must
    equal those built with private families merged item by item."""
    rng = random.Random(39)
    cases = []
    for d in (3, 4, 5):
        for _ in range(6):
            n = rng.randint(7, 11)
            g = random_graph(rng, n, rng.randint(n, 2 * n))
            family = rng.choice(["k1k2", "cliques", "chordal"])
            cases.append(Instance(g, d, rng.randint(1, 3), family, mode))

    def walk_all() -> list:
        return [
            [(node, [(key, list(fam.items())) for key, fam in table.items()])
             for node, table in BUILD[mode](inst).walk()]
            for inst in cases
        ]

    def solve_all() -> list:
        out = []
        for inst in cases:
            for witness in (False, True):
                res = SOLVE[mode](inst, witness=witness)
                out.append((res.decision, res.minimum, res.witness, res.stats))
        return out

    # the property is not vacuous: tables hold one family under several
    # keys, and in component mode a merge changes such a family
    seen = {"shared": 0, "changed": 0}
    merge = Engine._merge

    def counting_merge(self, table: dict, key, fam: dict) -> None:
        old = table.get(key)
        merge(self, table, key, fam)
        if old is not None and table[key] is not old:
            seen["changed"] += sum(f is old for f in table.values()) > 0

    monkeypatch.setattr(Engine, "_merge", counting_merge)
    for inst in cases:
        for _, table in BUILD[mode](inst).walk():
            seen["shared"] += len({id(fam) for fam in table.values()}) < len(table)
    assert seen["shared"] > 0
    assert seen["changed"] > 0 or mode == "block", seen
    monkeypatch.setattr(Engine, "_merge", merge)
    walked, solved = walk_all(), solve_all()
    monkeypatch.setattr(Engine, "_merge", copying_merge)
    assert walk_all() == walked
    assert solve_all() == solved
