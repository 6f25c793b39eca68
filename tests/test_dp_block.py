import pytest

from blockvd.characteristics import BoundariedGraph, aux_partition
from blockvd.decomposition import exact_td_small
from blockvd.dp_block import build_engine, solve_block
from blockvd.errors import InvalidInput
from blockvd.graph import Graph
from blockvd.instance import Instance
from blockvd.oracle import brute_force_solve, verify_solution

from conftest import BUILD, SOLVE, cycle, path, random_graph, star_of_bags


class TestSpecExamples:
    def test_c5_fvs(self):
        inst = Instance(cycle(5), 3, 1, "k1k2", "block")
        assert solve_block(inst).decision

    def test_c5_fvs_budget_zero(self):
        inst = Instance(cycle(5), 3, 0, "k1k2", "block")
        assert not solve_block(inst).decision

    @pytest.mark.parametrize("mode", ["block", "component"])
    def test_wrong_mode_rejected(self, mode):
        other = "component" if mode == "block" else "block"
        with pytest.raises(InvalidInput):
            SOLVE[mode](Instance(cycle(5), 3, 1, "k1k2", other))


class TestOracleAgreement:
    def test_random_batch(self, rng):
        for trial in range(40):
            n = rng.randint(4, 10)
            g = random_graph(rng, n, rng.randint(n - 1, int(n * 1.6)))
            d = rng.choice([2, 3, 4])
            k = rng.randint(0, 4)
            fam = rng.choice(["k1k2", "cliques", "chordal"])
            inst = Instance(g, d, k, fam, "block")
            want = brute_force_solve(inst)
            res, tracked = solve_block(inst), solve_block(inst, witness=True)
            case = (trial, n, d, k, fam, sorted(g.edges()))
            assert res.decision == (want is not None), case
            assert res.minimum == tracked.minimum == want, case
            if want is not None:
                assert len(tracked.witness) == want, case

    def test_canonize_off_matches(self, rng):
        for _ in range(12):
            g = random_graph(rng, 8, 10)
            inst = Instance(g, 3, 2, "chordal", "block")
            engine = build_engine(inst)
            engine.canonize = False
            assert solve_block(inst).decision == engine.run().decision


class TestWitness:
    def test_witness_verifies(self, rng):
        for _ in range(15):
            g = random_graph(rng, 9, 12)
            inst = Instance(g, 3, 3, "chordal", "block")
            res = solve_block(inst, witness=True)
            if res.decision:
                assert res.witness is not None
                assert len(res.witness) <= 3
                assert verify_solution(g, res.witness, 3, "chordal", "block")


class TestTableInvariants:
    def test_family_size_cap(self, rng):
        # every family kept after reduction obeys the m * 2^(m-1) bound
        g = random_graph(rng, 9, 11)
        inst = Instance(g, 3, 3, "chordal", "block")
        engine = build_engine(inst)
        for _, table in engine.walk():
            for key, fam in table.items():
                if not fam:
                    continue
                m = next(iter(fam)).m
                assert len(fam) <= max(1, m * (1 << max(m - 1, 0)))

    def test_reduce_table_runs_only_above_the_bound(self, rng):
        # m=6 has Bell(6) = 203 > 6 * 2^5 partitions, so the family is
        # reduced; every m=5 family fits under 5 * 2^4 and stays whole
        from blockvd.partitions import all_partitions, inc_is_forest
        from blockvd.repset import verify_representative

        engine = build_engine(Instance(path(3), 3, 1, "chordal", "block"))
        six, five = list(all_partitions(6)), list(all_partitions(5))
        assert (len(six), len(five)) == (203, 52)
        budget = {p: rng.randint(0, 3) for p in six}
        deleted = {p: frozenset(range(10, 10 + budget[p])) for p in six}
        big, small = ((), (1,) * 6, ()), ((), (1,) * 5, ())
        table = {
            big: dict(deleted),
            small: {p: frozenset() for p in five},
        }
        engine.reduce_table(table)
        kept = table[big]
        assert len(kept) <= 6 * (1 << 5)
        assert set(kept) <= set(six)
        assert all(kept[p] is deleted[p] for p in kept)
        assert verify_representative(6, six, list(kept))
        # weighted: every complement keeps its least budget
        for y in all_partitions(6):
            want = [budget[x] for x in six if inc_is_forest(6, [x, y])]
            got = [len(kept[x]) for x in kept if inc_is_forest(6, [x, y])]
            assert min(got, default=None) == min(want, default=None), y
        assert list(table[small]) == five

    def test_merge_keeps_the_least_budget_and_its_first_witness(self):
        from blockvd.partitions import Partition

        engine = build_engine(Instance(path(3), 3, 1, "chordal", "block"))
        key = ((),) + engine.canon((1,), ())
        part = Partition.singletons(1)
        pair, one, other = frozenset({5, 6}), frozenset({7}), frozenset({8})
        lowered: dict = {}
        engine._merge(lowered, key, [(part, pair)])
        engine._merge(lowered, key, [(part, one)])
        assert list(lowered.values()) == [{part: one}]
        kept: dict = {}
        engine._merge(kept, key, [(part, one), (part, pair)])
        assert list(kept.values()) == [{part: one}]
        # of equal budgets the first witness stays
        engine._merge(kept, key, [(part, other)])
        assert list(kept.values()) == [{part: one}]

    def test_witness_tables_consistent(self, rng):
        # stored witnesses replay: the partition matches the components of
        # the partial solution and the deletion count matches the budget
        for _ in range(6):
            g = random_graph(rng, 8, 10)
            inst = Instance(g, 3, 2, "chordal", "block")
            engine = build_engine(inst)
            ntd = engine.ntd
            # per node, the set of vertices seen below it
            below: dict[int, set[int]] = {}
            for node, table in engine.walk():
                bag = set(ntd.bags[node])
                below[node] = bag.union(*(below[c] for c in ntd.children[node]))
                for (xk, lk, gh), fam in table.items():
                    keep = [v for v in sorted(bag) if v not in set(xk)]
                    for part, deleted in fam.items():
                        assert type(deleted) is frozenset
                        assert len(deleted) <= inst.k
                        assert deleted <= below[node] - bag
                        live = below[node] - deleted - set(xk)
                        # partition mirrors component containment
                        sub = BoundariedGraph(
                            g, frozenset(live), frozenset(keep)
                        )
                        assert aux_partition(sub) == part
                        # the partial solution is a valid chordal-block graph
                        from blockvd.graph import biconnected_blocks, is_chordal

                        bd = biconnected_blocks(g, live)
                        assert all(len(b) <= 3 for b in bd)
                        assert is_chordal(Graph(g.n, [
                            e for e in g.edges() if set(e) <= live
                        ]))


class TestSteps:
    def _leaf_engine(self, g, d=3, k=1, fam="chordal"):
        inst = Instance(g, d, k, fam, "block")
        return build_engine(inst)

    def test_intro_isolated_vertex_extends_partition(self):
        g = Graph(2, [])
        engine = self._leaf_engine(g)
        # block mode packs nothing: every node's avoid mask is 0
        leaf = engine._leaf_table(0)
        t0 = engine._introduce((0,), 0, leaf, 0)
        # take any surviving state with vertex 0 labeled
        keys = [key for key in t0 if key[0] == ()]
        assert keys
        t1 = engine._introduce((0, 1), 1, t0, 0)
        for key in t1:
            if key[0] == ():
                fam = t1[key]
                for part in fam:
                    assert len(part) == 2
        assert any(key[0] == () for key in t1)

    def test_intro_two_linked_components_rejected(self):
        # v adjacent to two components that are already in one part
        g = Graph(3, [(0, 2), (1, 2)])
        inst = Instance(g, 3, 1, "chordal", "block")
        engine = build_engine(inst)
        from blockvd.partitions import Partition

        # child table: bag {0,1}, components {0} and {1} linked below
        linked = Partition.from_parts(2, [[0, 1]])
        state = ((),) + engine.canon((1, 1), ())
        child = {}
        engine._merge(child, state, [(linked, frozenset())])
        out = engine._introduce((0, 1, 2), 2, child, 0)
        for key, fam in out.items():
            if key[0] == ():  # vertex 2 not deleted
                assert not fam
        # the unlinked partition survives
        child2 = {}
        engine._merge(child2, state, [(Partition.singletons(2), frozenset())])
        out2 = engine._introduce((0, 1, 2), 2, child2, 0)
        assert any(key[0] == () and out2[key] for key in out2)

    def test_reduced_introduce_forget_and_join(self):
        g = path(3)
        inst = Instance(g, 3, 1, "chordal", "block")
        engine = build_engine(inst)
        t0 = engine._introduce((1,), 1, engine._leaf_table(0), 0)
        unreduced = {key: list(fam) for key, fam in t0.items()}
        engine.reduce_table(t0)
        # families within the representative-set bound stay whole
        assert {key: list(fam) for key, fam in t0.items()} == unreduced
        t1 = engine._introduce((0, 1), 0, t0, 0)
        engine.reduce_table(t1)
        # forget vertex 0: the partition collapses back to one component
        t2 = engine._forget((1,), 0, t1)
        engine.reduce_table(t2)
        fam = t2[next(k for k in sorted(t2) if k[0] == ())]
        assert fam and all(p.m == 1 for p in fam)
        # joining a branch with itself keeps the single-component family
        t3 = engine._join((1,), t2, t2, 0)
        engine.reduce_table(t3)
        jfam = next(t3[k] for k in sorted(t3) if k[0] == ())
        assert jfam and all(p.m == 1 for p in jfam)
        assert frozenset() in jfam.values()


class TestDegenerate:
    def test_d1_is_vertex_cover(self, rng):
        for _ in range(10):
            g = random_graph(rng, 7, 9)
            for k in range(4):
                inst = Instance(g, 1, k, "chordal", "block")
                want = brute_force_solve(inst) is not None
                assert solve_block(inst).decision == want

    def test_empty_graph(self):
        inst = Instance(Graph(0), 2, 0, "chordal", "block")
        assert solve_block(inst).decision

    def test_uses_given_td(self):
        g = cycle(6)
        inst = Instance(g, 3, 1, "k1k2", "block", td=exact_td_small(g))
        assert solve_block(inst).decision


class TestStructuredAdversaries:
    """Graph shapes that stress specific transition paths."""

    def _agree(self, g, d, k, fam):
        for mode, solver in SOLVE.items():
            inst = Instance(g, d, k, fam, mode)
            want = brute_force_solve(inst) is not None
            assert solver(inst).decision == want, (mode, d, k, fam, sorted(g.edges()))

    def test_theta_graphs(self, rng):
        # two hubs joined by three paths: fused blocks sink piecewise
        for _ in range(8):
            edges = []
            nid = 2
            for ln in [rng.randint(1, 3) for _ in range(3)]:
                prev = 0
                for _ in range(ln):
                    edges.append((prev, nid))
                    prev = nid
                    nid += 1
                edges.append((prev, 1))
            g = Graph(nid, edges)
            self._agree(g, rng.choice([3, 4]), rng.randint(0, 3), "chordal")

    def test_triangle_chains(self, rng):
        # triangles linked by cut paths: multi-piece sinking with patterns
        for _ in range(8):
            edges = [(0, 1), (1, 2), (0, 2)]
            n = rng.randint(6, 11)
            prev, v = 2, 3
            while v < n - 2:
                edges.append((prev, v))
                prev = v
                v += 1
            if v + 1 < n:
                edges += [(prev, v), (v, v + 1), (prev, v + 1)]
                n = v + 2
            else:
                n = v
            g = Graph(n, edges)
            self._agree(g, rng.choice([2, 3]), rng.randint(0, 3), rng.choice(["cliques", "chordal"]))

    def test_disjoint_unions(self, rng):
        for _ in range(6):
            base, edges = 0, []
            for _ in range(rng.randint(2, 3)):
                m = rng.randint(1, 5)
                for i in range(m):
                    for j in range(i + 1, m):
                        if rng.random() < 0.7:
                            edges.append((base + i, base + j))
                base += m
            g = Graph(base, edges)
            self._agree(g, rng.choice([2, 3]), rng.randint(0, 3), "chordal")

    def test_cycles_family_at_d3(self, rng):
        for _ in range(6):
            n = rng.randint(4, 9)
            edges = {(i, (i + 1) % n) for i in range(n)}
            for _ in range(rng.randint(0, 2)):
                u, v = rng.sample(range(n), 2)
                edges.add((min(u, v), max(u, v)))
            g = Graph(n, {(min(a, b), max(a, b)) for a, b in edges})
            self._agree(g, 3, rng.randint(0, 2), "cycles")


class TestJoinHeavyDecompositions:
    def test_star_of_bags(self, rng):
        # hand-built decompositions with many join nodes around one center
        from blockvd.decomposition import to_nice, validate_td

        for _ in range(12):
            g, td = star_of_bags(rng)
            assert validate_td(g, td) is None
            ntd = to_nice(td, g)
            assert sum(1 for kk in ntd.kinds if kk == "join") >= 2
            d = rng.choice([2, 3])
            k = rng.randint(0, 3)
            for mode, solver in SOLVE.items():
                inst = Instance(g, d, k, "chordal", mode, td=td)
                assert BUILD[mode](inst).ntd == ntd
                want = brute_force_solve(inst) is not None
                assert solver(inst).decision == want
