import random
from itertools import combinations

import pytest

from blockvd import selfcheck
from blockvd.characteristics import (
    BoundariedGraph,
    aux_partition,
    nontrivial_boundary_blocks,
    sum_boundaried,
)
from blockvd.errors import IncompatibleBoundary, InvalidInput
from blockvd.graph import (
    Graph,
    biconnected_blocks,
    connected_components,
    induced_edges,
    induced_masks,
    is_chordal,
    read_gr,
    write_gr,
)
from blockvd.partitions import Partition, inc_is_forest

from conftest import complete, cycle, path, random_chordal, random_graph


def find_chordless_cycle(g: Graph) -> list[int] | None:
    """Slow cross-check of ``is_chordal``: an induced cycle of length >= 4,
    found by extending induced paths by brute force, or None."""

    def extend(path: list[int]) -> list[int] | None:
        head = path[-1]
        start = path[0]
        for w in g.neighbors(head):
            if w in path:
                continue
            # w must be non-adjacent to all of path except the head,
            # with the start allowed once the cycle is long enough
            if any(g.has_edge(w, p) for p in path[1:-1]):
                continue
            closes = g.has_edge(w, start)
            if closes and len(path) >= 3:
                return path + [w]
            if not closes:
                found = extend(path + [w])
                if found is not None:
                    return found
        return None

    for a in range(g.n):
        for b in g.neighbors(a):
            if b > a:
                cyc = extend([a, b])
                if cyc is not None:
                    return cyc
    return None


def test_masks_hold_the_neighbours():
    rng = random.Random(4)
    for n in range(12):
        g = random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
        assert g.masks == tuple(sum(1 << w for w in g.neighbors(v)) for v in range(n))


class TestComponents:
    def test_empty(self):
        assert connected_components(Graph(0)) == []

    def test_two_edges(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert connected_components(g) == [frozenset({0, 1}), frozenset({2, 3})]

    def test_cycle_connected(self):
        assert connected_components(cycle(5)) == [frozenset(range(5))]

    def test_within(self):
        g = path(5)
        assert connected_components(g, [0, 1, 3, 4]) == [
            frozenset({0, 1}),
            frozenset({3, 4}),
        ]


@pytest.mark.parametrize("bad", [-1, 3], ids=["negative", "n"])
@pytest.mark.parametrize(
    "call",
    [
        lambda g, v: connected_components(g, [0, v]),
        lambda g, v: biconnected_blocks(g, [0, v]),
        lambda g, v: is_chordal(g, [0, v]),
        lambda g, v: induced_masks(g, [0, v]),
        lambda g, v: BoundariedGraph(g, frozenset({0, v}), frozenset({0})),
    ],
    ids=["connected_components", "biconnected_blocks", "is_chordal", "induced_masks",
         "BoundariedGraph"],
)
def test_vertex_ids_outside_the_graph_are_rejected(call, bad):
    # -1 used to stand for vertex 2 through negative indexing, and 3 used
    # to raise a bare IndexError
    with pytest.raises(InvalidInput, match="outside 0..2"):
        call(path(3), bad)


def shared_vertices(blocks: list[frozenset[int]]) -> set[int]:
    """The vertices that lie in two or more of the blocks."""
    seen: set[int] = set()
    shared: set[int] = set()
    for blk in blocks:
        shared |= seen & blk
        seen |= blk
    return shared


class TestBlocks:
    def test_triangle_with_pendant(self):
        g = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        bd = biconnected_blocks(g)
        assert set(bd) == {frozenset({0, 1, 2}), frozenset({2, 3})}
        assert shared_vertices(bd) == {2}

    def test_path(self):
        bd = biconnected_blocks(path(4))
        assert set(bd) == {
            frozenset({0, 1}),
            frozenset({1, 2}),
            frozenset({2, 3}),
        }
        assert shared_vertices(bd) == {1, 2}

    def test_k4(self):
        bd = biconnected_blocks(complete(4))
        assert bd == [frozenset({0, 1, 2, 3})]

    def test_isolated_are_singleton_blocks(self):
        g = Graph(3, [(0, 1)])
        bd = biconnected_blocks(g)
        assert frozenset({2}) in bd

    def _brute_blocks(self, g: Graph):
        """Maximal vertex sets inducing biconnected subgraphs."""

        def biconn(vs):
            sub = connected_components(g, vs)
            if len(sub) != 1:
                return False
            if len(vs) <= 2:
                return len(vs) == 1 or g.has_edge(*sorted(vs))
            return all(
                len(connected_components(g, set(vs) - {v})) == 1 for v in vs
            )

        cands = []
        verts = list(range(g.n))
        for size in range(1, g.n + 1):
            for vs in combinations(verts, size):
                if biconn(set(vs)):
                    cands.append(frozenset(vs))
        return {c for c in cands if not any(c < other for other in cands)}

    def test_matches_brute_force_on_random(self):
        rng = random.Random(1)
        for _ in range(25):
            n = rng.randint(1, 8)
            g = random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
            assert set(biconnected_blocks(g)) == self._brute_blocks(g)

    def test_cut_vertices_match_definition(self):
        # a vertex lies in two or more blocks exactly when removing it
        # adds a component
        rng = random.Random(2)
        for _ in range(25):
            n = rng.randint(2, 9)
            g = random_graph(rng, n, rng.randint(0, n * 2))
            base = len(connected_components(g))
            cuts = {
                v
                for v in range(n)
                if len(connected_components(g, set(range(n)) - {v})) > base
            }
            assert shared_vertices(biconnected_blocks(g)) == cuts


class TestChordal:
    def test_c4_not_chordal(self):
        assert not is_chordal(cycle(4))

    def test_complete_chordal(self):
        for n in range(1, 6):
            assert is_chordal(complete(n))

    def test_c5_plus_chord_keeps_c4(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
        assert not is_chordal(g)
        assert find_chordless_cycle(g) is not None

    def test_against_slow_oracle(self):
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(3, 9)
            g = random_graph(rng, n, rng.randint(0, n * 2))
            assert is_chordal(g) == (find_chordless_cycle(g) is None)

    def test_generator_makes_chordal(self):
        rng = random.Random(4)
        for _ in range(30):
            assert is_chordal(random_chordal(rng, rng.randint(1, 10)))

    def test_selftest_generator_makes_chordal_on_every_seed(self):
        # the tests draw from the generators selftest uses
        assert (random_chordal, random_graph) == (
            selfcheck.random_chordal, selfcheck.random_graph
        )
        # the cross-check, not is_chordal, judges each draw
        for seed in range(2000):
            rng = random.Random(seed)
            g = selfcheck.random_chordal(rng, rng.randint(2, 7))
            assert find_chordless_cycle(g) is None, seed

    def test_selftest_random_graph_caps_the_edge_count(self):
        assert selfcheck.random_graph(random.Random(0), 4, 10) == complete(4)

    def test_separator_bijection(self):
        # components of G[N(X)] correspond one-to-one to components of G-X
        rng = random.Random(5)
        for _ in range(40):
            g = random_chordal(rng, rng.randint(2, 12))
            if len(connected_components(g)) != 1:
                continue
            n = g.n
            xs = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
            if len(connected_components(g, xs)) != 1:
                continue
            nbhd = {
                w for x in xs for w in g.neighbors(x) if w not in xs
            }
            ncomps = connected_components(g, nbhd)
            gcomps = connected_components(g, set(range(n)) - set(xs))
            assert len(ncomps) == len(gcomps)
            for nc in ncomps:
                owners = [gc for gc in gcomps if nc <= gc]
                assert len(owners) == 1


class TestSum:
    def test_idempotent_on_shared_edge(self):
        a = BoundariedGraph(Graph(2, [(0, 1)]), frozenset({0, 1}), frozenset({0, 1}))
        total = sum_boundaried(a, a)
        assert total.edges() == frozenset({(0, 1)})

    def test_four_cycle_from_two_paths(self):
        # paths 2-0-1 and 0-3-1 glued on {0,1} make the 4-cycle 0-2-1-3
        ga = Graph(3, [(0, 2), (2, 1)])
        gb = Graph(4, [(0, 3), (3, 1)])
        a = BoundariedGraph(ga, frozenset({0, 1, 2}), frozenset({0, 1}))
        b = BoundariedGraph(gb, frozenset({0, 1, 3}), frozenset({0, 1}))
        total = sum_boundaried(a, b)
        assert total.edges() == frozenset({(0, 2), (1, 2), (0, 3), (1, 3)})
        assert not is_chordal(total)

    def test_figure_example(self):
        # two hand-copied labeled graphs glued along a three-vertex boundary
        ga = Graph(
            6,
            [(0, 1), (1, 2), (0, 3), (3, 4), (4, 0), (3, 5), (5, 4), (4, 1), (4, 2)],
        )
        gb_edges = [
            (0, 1),
            (1, 2),
            (6, 0),
            (0, 7),
            (7, 1),
            (1, 8),
            (8, 2),
            (6, 7),
            (7, 8),
            (8, 9),
            (9, 7),
        ]
        gb = Graph(10, gb_edges)
        a = BoundariedGraph(ga, frozenset(range(6)), frozenset({0, 1, 2}))
        b = BoundariedGraph(gb, frozenset({0, 1, 2, 6, 7, 8, 9}), frozenset({0, 1, 2}))
        total = sum_boundaried(a, b)
        live = {v for e in total.edges() for v in e}
        assert len(live) == 10
        assert total.edges() == frozenset(
            (min(u, v), max(u, v)) for u, v in list(ga.edges()) + gb_edges
        )

    def test_commutative(self):
        rng = random.Random(6)
        for _ in range(20):
            ga = random_graph(rng, 5, 6)
            boundary = frozenset(rng.sample(range(5), 2))
            bedges = {e for e in ga.edges() if set(e) <= boundary}
            gb = Graph(7, sorted(bedges | {(min(b), 5), (max(b), 6)} if (b := sorted(boundary)) else set()))
            a = BoundariedGraph(ga, frozenset(range(5)), boundary)
            b = BoundariedGraph(gb, boundary | {5, 6}, boundary)
            assert sum_boundaried(a, b) == sum_boundaried(b, a)

    def test_incompatible_boundary(self):
        a = BoundariedGraph(Graph(2, [(0, 1)]), frozenset({0, 1}), frozenset({0, 1}))
        b = BoundariedGraph(Graph(2, []), frozenset({0, 1}), frozenset({0, 1}))
        with pytest.raises(IncompatibleBoundary):
            sum_boundaried(a, b)

    def test_overlapping_insides_rejected(self):
        g = Graph(3, [(0, 1), (1, 2)])
        a = BoundariedGraph(g, frozenset({0, 1, 2}), frozenset({0}))
        b = BoundariedGraph(g, frozenset({0, 1, 2}), frozenset({0}))
        with pytest.raises(IncompatibleBoundary):
            sum_boundaried(a, b)


class TestAuxPartition:
    def test_two_disjoint_edges(self):
        g = Graph(4, [(0, 1), (2, 3)])
        bg = BoundariedGraph.whole(g, {0, 1, 2, 3})
        assert aux_partition(bg) == Partition.from_parts(2, [[0], [1]])

    def test_connected_host_single_part(self):
        g = Graph(5, [(0, 4), (4, 2)])
        bg = BoundariedGraph.whole(g, {0, 2})
        assert aux_partition(bg) == Partition.from_parts(2, [[0, 1]])

    def test_figure_graph(self):
        # upper labeled graph of the non-isomorphic-sum figure: two boundary
        # edges joined through an outside path, so one part
        g = Graph(
            7,
            [(0, 1), (0, 4), (1, 4), (2, 3), (2, 5), (3, 5), (4, 6), (6, 5)],
        )
        bg = BoundariedGraph.whole(g, {0, 1, 2, 3})
        assert aux_partition(bg) == Partition.from_parts(2, [[0, 1]])


class TestChordalSumEquivalence:
    def test_cycle_in_aux_iff_not_chordal(self, rng):
        # when every fused block is chordal, chordality of the sum is the
        # acyclicity of the joint incidence structure
        from blockvd.selfcheck import random_compatible_chordal_pair

        done = 0
        while done < 120:
            pair = random_compatible_chordal_pair(rng)
            if pair is None:
                continue
            a, b = pair
            total = sum_boundaried(a, b)
            bd = biconnected_blocks(total)
            bedges = induced_edges(total, a.boundary)
            sblocks = [
                blk
                for blk in bd
                if any(u in blk and v in blk for (u, v) in bedges)
            ]
            if not all(is_chordal(total, blk) for blk in sblocks):
                continue
            done += 1
            m = len(
                connected_components(a.host, a.boundary)
            )
            forest = inc_is_forest(m, [aux_partition(a), aux_partition(b)])
            assert is_chordal(total) == forest


class TestGrIO:
    def test_round_trip(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        assert read_gr(write_gr(g)) == g

    def test_comments_ignored(self):
        g = read_gr("c hello\np tw 3 1\nc mid\n1 3\n")
        assert g.n == 3 and g.edges() == frozenset({(0, 2)})

    @pytest.mark.parametrize(
        "text",
        [
            "p tw 3 x\n",  # non-integer header field
            "p tw 3 1\n1\n",  # edge line with one token
            "p tw 3 1\n1 2 3\n",  # edge line with three tokens
            "p tw 3 1\n1 x\n",  # non-integer vertex
            "p tw 3 2\n1 2\n1 2\n",  # repeated edge
            "p tw 3 2\n1 2\n2 1\n",  # repeated edge, reversed
            "p tw 3 2\np tw 4 2\n1 2\n2 3\n",  # second problem line
            "p tw 3 1\n0 1\n",  # vertex 0 below the 1-based range
            "p tw 3 1\n1 4\n",  # vertex above n
            "1 4\np tw 3 1\n",  # vertex above n, edge before the problem line
            "p tw 3 1\n2 2\n",  # self-loop
        ],
    )
    def test_malformed_raises_invalid_input(self, text):
        with pytest.raises(InvalidInput):
            read_gr(text)


class TestSBlockLemmas:
    """Structural facts about fused blocks used by the dynamic program."""

    def _forest_pairs(self, rng, count):
        from blockvd.selfcheck import random_compatible_chordal_pair

        done = 0
        while done < count:
            pair = random_compatible_chordal_pair(rng)
            if pair is None:
                continue
            a, b = pair
            m = len(connected_components(a.host, a.boundary))
            if not inc_is_forest(m, [aux_partition(a), aux_partition(b)]):
                continue
            done += 1
            yield a, b

    @staticmethod
    def _s_blocks(g, vertices, boundary):
        bd = biconnected_blocks(g, vertices)
        bedges = induced_edges(g, boundary & frozenset(vertices))
        return [
            blk
            for blk in bd
            if any(u in blk and v in blk for (u, v) in bedges)
        ]

    def test_sum_sblock_edges_come_from_side_sblocks(self, rng):
        # with an acyclic joint incidence structure, every edge of a fused
        # boundary block already lay in a boundary block of one side
        for a, b in self._forest_pairs(rng, 60):
            total = sum_boundaried(a, b)
            side_edges = set()
            for side in (a, b):
                for blk in self._s_blocks(side.host, side.vertices, side.boundary):
                    side_edges |= induced_edges(side.host, blk)
            for blk in self._s_blocks(total, frozenset(range(total.n)), a.boundary):
                for e in induced_edges(total, blk):
                    assert e in side_edges

    def test_tag_propagation_across_fused_blocks(self, rng):
        # tags constant on each side's boundary blocks stay constant on the
        # fused boundary blocks of the sum
        for a, b in self._forest_pairs(rng, 60):
            bblocks = nontrivial_boundary_blocks(a)
            if len(bblocks) < 2:
                continue
            # tag classes: boundary blocks sharing a side S-block share a tag
            parent = {i: i for i in range(len(bblocks))}

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for side in (a, b):
                for blk in self._s_blocks(side.host, side.vertices, side.boundary):
                    owners = [
                        i for i, bb in enumerate(bblocks) if bb <= blk
                    ]
                    for i in owners[1:]:
                        parent[find(i)] = find(owners[0])
            total = sum_boundaried(a, b)
            for blk in self._s_blocks(total, frozenset(range(total.n)), a.boundary):
                owners = [i for i, bb in enumerate(bblocks) if bb <= blk]
                assert len({find(i) for i in owners}) <= 1

    def test_aux_restriction_stays_forest(self, rng):
        # restricting the two sides to one fused block keeps the joint
        # incidence structure acyclic
        for a, b in self._forest_pairs(rng, 60):
            total = sum_boundaried(a, b)
            for blk in self._s_blocks(total, frozenset(range(total.n)), a.boundary):
                sf = blk & a.boundary
                fa = BoundariedGraph(a.host, frozenset(blk & a.vertices), frozenset(sf))
                fb = BoundariedGraph(b.host, frozenset(blk & b.vertices), frozenset(sf))
                m = len(fa.boundary_components())
                assert inc_is_forest(m, [aux_partition(fa), aux_partition(fb)])
