import pytest

from blockvd.decomposition import TreeDecomposition, exact_td_small, validate_td
from blockvd.errors import BadSequence, InvalidInput, NotAClique, NotAnIS
from blockvd.gadgets import (
    GridISInstance,
    chain_path_decomposition,
    gadget_chain,
    gen_clique_instance,
    gen_fixed_d,
    gen_subgraph_iso_instance,
    gen_unbounded_d,
    phi,
)
from blockvd.characteristics import induced_edges, is_chordal
from blockvd.graph import Graph, biconnected_blocks, connected_components
from blockvd.oracle import verify_solution


class TestPhi:
    def test_figure_sequence(self):
        pairs = [(1, 4), (2, 1), (2, 3), (3, 2), (3, 5), (4, 4), (5, 1), (5, 3)]
        assert sorted(phi(a, b, 5) for a, b in pairs) == [
            12, 18, 24, 36, 45, 57, 63, 69,
        ]

    def test_minimum(self):
        for t in range(1, 8):
            assert phi(1, 1, t) == 3

    def test_injective(self):
        for t in range(1, 9):
            vals = {
                phi(a, b, t)
                for a in range(1, t + 1)
                for b in range(1, t + 1)
            }
            assert len(vals) == t * t
            assert max(vals) == 3 * t * t

    def test_range_violation(self):
        with pytest.raises(InvalidInput):
            phi(0, 1, 3)
        with pytest.raises(InvalidInput):
            phi(1, 4, 3)


class TestGadgetChain:
    def test_small_chain_sizes(self):
        ch = gadget_chain([3, 6])
        assert ch.n == 7
        g = Graph(ch.n, ch.edges)
        rem = set(range(ch.n)) - {ch.selectors[0]}
        sizes = sorted(len(c) for c in connected_components(g, rem))
        assert sizes == [3, 3]

    def test_propagator_sizes(self):
        for t in (1, 2, 4):
            h = gadget_chain([3 * q for q in range(1, t + 2)])
            assert h.n == 3 * (t + 1) + 1
            ht = gadget_chain([3 * t * q for q in range(1, t + 2)])
            assert ht.n == 3 * t * (t + 1) + 1

    def test_left_sizes_on_random_sequences(self, rng):
        for _ in range(20):
            xs = [rng.randint(3, 6)]
            for _ in range(rng.randint(1, 5)):
                xs.append(xs[-1] + rng.randint(3, 7))
            ch = gadget_chain(xs)
            assert ch.n == xs[-1] + 1
            g = Graph(ch.n, ch.edges)
            assert is_chordal(g)
            for q, u in enumerate(ch.selectors, start=1):
                comps = connected_components(g, set(range(ch.n)) - {u})
                assert len(comps) == 2
                sizes = sorted(len(c) for c in comps)
                left = ch.left_sizes[q - 1]
                assert sorted([left, xs[-1] - left]) == sizes

    def test_bad_sequences(self):
        with pytest.raises(BadSequence):
            gadget_chain([2, 6])
        with pytest.raises(BadSequence):
            gadget_chain([3, 5])
        with pytest.raises(BadSequence):
            gadget_chain([3])

    def test_chain_pd(self, rng):
        for _ in range(10):
            xs = [rng.randint(3, 6)]
            for _ in range(rng.randint(1, 4)):
                xs.append(xs[-1] + rng.randint(3, 6))
            ch = gadget_chain(xs)
            g = Graph(ch.n, ch.edges)
            bags = chain_path_decomposition(ch)
            td = TreeDecomposition(
                tuple(bags), tuple((i, i + 1) for i in range(len(bags) - 1))
            )
            assert validate_td(g, td) is None
            assert max(len(b) for b in bags) <= 4


class TestGridInstance:
    def test_minimal_has_row_column_pairs(self):
        grid = GridISInstance.minimal(3)
        assert frozenset(((1, 1), (1, 3))) in grid.edges
        assert frozenset(((1, 2), (3, 2))) in grid.edges

    def test_missing_pairs_rejected(self):
        with pytest.raises(InvalidInput):
            GridISInstance(2, frozenset())

    def test_permutation_check(self):
        grid = GridISInstance.minimal(2)
        assert grid.is_permutation_independent_set([1, 2])
        assert grid.is_permutation_independent_set([2, 1])
        assert not grid.is_permutation_independent_set([1, 1])
        extra = GridISInstance.minimal(2, [frozenset(((1, 1), (2, 2)))])
        assert not extra.is_permutation_independent_set([1, 2])


class TestGenFixedD:
    def test_counts_and_planted(self):
        grid = GridISInstance.minimal(2)
        gen = gen_fixed_d(grid, 4, "component", planted=[1, 2])
        g = gen.instance.graph
        assert g.n == ((3 * 4 - 2) * 4 + 4) * 4 == 176
        assert gen.instance.k == 80
        assert len(gen.planted) == 80
        assert validate_td(g, gen.instance.td) is None
        assert max(len(b) for b in gen.instance.td.bags) <= gen.meta["bag_bound"]
        assert verify_solution(g, gen.planted, 4, "cycles", "component")

    def test_component_variant_leaves_cd_cycles(self):
        grid = GridISInstance.minimal(2)
        for d in (4, 5):
            gen = gen_fixed_d(grid, d, "component", planted=[2, 1])
            g = gen.instance.graph
            rem = set(range(g.n)) - gen.planted
            for comp in connected_components(g, rem):
                assert len(comp) == d
                assert all(
                    sum(1 for w in g.neighbors(u) if w in comp) == 2 for u in comp
                )

    def test_block_variant_blocks(self):
        grid = GridISInstance.minimal(2)
        gen = gen_fixed_d(grid, 4, "block", planted=[1, 2])
        g = gen.instance.graph
        rem = set(range(g.n)) - gen.planted
        for blk in biconnected_blocks(g, rem):
            ie = induced_edges(g, blk)
            assert (len(blk), len(ie)) in ((2, 1), (4, 4), (1, 0))
        assert verify_solution(g, gen.planted, 4, "cycles", "block")

    def test_bad_planted(self):
        grid = GridISInstance.minimal(2)
        with pytest.raises(NotAnIS):
            gen_fixed_d(grid, 4, "component", planted=[1, 1])

    def test_piece_treewidth_within_bound(self):
        # a single cell gadget plus its selector contacts stays tiny
        grid = GridISInstance.minimal(2)
        gen = gen_fixed_d(grid, 4, "component")
        g = gen.instance.graph
        # cell gadget vertex ids: first block, first cell
        cell = list(range(2 * 2, 2 * 2 + 10))
        sub_ids = cell + [0, 2]
        remap = {v: i for i, v in enumerate(sub_ids)}
        sub = Graph(
            len(sub_ids),
            [
                (remap[u], remap[v])
                for (u, v) in g.edges()
                if u in remap and v in remap
            ],
        )
        assert exact_td_small(sub).width <= gen.meta["bag_bound"] - 1


class TestGenUnboundedD:
    def _clique_fixture(self):
        ev = {
            (1, 2): [(1, 2), (2, 1)],
            (1, 3): [(1, 1), (2, 2)],
            (2, 3): [(2, 1), (1, 2)],
        }
        return gen_clique_instance(3, 2, ev, planted=[1, 2, 1])

    def test_closed_forms(self):
        gen = self._clique_fixture()
        assert gen.instance.graph.n == 180
        assert gen.instance.d == 21
        assert gen.instance.k == 12
        assert len(gen.planted) == 12

    def test_planted_components(self):
        gen = self._clique_fixture()
        g = gen.instance.graph
        rem = set(range(g.n)) - gen.planted
        comps = connected_components(g, rem)
        assert all(len(c) == 21 for c in comps)
        assert all(is_chordal(g, c) for c in comps)
        assert verify_solution(g, gen.planted, 21, "chordal", "component")

    def test_path_decomposition(self):
        gen = self._clique_fixture()
        assert validate_td(gen.instance.graph, gen.instance.td) is None
        assert gen.instance.td.width <= 54 * 3 - 69

    def test_unequal_edge_counts_rejected(self):
        ev = {
            (1, 2): [(1, 2)],
            (1, 3): [(1, 1), (2, 2)],
            (2, 3): [(2, 1), (1, 2)],
        }
        with pytest.raises(InvalidInput):
            gen_clique_instance(3, 2, ev)

    def test_bad_planted_rejected(self):
        ev = {
            (1, 2): [(1, 2)],
            (1, 3): [(1, 1)],
            (2, 3): [(2, 1)],
        }
        with pytest.raises(NotAClique):
            gen_clique_instance(3, 2, ev, planted=[1, 1, 1])

    def test_subgraph_iso(self):
        gen = gen_subgraph_iso_instance(
            host_edges=[(1, 2), (2, 3), (1, 3)],
            host_size=3,
            pattern_edges=[(1, 2), (2, 3), (1, 3)],
            pattern_size=3,
            planted=[1, 2, 3],
        )
        g = gen.instance.graph
        assert validate_td(g, gen.instance.td) is None
        assert verify_solution(
            g, gen.planted, gen.instance.d, "chordal", "component"
        )
        rem = set(range(g.n)) - gen.planted
        assert all(
            len(c) == gen.instance.d for c in connected_components(g, rem)
        )

    def test_missing_host_edge_rejected(self):
        with pytest.raises(NotAClique):
            gen_subgraph_iso_instance(
                host_edges=[(1, 2), (2, 3)],
                host_size=3,
                pattern_edges=[(1, 2), (2, 3), (1, 3)],
                pattern_size=3,
                planted=[1, 2, 3],
            )

    def test_short_planted_map_rejected_before_its_host_edges_are_read(self):
        with pytest.raises(NotAClique, match="planted selection"):
            gen_subgraph_iso_instance(
                host_edges=[(1, 2)],
                host_size=2,
                pattern_edges=[(1, 2)],
                pattern_size=2,
                planted=[1],
            )

    def test_no_gadget_to_place_rejected(self):
        # k = 2 has no diagonal gadget, so no selected pair leaves nothing
        with pytest.raises(InvalidInput, match="no gadget"):
            gen_unbounded_d(2, 2, {}, si_pairs=[])
        with pytest.raises(InvalidInput, match="no gadget"):
            gen_subgraph_iso_instance(
                host_edges=[(1, 2)], host_size=2, pattern_edges=[], pattern_size=2
            )

    def test_larger_clique_instance(self):
        # k=4, t=2 exercises the scripted bag structure with a real join graph
        ev = {}
        for i in range(1, 5):
            for j in range(i + 1, 5):
                ev[(i, j)] = [(1, 1), (2, 2)]
        gen = gen_clique_instance(4, 2, ev, planted=[1, 1, 1, 1])
        g = gen.instance.graph
        assert g.n == (2 * 21 + 3) * (10 - 2)
        assert gen.instance.k == 3 * 10 - 6
        assert validate_td(g, gen.instance.td) is None
        assert gen.instance.td.width <= 54 * 4 - 69
        assert verify_solution(g, gen.planted, 21, "chordal", "component")


def has_clique(cg, gamma) -> bool:
    """Do the members gamma[i - 1] of the classes i form a clique of cg?"""
    return all(
        ((i, gamma[i - 1]), (j, gamma[j - 1])) in cg.edges
        for i in range(1, cg.k + 1)
        for j in range(i + 1, cg.k + 1)
    )


class TestColoredGraph:
    def test_validation(self):
        from blockvd.gadgets import ColoredGraph

        cg = ColoredGraph.from_pair_lists(
            3, 2, {(1, 2): [(1, 2)], (1, 3): [(1, 1)], (2, 3): [(2, 1)]}
        )
        assert has_clique(cg, [1, 2, 1])
        assert not has_clique(cg, [2, 2, 1])
        with pytest.raises(InvalidInput):
            ColoredGraph.from_pair_lists(
                3, 2, {(1, 2): [(1, 2), (2, 2)], (1, 3): [(1, 1)], (2, 3): [(2, 1)]}
            )
        with pytest.raises(InvalidInput):
            ColoredGraph.from_pair_lists(2, 2, {(2, 1): [(1, 1)]})

    def test_colored_graph_entry_point(self):
        from blockvd.gadgets import ColoredGraph

        cg = ColoredGraph.from_pair_lists(
            3,
            2,
            {
                (1, 2): [(1, 2), (2, 1)],
                (1, 3): [(1, 1), (2, 2)],
                (2, 3): [(2, 1), (1, 2)],
            },
        )
        gen = gen_clique_instance(cg.k, cg.t, cg.pair_lists(), planted=[1, 2, 1])
        assert gen.instance.graph.n == 180
        assert len(gen.planted) == 12


class TestLargerInstances:
    def test_clique_k5_t3_width_meets_bound(self):
        from blockvd.gadgets import ColoredGraph

        ev = {}
        for i in range(1, 6):
            for j in range(i + 1, 6):
                ev[(i, j)] = [(1, 1), (2, 2), (3, 3)]
        cg = ColoredGraph.from_pair_lists(5, 3, ev)
        gen = gen_clique_instance(cg.k, cg.t, cg.pair_lists(), planted=[3, 3, 3, 3, 3])
        g = gen.instance.graph
        d = gen.instance.d
        assert d == 3 * 9 + 3 * 3 + 3
        assert g.n == (2 * d + 3) * (15 - 2)
        assert gen.instance.k == 3 * 15 - 6
        assert validate_td(g, gen.instance.td) is None
        assert gen.instance.td.width <= 54 * 5 - 69
        rem = set(range(g.n)) - gen.planted
        assert all(len(c) == d for c in connected_components(g, rem))
        assert verify_solution(g, gen.planted, d, "chordal", "component")

    def test_grid_k3_d5(self):
        grid = GridISInstance.minimal(3)
        gen = gen_fixed_d(grid, 5, "block", planted=[2, 3, 1])
        g = gen.instance.graph
        m = len(grid.edges)
        assert g.n == ((3 * 5 - 2) * 9 + 6) * m
        assert len(gen.planted) == (3 * 5 - 2) * 3 * 2 * m
        assert validate_td(g, gen.instance.td) is None
        assert max(len(b) for b in gen.instance.td.bags) <= (3 * 5 + 4) * 3 + 6 * 5 - 4
        assert verify_solution(g, gen.planted, 5, "cycles", "block")
