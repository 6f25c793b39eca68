import random
from dataclasses import replace

import pytest

from blockvd import dp_block, dp_component
from blockvd.decomposition import (
    NiceTreeDecomposition,
    TreeDecomposition,
    exact_td_small,
    heuristic_td,
    read_td,
    to_nice,
    validate_nice,
    validate_td,
    write_td,
)
from blockvd.errors import InvalidInput, TooLarge
from blockvd.graph import Graph
from blockvd.instance import Instance

from conftest import complete, cycle, path, random_graph


def TD(bags, edges):
    return TreeDecomposition(tuple(frozenset(b) for b in bags), tuple(edges))


class TestValidate:
    def test_single_bag_triangle(self):
        g = complete(3)
        assert validate_td(g, TD([{0, 1, 2}], [])) is None

    def test_uncovered_edge(self):
        g = complete(3)
        bad = validate_td(g, TD([{0, 1}, {1, 2}], [(0, 1)]))
        assert bad is not None and bad.condition == "edge"

    def test_uncovered_vertex(self):
        g = Graph(3, [(0, 1)])
        bad = validate_td(g, TD([{0, 1}], []))
        assert bad is not None and bad.condition == "cover"

    def test_disconnected_occurrences(self):
        g = Graph(3, [(0, 1), (1, 2)])
        bad = validate_td(
            g, TD([{0, 1}, {1, 2}, {0, 2}], [(0, 1), (1, 2)])
        )
        assert bad is not None and bad.condition == "connectivity"

    def test_not_a_tree(self):
        g = Graph(2, [(0, 1)])
        bad = validate_td(g, TD([{0, 1}, {0, 1}], []))
        assert bad is not None and bad.condition == "shape"


class TestToNice:
    def test_single_vertex_chain(self):
        g = Graph(1, [])
        ntd = to_nice(TD([{0}], []), g)
        kinds = [ntd.kinds[n] for n in ntd.postorder()]
        assert kinds == ["leaf", "introduce", "forget"]
        assert ntd.bags[ntd.root] == ()

    def test_two_bag_path(self):
        g = path(3)
        ntd = to_nice(TD([{0, 1}, {1, 2}], [(0, 1)]), g)
        assert ntd.width == 1
        assert validate_td(g, ntd.to_tree_decomposition()) is None
        assert ntd.bags[ntd.root] == ()

    def test_invalid_rejected(self):
        g = complete(3)
        with pytest.raises(InvalidInput):
            to_nice(TD([{0, 1}], []), g)

    def test_kind_invariants_random(self):
        rng = random.Random(0)
        for _ in range(25):
            n = rng.randint(1, 10)
            g = random_graph(rng, n, rng.randint(0, 2 * n))
            td = heuristic_td(g)
            ntd = to_nice(td, g)
            assert ntd.width == td.width or ntd.width <= td.width
            assert validate_td(g, ntd.to_tree_decomposition()) is None
            assert validate_nice(g, ntd) is None
            assert ntd.num_nodes <= max(1, 4 * (td.width + 1) * max(td.num_nodes, 1) + 2 * n + 2)
            for node in range(ntd.num_nodes):
                kind = ntd.kinds[node]
                kids = ntd.children[node]
                bag = set(ntd.bags[node])
                if kind == "leaf":
                    assert not kids and not bag
                elif kind == "introduce":
                    (c,) = kids
                    assert bag == set(ntd.bags[c]) | {ntd.acted[node]}
                    assert ntd.acted[node] not in ntd.bags[c]
                elif kind == "forget":
                    (c,) = kids
                    assert bag == set(ntd.bags[c]) - {ntd.acted[node]}
                    assert ntd.acted[node] in ntd.bags[c]
                else:
                    c1, c2 = kids
                    assert bag == set(ntd.bags[c1]) == set(ntd.bags[c2])
            # every original bag appears
            nice_bags = {frozenset(b) for b in ntd.bags}
            for bag in td.bags:
                assert bag in nice_bags

    def test_width_preserved_on_c5(self):
        g = cycle(5)
        td = exact_td_small(g)
        assert td.width == 2
        assert to_nice(td, g).width == 2


class TestValidateNice:
    SOLVERS = {"block": dp_block.solve_block, "component": dp_component.solve_component}

    def _assert_rejected(self, g, ntd):
        assert validate_nice(g, ntd) is not None
        for mode, solve in self.SOLVERS.items():
            with pytest.raises(InvalidInput):
                solve(Instance(g, 3, 1, "k1k2", mode), ntd=ntd)

    def test_decomposition_of_another_graph(self):
        # a valid nice decomposition, but of a 2-vertex path, not of C5
        self._assert_rejected(cycle(5), to_nice(TD([{0, 1}], []), path(2)))

    def test_root_bag_not_empty(self):
        g = cycle(5)
        ntd = to_nice(heuristic_td(g), g)
        (below,) = ntd.children[ntd.root]
        moved = replace(ntd, root=below)
        assert moved.bags[moved.root]
        self._assert_rejected(g, moved)
        # every node reached, but the forget chain above the last bag is missing
        g = path(2)
        ntd = NiceTreeDecomposition(
            ("leaf", "introduce", "introduce"),
            (None, 0, 1),
            ((), (0,), (0, 1)),
            ((), (0,), (1,)),
            root=2,
        )
        self._assert_rejected(g, ntd)

    def test_leaf_bag_not_empty(self):
        g = Graph(1, [])
        ntd = NiceTreeDecomposition(
            ("leaf", "forget"), (None, 0), ((0,), ()), ((), (0,)), root=1
        )
        assert validate_td(g, ntd.to_tree_decomposition()) is None
        self._assert_rejected(g, ntd)

    def test_node_unreached_from_root(self):
        # a valid join over two empty bags hangs above the declared root
        ntd = NiceTreeDecomposition(
            ("leaf", "introduce", "forget", "leaf", "join"),
            (None, 0, 0, None, None),
            ((), (0,), (), (), ()),
            ((), (0,), (1,), (), (2, 3)),
            root=2,
        )
        self._assert_rejected(Graph(1, []), ntd)

    def test_bad_node(self):
        g = path(2)
        ntd = to_nice(TD([{0, 1}], []), g)

        def edit(field, node, value):
            values = list(getattr(ntd, field))
            values[node] = value
            return replace(ntd, **{field: tuple(values)})

        intro, forget = ntd.kinds.index("introduce"), ntd.kinds.index("forget")
        self._assert_rejected(g, edit("acted", intro, 1 - ntd.acted[intro]))
        self._assert_rejected(g, edit("acted", forget, 1 - ntd.acted[forget]))
        self._assert_rejected(g, edit("kinds", intro, "join"))
        full = ntd.bags.index((0, 1))
        self._assert_rejected(g, edit("bags", full, (1, 0)))
        self._assert_rejected(g, replace(ntd, acted=ntd.acted[:-1]))


class TestHeuristic:
    def test_tree_width_one(self):
        g = Graph(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)])
        td = heuristic_td(g)
        assert validate_td(g, td) is None
        assert td.width == 1

    def test_cycle_width_two(self):
        td = heuristic_td(cycle(5))
        assert validate_td(cycle(5), td) is None
        assert td.width == 2

    def test_k5(self):
        td = heuristic_td(complete(5))
        assert validate_td(complete(5), td) is None
        assert td.width == 4

    def test_disconnected_and_empty(self):
        g = Graph(5, [(0, 1), (3, 4)])
        assert validate_td(g, heuristic_td(g)) is None
        assert validate_td(Graph(0), heuristic_td(Graph(0))) is None


class TestExact:
    def test_c4(self):
        assert exact_td_small(cycle(4)).width == 2

    def test_grid_3x3(self):
        edges = []
        for r in range(3):
            for c in range(3):
                v = 3 * r + c
                if c < 2:
                    edges.append((v, v + 1))
                if r < 2:
                    edges.append((v, v + 3))
        g = Graph(9, edges)
        td = exact_td_small(g)
        assert validate_td(g, td) is None
        assert td.width == 3

    def test_k4_minus_edge(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert exact_td_small(g).width == 2

    def test_guard(self):
        with pytest.raises(TooLarge):
            exact_td_small(Graph(20, []), limit=14)

    def test_never_beats_heuristic(self):
        rng = random.Random(1)
        for _ in range(20):
            n = rng.randint(1, 9)
            g = random_graph(rng, n, rng.randint(0, 2 * n))
            assert exact_td_small(g).width <= heuristic_td(g).width


class TestTdIO:
    def test_round_trip(self):
        g = cycle(5)
        td = heuristic_td(g)
        again = read_td(write_td(td, g.n), g.n)
        assert again.bags == td.bags
        assert sorted(again.tree_edges) == sorted(td.tree_edges)
        assert validate_td(g, again) is None

    @pytest.mark.parametrize(
        "text",
        [
            "s td 1 x 3\nb 1 1\n",  # non-integer solution field
            "s td 1 2 3\nb x 1\n",  # non-integer bag id
            "s td 1 2 3\nb 1 y\n",  # non-integer bag member
            "s td 1 2 3\nb\n",  # bag line without an id
            "s td 2 2 3\nb 1 1\nb 2 2\n1\n",  # tree edge with one token
            "s td 2 2 3\nb 1 1\nb 2 2\n1 2 3\n",  # tree edge with three tokens
            "s td 2 2 3\nb 1 1\nb 2 2\n1 z\n",  # non-integer tree edge
            "s td 1 3 3\nb 1 1 2 3\nb 1 1 2\n",  # repeated bag id
            "s td 1 3 3\ns td 1 3 3\nb 1 1 2 3\n",  # second solution line
            "s td 1 9 3\nb 1 1 2 3\n",  # largest-bag field above the largest bag
            "s td 1 2 3\nb 1 1 2 3\n",  # largest-bag field below the largest bag
            "s td 1 3 3\nb 1 1 2 3 3\n",  # repeated bag member
            "s td 1 3 3\nb 1 0 1 2\n",  # bag member below 1
            "s td 1 3 3\nb 1 2 3 4\n",  # bag member above n
            "s td 2 3 3\nb 1 1 2 3\nb 2 1\n1 3\n",  # tree edge to a missing bag
            "s td 2 3 3\nb 1 1 2 3\nb 2 1\n0 1\n",  # tree edge to bag 0
            "s td 1 3 5\nb 1 1 2 3\n",  # vertex count is not n
        ],
    )
    def test_malformed_raises_invalid_input(self, text):
        with pytest.raises(InvalidInput):
            read_td(text, 3)
