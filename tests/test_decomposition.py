import random
import subprocess
import sys

import pytest

from blockvd.decomposition import (
    EXACT_TD_CAP,
    TreeDecomposition,
    Violation,
    _bags_from_elimination,
    exact_td_small,
    heuristic_td,
    read_td,
    to_nice,
    validate_td,
    write_td,
)
from blockvd.errors import InvalidInput, TooLarge
from blockvd.gadgets import GridISInstance, gen_fixed_d
from blockvd.graph import Graph, connected_components

from conftest import (
    capped_address_space,
    child_env,
    complete,
    cycle,
    path,
    random_chordal,
    random_graph,
    star_of_bags,
)


def TD(bags, edges):
    return TreeDecomposition(tuple(frozenset(b) for b in bags), tuple(edges))


def reference_validate_td(g: Graph, td: TreeDecomposition) -> Violation | None:
    """``validate_td`` by its definition: a scan of every bag per graph
    edge, and a search from each vertex's first occurrence node."""
    nn = td.num_nodes
    if nn == 0:
        return Violation("shape", "decomposition has no nodes")
    for a, b in td.tree_edges:
        if not (0 <= a < nn and 0 <= b < nn):
            return Violation("shape", f"tree edge ({a},{b}) out of range")
    if len(td.tree_edges) != nn - 1:
        return Violation("shape", "decomposition graph is not a tree (edge count)")
    adj = td.neighbors()
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != nn:
        return Violation("shape", "decomposition graph is not connected")

    covered: set[int] = set()
    for bag in td.bags:
        for v in bag:
            if not (0 <= v < g.n):
                return Violation("cover", f"bag vertex {v} outside the graph")
        covered |= bag
    if covered != set(range(g.n)):
        missing = sorted(set(range(g.n)) - covered)
        return Violation("cover", f"vertices {missing} appear in no bag")

    for u, v in sorted(g.edges()):
        if not any(u in bag and v in bag for bag in td.bags):
            return Violation("edge", f"edge ({u},{v}) is in no bag")

    for v in range(g.n):
        nodes = [t for t in range(nn) if v in td.bags[t]]
        nodeset = set(nodes)
        comp = {nodes[0]}
        stack = [nodes[0]]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w in nodeset and w not in comp:
                    comp.add(w)
                    stack.append(w)
        if comp != nodeset:
            return Violation(
                "connectivity", f"occurrence nodes of vertex {v} are disconnected"
            )
    return None


def rerooted(td: TreeDecomposition, r: int) -> TreeDecomposition:
    """td with nodes 0 and r swapped, so that ``to_nice`` roots it at r's bag."""
    swap = {0: r, r: 0}
    bags = list(td.bags)
    bags[0], bags[r] = bags[r], bags[0]
    edges = (sorted((swap.get(a, a), swap.get(b, b))) for a, b in td.tree_edges)
    return TreeDecomposition(tuple(bags), tuple(tuple(e) for e in edges))


def disjoint_union(parts: list[tuple[Graph, TreeDecomposition]]):
    """The disjoint union of the graphs, decomposed by an empty hub bag with
    each part's decomposition hung below it from its node 0."""
    edges, bags, tedges = [], [frozenset()], []
    n = 0
    for g, td in parts:
        base = len(bags)
        edges += [(u + n, v + n) for u, v in g.edges()]
        bags += [frozenset(v + n for v in bag) for bag in td.bags]
        tedges += [(a + base, b + base) for a, b in td.tree_edges] + [(0, base)]
        n += g.n
    return Graph(n, edges), TreeDecomposition(tuple(bags), tuple(tedges))


def mutations(rng: random.Random, g: Graph, td: TreeDecomposition):
    """Single edits of td, each of which may break it: drop a vertex from
    a bag, uncover a graph edge, add a vertex (possibly outside the graph)
    to a bag, re-hang a subtree, and duplicate a tree edge in place of
    another one or on top of all of them."""
    bags, edges = list(td.bags), list(td.tree_edges)

    def with_bag(t, bag):
        return bags[:t] + [bag] + bags[t + 1:]

    out = []
    full = [t for t, bag in enumerate(bags) if bag]
    if full:
        t = rng.choice(full)
        out.append((with_bag(t, bags[t] - {rng.choice(sorted(bags[t]))}), edges))
    if g.m:
        u, v = rng.choice(sorted(g.edges()))
        out.append(([bag - {v} if u in bag else bag for bag in bags], edges))
    t = rng.randrange(len(bags))
    out.append((with_bag(t, bags[t] | {rng.randrange(g.n + 2)}), edges))
    if edges:
        i = rng.randrange(len(edges))
        a, b = edges[i]
        rest = edges[:i] + edges[i + 1:]
        # the nodes still joined to a once the edge to b is gone
        side, stack = {a}, [a]
        while stack:
            x = stack.pop()
            for p, q in rest:
                for y, z in ((p, q), (q, p)):
                    if y == x and z not in side:
                        side.add(z)
                        stack.append(z)
        c = rng.choice(sorted(side))
        out.append((bags, rest + [(min(b, c), max(b, c))]))
        out.append((bags, rest + [rng.choice(edges)]))
        out.append((bags, edges + [rng.choice(edges)]))
    return [TreeDecomposition(tuple(bs), tuple(es)) for bs, es in out]


def assert_nice(g: Graph, td: TreeDecomposition, ntd) -> None:
    """The contract of ``to_nice(td, g)``: a decomposition of g of td's
    width that holds every bag of td, in nice form.  Every node is reached
    once from the root, whose bag is empty; bags are increasing tuples; a
    leaf has no children and an empty bag; an introduce or forget node's
    bag is its child's plus or minus the acted vertex; a join node has two
    children whose bags equal its own."""
    n = ntd.num_nodes
    assert len(ntd.acted) == len(ntd.bags) == len(ntd.children) == n
    assert ntd.bags[ntd.root] == ()
    assert sorted(ntd.postorder()) == list(range(n))
    assert validate_td(g, ntd.to_tree_decomposition()) is None
    assert ntd.width == td.width
    for node in range(n):
        kind, v, kids = ntd.kinds[node], ntd.acted[node], ntd.children[node]
        assert list(ntd.bags[node]) == sorted(set(ntd.bags[node]))
        bag = set(ntd.bags[node])
        below = [set(ntd.bags[c]) for c in kids]
        if kind == "leaf":
            assert not kids and not bag
        elif kind == "introduce":
            assert len(kids) == 1 and v not in below[0] and bag == below[0] | {v}
        elif kind == "forget":
            assert len(kids) == 1 and v in below[0] and bag == below[0] - {v}
        else:
            assert kind == "join" and len(kids) == 2 and below[0] == below[1] == bag
    nice_bags = {frozenset(b) for b in ntd.bags}
    assert all(bag in nice_bags for bag in td.bags)


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


class TestValidateAgainstReference:
    def test_valid_and_singly_mutated(self):
        rng = random.Random(4)
        seen = set()
        for i in range(150):
            n = rng.randint(0, 9)
            if i % 3 == 0:
                g, td = star_of_bags(rng)
            else:
                g = random_chordal(rng, n) if i % 3 == 1 and n else random_graph(rng, n, 2 * n)
                td = heuristic_td(g)
            td = rerooted(td, rng.randrange(td.num_nodes))
            for case in [td, *mutations(rng, g, td)]:
                got, want = validate_td(g, case), reference_validate_td(g, case)
                assert got == want, (g, case)
                seen.add(None if got is None else got.condition)
        assert seen == {None, "shape", "cover", "edge", "connectivity"}


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
            assert_nice(g, td, ntd)
            assert ntd.num_nodes <= max(1, 4 * (td.width + 1) * max(td.num_nodes, 1) + 2 * n + 2)

    def test_rotated_roots(self):
        rng = random.Random(1)
        for _ in range(10):
            n = rng.randint(2, 9)
            g = random_chordal(rng, n) if rng.random() < 0.5 else random_graph(rng, n, 2 * n)
            td = heuristic_td(g)
            for r in range(td.num_nodes):
                moved = rerooted(td, r)
                assert_nice(g, moved, to_nice(moved, g))

    def test_star_of_bags(self):
        rng = random.Random(2)
        for _ in range(10):
            g, td = star_of_bags(rng)
            for r in (0, td.num_nodes - 1):
                moved = rerooted(td, r)
                assert_nice(g, moved, to_nice(moved, g))

    def test_isolated_vertices_and_components(self):
        rng = random.Random(3)
        single = (Graph(1, []), TD([{0}], []))
        for _ in range(10):
            parts = [single]
            for _ in range(rng.randint(1, 3)):
                h = random_graph(rng, rng.randint(1, 5), rng.randint(0, 6))
                parts.append((h, heuristic_td(h)))
            rng.shuffle(parts)
            g, td = disjoint_union(parts)
            assert_nice(g, td, to_nice(td, g))
            assert_nice(g, heuristic_td(g), to_nice(heuristic_td(g), g))
        empty = Graph(0, [])
        assert_nice(empty, heuristic_td(empty), to_nice(heuristic_td(empty), empty))

    def test_generated_path_decomposition(self):
        inst = gen_fixed_d(GridISInstance.minimal(2), 4, "component").instance
        assert_nice(inst.graph, inst.td, to_nice(inst.td, inst.graph))

    def test_width_preserved_on_c5(self):
        g = cycle(5)
        td = exact_td_small(g)
        assert td.width == 2
        assert to_nice(td, g).width == 2


def reference_min_fill_order(g: Graph) -> list[int]:
    """The min-fill elimination ordering, ties to the lowest id, on
    adjacency sets: the fill of v counts its pairs of remaining
    neighbours that are not adjacent."""
    adj = [set(g.neighbors(v)) for v in range(g.n)]
    remaining = set(range(g.n))
    order: list[int] = []
    while remaining:
        best_v, best_fill = -1, None
        for v in sorted(remaining):
            nbrs = [w for w in adj[v] if w in remaining]
            fill = sum(
                nbrs[j] not in adj[nbrs[i]]
                for i in range(len(nbrs))
                for j in range(i + 1, len(nbrs))
            )
            if best_fill is None or fill < best_fill:
                best_v, best_fill = v, fill
        nbrs = [w for w in adj[best_v] if w in remaining]
        for a in nbrs:
            adj[a].update(w for w in nbrs if w != a)
        remaining.remove(best_v)
        order.append(best_v)
    return order


def reference_bags_from_elimination(g: Graph, order: list[int]) -> TreeDecomposition:
    """Fill-in bags along the ordering on adjacency sets; each node's
    parent is its earliest later neighbour, and the trees of the forest
    are chained by their lowest nodes, found by a search of the forest."""
    if g.n == 0:
        return TreeDecomposition((frozenset(),), ())
    pos = {v: i for i, v in enumerate(order)}
    adj = [set(g.neighbors(v)) for v in range(g.n)]
    bags = []
    edges = []
    for v in order:
        later = {w for w in adj[v] if pos[w] > pos[v]}
        bags.append(frozenset(later | {v}))
        if later:
            edges.append((pos[v], min(pos[w] for w in later)))
        for a in later:
            adj[a] |= later - {a}
    nadj: list[list[int]] = [[] for _ in range(g.n)]
    for a, b in edges:
        nadj[a].append(b)
        nadj[b].append(a)
    seen: set[int] = set()
    roots = []
    for t in range(g.n):
        if t in seen:
            continue
        roots.append(t)
        seen.add(t)
        stack = [t]
        while stack:
            for w in nadj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    edges += zip(roots, roots[1:])
    return TreeDecomposition(tuple(bags), tuple(sorted(edges)))


def sparse_graphs(count: int) -> list[Graph]:
    """Seeded random graphs on 0 to 25 vertices, from empty to dense;
    most of the sparse ones are disconnected."""
    rng = random.Random(30)
    out = [Graph(0), Graph(1), Graph(4)]
    while len(out) < count:
        n = rng.randint(0, 25)
        out.append(random_graph(rng, n, rng.randint(0, n * (n - 1) // 4)))
    return out


class TestAgainstSetReference:
    GRAPHS = sparse_graphs(240)

    def test_graphs_include_disconnected_and_empty_ones(self):
        assert sum(len(connected_components(g)) > 1 for g in self.GRAPHS) >= 100
        assert any(g.n == 0 for g in self.GRAPHS)

    def test_heuristic_matches_the_set_reference(self):
        for g in self.GRAPHS:
            td = heuristic_td(g)
            want = reference_bags_from_elimination(g, reference_min_fill_order(g))
            assert td.bags == want.bags, g.edges()
            assert td.tree_edges == want.tree_edges, g.edges()

    def test_fill_in_matches_the_set_reference_on_any_order(self):
        rng = random.Random(31)
        for g in self.GRAPHS:
            order = rng.sample(range(g.n), g.n)
            got = _bags_from_elimination(g, order)
            want = reference_bags_from_elimination(g, order)
            assert got.bags == want.bags, (g.edges(), order)
            assert got.tree_edges == want.tree_edges, (g.edges(), order)


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
            exact_td_small(Graph(EXACT_TD_CAP + 1, []))

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
            "s td 2 3 3\nb 1 1 2 3\n",  # fewer bags than the header says
            "s td 2 3 3\nb 1 1 2 3\nb 3 1\n1 3\n",  # bag id above #bags
            "s td 2 3 3\nb 0 1\nb 1 1 2 3\n1 2\n",  # bag id 0
        ],
    )
    def test_malformed_raises_invalid_input(self, text):
        with pytest.raises(InvalidInput):
            read_td(text, 3)

    def test_no_bags_reaches_the_validator(self):
        # a decomposition without bags has no largest bag, so the header
        # "s td 0 0 3" is consistent: the validator, not the reader,
        # rejects the file
        td = read_td("s td 0 0 3\n", 3)
        assert td.bags == () and td.width == -1
        assert validate_td(path(3), td) == Violation("shape", "decomposition has no nodes")

    def test_a_huge_bag_count_is_rejected_at_once(self):
        # the child's address space is capped, so a reader that builds
        # 1..#bags from the header fails fast instead of filling memory
        code = (
            "from blockvd.decomposition import read_td\n"
            "from blockvd.errors import InvalidInput\n"
            "try:\n"
            "    read_td('s td 1000000000000 2 3\\nb 1 1 2\\n', 3)\n"
            "except InvalidInput as exc:\n"
            "    print(exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            env=child_env(),
            preexec_fn=capped_address_space,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "bag ids must be 1..#bags\n"
