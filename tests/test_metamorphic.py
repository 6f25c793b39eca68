"""Metamorphic checks of both DPs on small random instances.

Each property relates two solves, so it needs no oracle: tracking
witnesses must not change the search, relabelling vertices, the tree
decomposition or its root must not change the answer or the minimum
deletion size, a larger budget cannot turn YES into NO, deleting a
vertex never raises the minimum, a witness never exceeds the budget,
and the ``k1k2`` answer is the same at every bound d >= 2.  At sizes the
oracle cannot reach (n from 20 to 40, width 3 to 5), the minimum of a
disjoint union is the sum of the two minima, reducing every family of
two or more partitions keeps a least member for every completion and
leaves the minimum unchanged, and solving along another decomposition
of the same graph gives the same answer.  On 20-vertex partial
3-trees, 5-trees and 6-trees, raising d never raises the block or the component
minimum, the ``k1k2`` minimum is the same for d = 2..5 and a pendant
vertex leaves the block minimum unchanged.  On partial 3-trees the
block minimum, found without a packing, is at most the component
minimum, found under the budgets of the component-mode packing.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockvd._dpcore import Engine
from blockvd.characteristics import all_partitions
from blockvd.decomposition import TreeDecomposition, exact_td_small, heuristic_td
from blockvd.graph import Graph
from blockvd.instance import Instance
from blockvd.oracle import verify_solution
from blockvd.partitions import inc_is_forest
from blockvd.repset import rep_partitions

from conftest import SOLVE

# derandomized and without an example database: the same cases every run
CASES = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def instances(draw) -> Instance:
    n = draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n, unique=True))
    return Instance(
        Graph(n, edges),
        d=draw(st.integers(2, 4)),
        k=draw(st.integers(0, 3)),
        family=draw(st.sampled_from(["k1k2", "cliques", "chordal"])),
        mode=draw(st.sampled_from(["block", "component"])),
    )


def solve(inst: Instance, witness: bool = False):
    return SOLVE[inst.mode](inst, witness=witness)


@CASES
@given(instances())
def test_witness_tracking_leaves_the_search_unchanged(inst):
    plain, tracked = solve(inst), solve(inst, witness=True)
    assert tracked.decision == plain.decision
    assert tracked.minimum == plain.minimum
    assert tracked.stats["states"] == plain.stats["states"]
    assert tracked.stats["retained"] == plain.stats["retained"]


@CASES
@given(instances(), st.randoms(use_true_random=False))
def test_relabelling_keeps_the_decision(inst, rnd):
    perm = list(range(inst.graph.n))
    rnd.shuffle(perm)
    moved = Graph(inst.graph.n, [(perm[u], perm[v]) for u, v in inst.graph.edges()])
    got, want = solve(replace(inst, graph=moved)), solve(inst)
    assert (got.decision, got.minimum) == (want.decision, want.minimum)


@CASES
@given(instances())
def test_decomposition_choice_keeps_the_decision(inst):
    exact = replace(inst, td=exact_td_small(inst.graph))
    got, want = solve(exact), solve(inst)
    assert (got.decision, got.minimum) == (want.decision, want.minimum)


@CASES
@given(instances(), st.integers(0, 63))
def test_another_root_keeps_the_decision(inst, shift):
    # the nice form is rooted at bag 0, so rotating the bag order re-roots it
    td = heuristic_td(inst.graph)
    n = td.num_nodes
    r = shift % n
    rerooted = TreeDecomposition(
        td.bags[r:] + td.bags[:r],
        tuple(((a - r) % n, (b - r) % n) for a, b in td.tree_edges),
    )
    res = solve(replace(inst, td=rerooted), witness=True)
    want = solve(replace(inst, td=td))
    assert (res.decision, res.minimum) == (want.decision, want.minimum)
    if res.decision:
        assert verify_solution(inst.graph, res.witness, inst.d, inst.family, inst.mode)


@CASES
@given(instances())
def test_yes_stays_yes_with_a_larger_budget(inst):
    if solve(inst).decision:
        assert solve(replace(inst, k=inst.k + 1)).decision


@CASES
@given(instances(), st.integers(0, 63))
def test_deleting_a_vertex_never_raises_the_minimum(inst, pick):
    # k1k2, cliques and chordal are hereditary, and every block or component
    # of an induced subgraph is an induced subgraph of one of the whole
    # graph's, so a least deletion set of G, less v, solves G - v
    want = solve(inst)
    if not want.decision:
        return
    g = inst.graph
    v = pick % g.n
    rest = [u for u in range(g.n) if u != v]
    new = {u: i for i, u in enumerate(rest)}
    smaller = Graph(g.n - 1, [(new[a], new[b]) for a, b in g.edges() if v not in (a, b)])
    got = solve(replace(inst, graph=smaller))
    assert got.decision
    assert got.minimum <= want.minimum


@CASES
@given(instances())
def test_witness_fits_the_budget(inst):
    res = solve(inst, witness=True)
    if res.decision:
        assert res.witness is not None and len(res.witness) <= inst.k


@pytest.mark.parametrize("mode", ["block", "component"])
@CASES
@given(instances())
def test_k1k2_answer_does_not_depend_on_d(mode, inst):
    # no k1k2 member has more than two vertices, so every d >= 2 asks the
    # same question, also above the cap of the pattern universes
    base = replace(inst, family="k1k2", mode=mode, d=2)
    want = solve(base)
    for d in range(3, 9):
        got = solve(replace(base, d=d))
        assert (got.decision, got.minimum) == (want.decision, want.minimum), d


def partial_ktree(
    rng: random.Random, n: int, t: int, keep: float
) -> tuple[Graph, TreeDecomposition]:
    """A random t-tree on n vertices with its width-t decomposition, each
    edge kept with probability keep.

    Every new vertex joins a random t-clique of the t-tree so far, and its
    bag (the clique and the vertex) hangs from the bag the clique came
    from.
    """
    edges = {(i, j) for i in range(t + 1) for j in range(i + 1, t + 1)}
    bags = [frozenset(range(t + 1))]
    tree_edges = []
    # each t-clique with the index of a bag holding it
    cliques = [(tuple(x for x in range(t + 1) if x != y), 0) for y in range(t + 1)]
    for v in range(t + 1, n):
        base, at = rng.choice(cliques)
        edges.update((u, v) for u in base)
        tree_edges.append((at, len(bags)))
        cliques.extend(
            (tuple(sorted([x for x in base if x != y] + [v])), len(bags)) for y in base
        )
        bags.append(frozenset(base + (v,)))
    g = Graph(n, [e for e in sorted(edges) if rng.random() < keep])
    return g, TreeDecomposition(tuple(bags), tuple(tree_edges))


@pytest.mark.parametrize("mode", ["block", "component"])
@pytest.mark.parametrize("family", ["k1k2", "cliques", "chordal"])
def test_a_disjoint_union_needs_the_sum_of_the_minima(mode, family):
    # every block and component lies in one of the two parts, so a least
    # deletion set of the union is one of each part.  The union's
    # decomposition hangs the second part's from the first one's root, so
    # the walk joins tables built over both parts
    rng = random.Random(f"{mode}:{family}")
    for _ in range(4):
        t = rng.choice([4, 5])
        (ga, ta), (gb, tb) = (partial_ktree(rng, rng.randint(10, 20), t, 0.8) for _ in range(2))
        d = rng.choice([3, 4])
        want = sum(
            solve(Instance(g, d, g.n, family, mode, td)).minimum for g, td in ((ga, ta), (gb, tb))
        )
        shift = ga.n
        union = Graph(
            shift + gb.n, list(ga.edges()) + [(u + shift, v + shift) for u, v in gb.edges()]
        )
        nbags = ta.num_nodes
        td = TreeDecomposition(
            ta.bags + tuple(frozenset(v + shift for v in bag) for bag in tb.bags),
            ta.tree_edges + ((0, nbags),) + tuple((x + nbags, y + nbags) for x, y in tb.tree_edges),
        )
        assert td.width == t
        got = solve(Instance(union, d, want, family, mode, td), witness=True)
        assert got.decision and got.minimum == want


def at_widths(name: str, values: list[str]):
    """Parametrize name over values and the width of the partial k-trees
    over 3, 5 and 6.  A width-3 case keeps its value's plain id; a wider
    case adds "-w5" or "-w6"."""
    return pytest.mark.parametrize(
        f"{name}, width",
        [pytest.param(v, 3, id=v) for v in values]
        + [pytest.param(v, w, id=f"{v}-w{w}") for w in (5, 6) for v in values],
    )


def assert_raising_d_never_raises_the_minimum(mode: str, family: str, width: int) -> None:
    # a block or component that fits bound d fits d + 1, so a least
    # solution at d solves at d + 1.  Each solve's budget is the minimum
    # one bound lower, where the budgets of the component walk are tightest
    rng = random.Random(f"raise-d:{family}")
    for _ in range(3):
        g, td = partial_ktree(rng, 20, width, 0.7)
        k = g.n
        for d in (2, 3, 4, 5):
            got = solve(Instance(g, d, k, family, mode, td))
            assert got.decision and got.minimum <= k, d
            k = got.minimum


@at_widths("family", ["k1k2", "cliques", "chordal"])
def test_raising_d_never_raises_the_component_minimum(family, width):
    assert_raising_d_never_raises_the_minimum("component", family, width)


@at_widths("family", ["k1k2", "cliques", "chordal"])
def test_raising_d_never_raises_the_block_minimum(family, width):
    assert_raising_d_never_raises_the_minimum("block", family, width)


@at_widths("mode", ["block", "component"])
def test_the_k1k2_minimum_does_not_depend_on_d_at_20_vertices(mode, width):
    # no k1k2 member has more than two vertices, so d = 2..5 ask the same
    # question; each d builds its own packing in component mode
    rng = random.Random(f"k1k2-d:{mode}")
    for _ in range(3):
        g, td = partial_ktree(rng, 20, width, 0.7)
        minima = [solve(Instance(g, d, g.n, "k1k2", mode, td)).minimum for d in (2, 3, 4, 5)]
        assert len(set(minima)) == 1, minima


@at_widths("family", ["k1k2", "cliques", "chordal"])
def test_a_pendant_vertex_leaves_the_block_minimum_unchanged(family, width):
    # the new edge is a block of its own, a K2 that every family holds and
    # every d >= 2 allows, so a least solution of G solves G plus the
    # pendant vertex, and one of the larger graph, less that vertex,
    # solves G.  Its bag hangs from a bag holding its neighbour
    rng = random.Random(f"pendant:{family}")
    for _ in range(3):
        g, td = partial_ktree(rng, 20, width, 0.7)
        d = rng.choice([2, 3, 4])
        v = rng.randrange(g.n)
        grown = Graph(g.n + 1, list(g.edges()) + [(v, g.n)])
        at = next(i for i, bag in enumerate(td.bags) if v in bag)
        grown_td = TreeDecomposition(
            td.bags + (frozenset({v, g.n}),), td.tree_edges + ((at, td.num_nodes),)
        )
        want = solve(Instance(g, d, g.n, family, "block", td))
        got = solve(Instance(grown, d, grown.n, family, "block", grown_td), witness=True)
        assert got.minimum == want.minimum
        assert verify_solution(grown, got.witness, d, family, "block")


def reduce_every_family(engine: Engine, table: dict) -> None:
    """``Engine.reduce_table`` without its gates: every family of two or
    more partitions goes through the rank-based reduction, whatever the
    bag size and however far below m * 2^(m-1) the family is.

    Each reduction must keep, for every partition y that some member
    joins into a forest, a member of least set size that does.  Keeping
    only each family's least-size member leaves every minimum of the
    test below unchanged, so the minima alone would not show a
    reduction that drops too much.  Counts the partitions it drops in
    ``reduce_every_family.dropped``."""
    for key, fam in table.items():
        if len(fam) < 2:
            continue
        m = next(iter(fam)).m
        kept = rep_partitions(m, sorted(fam, key=lambda p: len(fam[p])))
        for y in all_partitions(m):
            # the members that y joins into a forest, with their set sizes
            joins = {x: len(fam[x]) for x in fam if inc_is_forest(m, (x, y))}
            least_kept = min((joins[x] for x in kept if x in joins), default=None)
            assert least_kept == min(joins.values(), default=None), (fam, kept, y)
        if len(kept) != len(fam):
            reduce_every_family.dropped += len(fam) - len(kept)
            table[key] = {p: fam[p] for p in kept}


@pytest.mark.parametrize("mode", ["block", "component"])
def test_forcing_the_reduction_leaves_the_minimum_unchanged(mode, monkeypatch):
    # the reduction keeps, for every completion of a family, a member of
    # least size that completes with it (Bodlaender, Cygan, Kratsch and
    # Nederlof), so it may drop partitions but never a least solution.
    # Width-5 bags hold six vertices, past the gate on bag size.  In
    # component mode a family rarely holds two partitions, so each family
    # gets four graphs
    rng = random.Random(f"forced:{mode}")
    cases = []
    for family in ("k1k2", "cliques", "chordal"):
        for _ in range(4):
            g, td = partial_ktree(rng, 20, 5, 0.7)
            inst = Instance(g, 3, g.n, family, mode, td)
            cases.append((inst, solve(inst).minimum))
    reduce_every_family.dropped = 0
    monkeypatch.setattr(Engine, "reduce_table", reduce_every_family)
    for inst, want in cases:
        got = solve(inst, witness=True)
        assert got.minimum == want, inst.family
        assert verify_solution(inst.graph, got.witness, inst.d, inst.family, mode)
    assert reduce_every_family.dropped > 0


def random_min_fill(g: Graph, rng: random.Random) -> TreeDecomposition:
    """A decomposition along a min-fill elimination order whose ties are
    broken by rng.

    Each vertex's bag is itself plus its neighbours eliminated later, and
    its parent is the bag of the first of them; a vertex with none is
    chained to the next bag, which joins the trees of separate components.
    """
    adj = {v: set(g.neighbors(v)) for v in g.vertices()}

    def fill(v: int) -> int:
        nb = sorted(adj[v])
        return sum(1 for i, a in enumerate(nb) for b in nb[i + 1 :] if b not in adj[a])

    order: list[int] = []
    bags: list[frozenset[int]] = []
    while adj:
        fills = {v: fill(v) for v in sorted(adj)}
        least = min(fills.values())
        v = rng.choice([u for u, f in fills.items() if f == least])
        nb = adj.pop(v)
        for u in nb:
            adj[u].discard(v)
            adj[u] |= nb - {u}
        order.append(v)
        bags.append(frozenset(nb | {v}))
    pos = {v: i for i, v in enumerate(order)}
    edges = []
    for i, v in enumerate(order):
        later = bags[i] - {v}
        if later:
            edges.append((i, min(pos[u] for u in later)))
        elif i + 1 < len(order):
            edges.append((i, i + 1))
    return TreeDecomposition(tuple(bags), tuple(edges))


@pytest.mark.parametrize("mode", ["block", "component"])
@pytest.mark.parametrize("family", ["k1k2", "cliques", "chordal"])
def test_the_decomposition_does_not_change_the_answer(mode, family):
    # each decomposition drives its own sequence of introduce, forget and
    # join over the same graph.  The budget is one below the minimum on
    # every other graph, so NO answers are compared too
    rng = random.Random(f"decompositions:{mode}:{family}")
    for trial in range(4):
        g, td = partial_ktree(rng, rng.randint(20, 40), rng.choice([3, 4]), 0.7)
        d = rng.choice([3, 4])
        tds = [td, heuristic_td(g)] + [random_min_fill(g, random.Random(s)) for s in range(3)]
        first = solve(Instance(g, d, g.n, family, mode, td))
        k = max(first.minimum - trial % 2, 0)
        answers = set()
        for t in tds:
            got = solve(Instance(g, d, k, family, mode, t), witness=True)
            answers.add((got.decision, got.minimum))
            if got.decision:
                assert verify_solution(g, got.witness, d, family, mode)
        assert len(answers) == 1, answers


@pytest.mark.parametrize("family", ["k1k2", "cliques", "chordal"])
def test_the_block_minimum_is_at_most_the_component_minimum(family):
    # each block of G - S is a biconnected induced subgraph of a component
    # of G - S, and these families keep such subgraphs, so a component
    # solution is a block solution.  The block walk is never capped below k
    rng = random.Random(f"block-component:{family}")
    for _ in range(3):
        g, td = partial_ktree(rng, 20, 3, 0.7)
        d = rng.choice([3, 4])
        comp = solve(Instance(g, d, g.n, family, "component", td), witness=True)
        block = solve(Instance(g, d, comp.minimum, family, "block", td))
        assert block.decision and block.minimum <= comp.minimum
