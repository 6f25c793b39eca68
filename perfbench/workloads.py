"""Instance suites of the end-to-end solver benchmark.

Each workload is a fixed suite: its graphs are drawn once, from
``SUITE_SEED``, and the workload seed only permutes the vertex ids of every
graph (and of the decomposition that comes with it).  One seed therefore always gives byte-identical instances, and the
generators use nothing from the package but ``Graph`` and
``TreeDecomposition``, so a change to the solver never changes the inputs
it is measured on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from blockvd.decomposition import TreeDecomposition
from blockvd.graph import Graph
from blockvd.instance import Instance

# seed of the graphs of every suite; changing it changes the benchmark
SUITE_SEED = 2017


def cubic_graph(rng: random.Random, n: int) -> Graph:
    """Uniformly random simple 3-regular graph (m = 1.5n), n even.

    Configuration model: pair up three stubs per vertex at random and
    start over whenever the pairing makes a loop or a double edge.
    """
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = {(min(u, v), max(u, v)) for u, v in zip(stubs[::2], stubs[1::2])}
        if len(edges) == len(stubs) // 2 and all(u != v for u, v in edges):
            return Graph(n, sorted(edges))


def partial_ktree(rng: random.Random, n: int, t: int, keep: float) -> Graph:
    """Random t-tree on n vertices, each edge kept with probability keep.

    Every new vertex is attached to a random t-clique of the t-tree built
    so far.
    """
    edges = {(i, j) for i in range(t + 1) for j in range(i + 1, t + 1)}
    cliques = [tuple(x for x in range(t + 1) if x != y) for y in range(t + 1)]
    for v in range(t + 1, n):
        base = rng.choice(cliques)
        edges.update((u, v) for u in base)
        cliques.extend(
            tuple(sorted([x for x in base if x != y] + [v])) for y in base
        )
    return Graph(n, [e for e in sorted(edges) if rng.random() < keep])


def min_fill_decomposition(g: Graph) -> TreeDecomposition:
    """Tree decomposition along the min-fill order, ties to the lowest id.

    Each vertex's bag is itself plus its neighbours eliminated later, and
    its parent is the bag of the first of them; a vertex with none is
    chained to the next bag, which joins the trees of separate components.
    Kept here rather than imported, so the suites never change when the
    package's own heuristic does.
    """
    adj = {v: set(g.neighbors(v)) for v in g.vertices()}
    order: list[int] = []
    bags: list[frozenset[int]] = []
    while adj:
        def fill(v: int) -> int:
            nb = sorted(adj[v])
            return sum(1 for i, a in enumerate(nb) for b in nb[i + 1 :] if b not in adj[a])

        v = min(adj, key=lambda u: (fill(u), u))
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


def cubic_of_width(rng: random.Random, n: int, width: int) -> Graph:
    """Random cubic graph whose min-fill width is exactly width."""
    while True:
        g = cubic_graph(rng, n)
        if min_fill_decomposition(g).width == width:
            return g


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "block" | "component"
    families: tuple[str, ...]
    d: int
    k: int
    witness: bool
    graphs: int  # per suite; each is solved once per family
    graph: Callable[[random.Random], Graph]


@dataclass(frozen=True)
class Case:
    label: str
    inst: Instance


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="block-sparse",
            mode="block",
            families=("k1k2", "cliques"),
            d=3,
            k=4,
            witness=True,
            graphs=29,
            graph=lambda rng: cubic_of_width(rng, 14, 4),
        ),
        Workload(
            name="component-chordal",
            mode="component",
            families=("chordal", "cliques"),
            d=4,
            k=4,
            witness=True,
            graphs=26,
            graph=lambda rng: partial_ktree(rng, 20, 3, 0.7),
        ),
        Workload(
            name="block-d5",
            mode="block",
            families=("chordal", "cliques"),
            d=5,
            k=3,
            witness=False,
            graphs=14,
            graph=lambda rng: partial_ktree(rng, 10, 3, 0.7),
        ),
    )
}


def make_suite(workload: Workload, seed: int) -> list[Case]:
    """The workload's instances for this seed, in solving order.

    Every graph is solved once per family, back to back.  The seed
    permutes vertex ids.  Each instance carries the generator's min-fill
    decomposition of the unpermuted graph, permuted with it, so every seed
    asks for the same work, laid out differently in the solver's tables:
    left to the package heuristic, which breaks ties by vertex id, the
    work itself would change with the numbering.
    """
    graphs = random.Random(f"{workload.name}:{SUITE_SEED}")
    ids = random.Random(f"{workload.name}:{seed}")
    cases = []
    for gi in range(workload.graphs):
        g0 = workload.graph(graphs)
        perm = list(range(g0.n))
        ids.shuffle(perm)
        g = Graph(g0.n, sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g0.edges()))
        td0 = min_fill_decomposition(g0)
        td = TreeDecomposition(
            tuple(frozenset(perm[v] for v in bag) for bag in td0.bags), td0.tree_edges
        )
        for family in workload.families:
            inst = Instance(g, workload.d, workload.k, family, workload.mode, td)
            cases.append(Case(f"{workload.name}/{seed}/{gi}/{family}", inst))
    return cases


def suite_bytes(cases: list[Case]) -> bytes:
    """Canonical serialization of a suite, for determinism checks."""
    lines = []
    for c in cases:
        i = c.inst
        edges = " ".join(f"{u}-{v}" for u, v in sorted(i.graph.edges()))
        bags = " ".join(",".join(map(str, sorted(b))) for b in i.td.bags)
        tree = " ".join(f"{a}-{b}" for a, b in i.td.tree_edges)
        lines.append(f"{c.label} {i.mode} d={i.d} k={i.k} n={i.graph.n} {edges} td {bags} {tree}")
    return "\n".join(lines).encode()
