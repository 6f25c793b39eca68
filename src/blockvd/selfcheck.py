"""Built-in quick checks behind the ``selftest`` CLI command.

A trimmed version of the test suite: solver-vs-oracle agreement on the
minimum deletion size of random small instances, representative-set
verification, and the chordal-sum equivalence.
"""

from __future__ import annotations

import random

from .characteristics import BoundariedGraph, aux_partition, s_blocks, sum_boundaried
from .dp_block import solve_block
from .dp_component import solve_component
from .errors import InvalidInput
from .graph import Graph, is_chordal
from .instance import Instance
from .oracle import brute_force_solve
from .partitions import all_partitions, inc_is_forest
from .repset import rep_partitions, verify_representative


def random_graph(rng: random.Random, n: int, m: int) -> Graph:
    edges = set()
    m = min(m, n * (n - 1) // 2)
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return Graph(n, edges)


def random_chordal(rng: random.Random, n: int, extra: int = 2) -> Graph:
    """Clique-attachment growth: every prefix stays chordal."""
    edges: set[tuple[int, int]] = set()
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for v in range(1, n):
        anchor = rng.randrange(v)
        clique = {anchor}
        nbrs = list(adj[anchor] & set(range(v)))
        rng.shuffle(nbrs)
        for w in nbrs[: rng.randint(0, extra)]:
            # only extend while the attachment set stays a clique
            if all(x in adj[w] for x in clique):
                clique.add(w)
        for w in clique:
            edges.add((min(v, w), max(v, w)))
            adj[v].add(w)
            adj[w].add(v)
    return Graph(n, edges)


def check_oracle_agreement(rng: random.Random, trials: int) -> int:
    fails = 0
    for _ in range(trials):
        n = rng.randint(4, 9)
        g = random_graph(rng, n, rng.randint(n - 1, int(n * 1.5)))
        d = rng.choice([2, 3])
        k = rng.randint(0, 3)
        fam = rng.choice(["k1k2", "cliques", "chordal"])
        for mode, solver in (("block", solve_block), ("component", solve_component)):
            inst = Instance(g, d, k, fam, mode)
            if solver(inst).minimum != brute_force_solve(inst):
                fails += 1
    return fails


def check_representative_sets(rng: random.Random, trials: int) -> int:
    fails = 0
    for _ in range(trials):
        m = rng.randint(1, 5)
        univ = list(all_partitions(m))
        fam = [rng.choice(univ) for _ in range(rng.randint(1, 12))]
        sub = rep_partitions(m, fam)
        if not verify_representative(m, fam, sub):
            fails += 1
        if len(sub) > m * (1 << (m - 1)):
            fails += 1
    return fails


def check_chordal_sum(rng: random.Random, trials: int) -> int:
    fails = 0
    done = 0
    while done < trials:
        pair = random_compatible_chordal_pair(rng)
        if pair is None:
            continue
        a, b = pair
        total = sum_boundaried(a, b)
        whole = BoundariedGraph.whole(total, a.boundary)
        if not all(is_chordal(total, blk) for blk in s_blocks(whole)):
            continue
        done += 1
        m = len(whole.boundary_components())
        forest = inc_is_forest(m, [aux_partition(a), aux_partition(b)])
        if is_chordal(total) != forest:
            fails += 1
    return fails


def random_compatible_chordal_pair(
    rng: random.Random,
) -> tuple[BoundariedGraph, BoundariedGraph] | None:
    na = rng.randint(2, 7)
    ga = random_chordal(rng, na)
    if not is_chordal(ga):
        return None
    boundary = frozenset(rng.sample(range(na), rng.randint(1, na)))
    # grow a second chordal graph over the boundary plus fresh ids
    base_edges = {
        (u, v) for (u, v) in ga.edges() if u in boundary and v in boundary
    }
    nb_extra = rng.randint(0, 4)
    ids = sorted(boundary) + list(range(na, na + nb_extra))
    edges = set(base_edges)
    for idx, v in enumerate(range(na, na + nb_extra)):
        others = sorted(boundary) + list(range(na, v))
        if not others:
            continue
        anchor = rng.choice(others)
        attach = {anchor}
        nbrs = [
            w
            for w in others
            if w != anchor and (min(w, anchor), max(w, anchor)) in edges
        ]
        rng.shuffle(nbrs)
        attach.update(nbrs[: rng.randint(0, 2)])
        for x in attach:
            edges.add((min(v, x), max(v, x)))
    n = na + nb_extra
    gb = Graph(n, edges)
    if not is_chordal(gb, ids):
        return None
    a = BoundariedGraph(ga, frozenset(range(na)), boundary)
    b = BoundariedGraph(gb, frozenset(ids), boundary)
    return a, b


def run_selftest(trials: int) -> bool:
    if trials < 1:
        raise InvalidInput(f"trials must be at least 1, got {trials}")
    rng = random.Random(0)
    parts = [
        ("oracle agreement", check_oracle_agreement(rng, trials)),
        ("representative sets", check_representative_sets(rng, max(trials, 50))),
        ("chordal sum equivalence", check_chordal_sum(rng, max(trials, 50))),
    ]
    ok = True
    for name, fails in parts:
        status = "ok" if fails == 0 else f"FAILED ({fails})"
        print(f"{name}: {status}")
        ok = ok and fails == 0
    return ok
