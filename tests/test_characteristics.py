import random

import pytest

from blockvd.characteristics import (
    BoundariedGraph,
    Characteristic,
    aux_partition,
    compute_characteristics,
    respects,
    sum_boundaried,
)
from blockvd.errors import NoCharacteristic
from blockvd.families import Pattern, enumerate_ud, get_family
from blockvd.graph import Graph


def pat(labels, edges=()):
    return Pattern(frozenset(labels), frozenset(tuple(sorted(e)) for e in edges))


UD3 = enumerate_ud(3, get_family("chordal"))
UD4 = enumerate_ud(4, get_family("chordal"))

K3 = pat({1, 2, 3}, [(1, 2), (1, 3), (2, 3)])


def entry(c: Characteristic, key) -> tuple[Pattern, frozenset[int]]:
    """The (g, h) pair a characteristic assigns to the boundary block key."""
    return next((q, h) for k, q, h in c.entries if k == key)


class TestCompute:
    def test_bare_triangle(self):
        g = Graph(3, [(0, 1), (0, 2), (1, 2)])
        bg = BoundariedGraph.whole(g, {0, 1, 2})
        chars = compute_characteristics(bg, {0: 1, 1: 2, 2: 3}, UD3)
        key = (0, 1, 2)
        assert (K3, frozenset()) in [entry(c, key) for c in chars]
        # every candidate must host the triangle
        for c in chars:
            assert K3.induced({1, 2, 3}) <= entry(c, key)[0].edges

    def test_outside_neighbor_forces_completion(self):
        # triangle 0,1,2 on the boundary plus an attached inside vertex 3
        g = Graph(4, [(0, 1), (0, 2), (1, 2), (3, 0), (3, 1)])
        bg = BoundariedGraph(g, frozenset(range(4)), frozenset({0, 1, 2}))
        labels = {0: 1, 1: 2, 2: 3, 3: 4}
        chars = compute_characteristics(bg, labels, UD4)
        key = (0, 1, 2)
        for c in chars:
            q, h = entry(c, key)
            assert h == frozenset({4})
            # the completed vertex must close its pattern neighborhood:
            # label 4 adjacent to exactly 1 and 2
            assert q.neighbors(4) == frozenset({1, 2})

    def test_no_characteristic_for_square(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        bg = BoundariedGraph.whole(g, {0, 1, 2, 3})
        with pytest.raises(NoCharacteristic):
            compute_characteristics(bg, {0: 1, 1: 2, 2: 3, 3: 4}, UD4)

    def test_deterministic(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        bg = BoundariedGraph(g, frozenset(range(4)), frozenset({0, 1, 2, 3}))
        labels = {0: 1, 1: 2, 2: 3, 3: 1}
        a = compute_characteristics(bg, labels, UD4)
        b = compute_characteristics(bg, labels, UD4)
        assert a == b

    def test_membership_check(self):
        g = Graph(3, [(0, 1), (0, 2), (1, 2)])
        bg = BoundariedGraph.whole(g, {0, 1, 2})
        labels = {0: 1, 1: 2, 2: 3}
        chars = compute_characteristics(bg, labels, UD3)
        assert Characteristic.of({(0, 1, 2): (K3, frozenset())}) in chars
        wrong = Characteristic.of({(0, 1, 2): (K3, frozenset({1}))})
        assert wrong not in chars


class TestRespects:
    def test_exact_realization(self):
        g = Graph(3, [(0, 1), (0, 2), (1, 2)])
        char = Characteristic.of({(0, 1): (K3, frozenset())})
        assert respects(g, frozenset({0, 1}), {0: 1, 1: 2, 2: 3}, char)

    def test_missing_vertex(self):
        g = Graph(2, [(0, 1)])
        char = Characteristic.of({(0, 1): (K3, frozenset())})
        assert not respects(g, frozenset({0, 1}), {0: 1, 1: 2}, char)


def _split_final_graph(rng, n, d, ud):
    """Random labeled chordal-block graph split at a boundary.

    Vertices are renamed so the boundary occupies ids 0..s-1 and the kept
    side the next ids; this makes independently generated splits with the
    same boundary shape directly comparable.
    """
    from conftest import is_block_labeling, random_chordal

    from blockvd.graph import biconnected_blocks

    g0 = random_chordal(rng, n)
    bd = biconnected_blocks(g0)
    if any(len(b) > d for b in bd):
        return None
    boundary0 = frozenset(rng.sample(range(n), rng.randint(1, min(n, 4))))
    side = frozenset(rng.sample(range(n), rng.randint(0, n)))
    va0 = boundary0 | side
    vb0 = boundary0 | (frozenset(range(n)) - side)
    for u, v in g0.edges():
        if not ((u in va0 and v in va0) or (u in vb0 and v in vb0)):
            return None
    order = (
        sorted(boundary0)
        + sorted(va0 - boundary0)
        + sorted(vb0 - va0)
    )
    remap = {v: i for i, v in enumerate(order)}
    g = Graph(n, [(remap[u], remap[v]) for u, v in g0.edges()])
    boundary = frozenset(range(len(boundary0)))
    va = frozenset(remap[v] for v in va0)
    vb = frozenset(remap[v] for v in vb0)
    # greedy block labeling on the renamed graph
    labels = {}
    for blk in biconnected_blocks(g):
        used = {labels[v] for v in blk if v in labels}
        for v in sorted(blk):
            if v in labels:
                continue
            free = [l for l in range(1, d + 1) if l not in used]
            if not free:
                return None
            l = rng.choice(free)
            labels[v] = l
            used.add(l)
    if not is_block_labeling(g, labels):
        return None
    a = BoundariedGraph(g, va, boundary)
    b = BoundariedGraph(g, vb, boundary)
    return g, labels, a, b


def run_equivalence_trials(rng: random.Random, target: int, d: int = 4) -> int:
    """Exercise characteristic interchangeability on pooled random splits.

    Splits random labeled chordal-block graphs at a boundary, buckets the
    kept sides by (boundary shape, labels, characteristic), and checks
    every cross pair in a bucket: swapping one side for the other must
    again give a labeled chordal-block graph respecting the shared
    characteristic whenever the joint incidence structure stays acyclic.
    Returns the number of completed checks (asserts on any violation).
    """
    from conftest import is_block_labeling

    from blockvd.graph import (
        biconnected_blocks,
        connected_components,
        induced_edges,
        is_chordal,
    )
    from blockvd.partitions import inc_is_forest

    ud = enumerate_ud(d, get_family("chordal"))
    pool: dict = {}
    checked = 0
    trials = 0
    while checked < target and trials < 200 * target:
        trials += 1
        got = _split_final_graph(rng, rng.randint(3, 9), d, ud)
        if got is None:
            continue
        g, labels, a, b = got
        try:
            chars = compute_characteristics(a, labels, ud)
        except NoCharacteristic:
            continue
        truth = [c for c in chars if respects(g, frozenset(a.boundary), labels, c)]
        if not truth:
            continue
        char = truth[0]
        key = (
            tuple(sorted(a.boundary)),
            tuple(sorted((v, labels[v]) for v in a.boundary)),
            tuple(sorted(induced_edges(g, a.boundary))),
            char,
        )
        bucket = pool.setdefault(key, [])
        for g1, labels1, a1, b1 in bucket:
            if checked >= target:
                break
            # swap the stored kept side in front of the fresh other side
            m = len(connected_components(g, a.boundary))
            if not inc_is_forest(m, [aux_partition(a1), aux_partition(b)]):
                continue
            checked += 1
            inside1 = a1.vertices - a1.boundary
            insideb = b.vertices - b.boundary
            la1 = labels1
            if inside1 & insideb:
                shift = (
                    max(max(a1.vertices, default=0), max(b.vertices, default=0)) + 1
                )
                remap = {
                    v: (v + shift if v in inside1 else v) for v in a1.vertices
                }
                edges1 = [
                    (remap[u], remap[v]) for u, v in induced_edges(g1, a1.vertices)
                ]
                n1 = max(remap.values()) + 1
                host = Graph(max(n1, max(b.vertices) + 1), edges1)
                a1 = BoundariedGraph(host, frozenset(remap.values()), a1.boundary)
                la1 = {remap[v]: labels1[v] for v in remap}
            total = sum_boundaried(a1, b)
            lab = {v: labels[v] for v in b.vertices}
            lab.update({v: la1[v] for v in a1.vertices})
            for v in range(total.n):
                lab.setdefault(v, 1)  # dense-graph filler ids are isolated
            bdx = biconnected_blocks(total)
            assert all(len(blk) <= d for blk in bdx)
            assert is_block_labeling(total, lab)
            assert is_chordal(total)
            assert respects(total, a.boundary, lab, char)
        bucket.append((g, labels, a, b))
    return checked


class TestCharacteristicInterchange:
    def test_swapping_equal_characteristics(self, rng):
        """Partial solutions with equal characteristics are interchangeable."""
        assert run_equivalence_trials(rng, target=60) >= 60
