"""Label canonization in the DP engine, checked against its definition.

The canonical form of a state's (L, gh) is the lexicographic minimum of
its images under all d! permutations of the label alphabet; the engine
reaches only the images that renumber L by first appearance, by walking
the orbit of one of them under the permutations of the labels absent
from L.  The reference here is the definition itself, computed with
``Pattern.relabel``.
"""

from __future__ import annotations

import random
import weakref
from itertools import permutations

import pytest

from blockvd import dp_block, dp_component
from blockvd._dpcore import Engine
from blockvd.decomposition import heuristic_td, to_nice
from blockvd.families import Pattern, enumerate_component_patterns, enumerate_ud, get_family
from blockvd.instance import Instance

from conftest import random_graph

BUILD = {"block": dp_block.build_engine, "component": dp_component.build_engine}
FAMILIES = ("k1k2", "cliques", "chordal")


def instances(mode: str, count: int, seed: int):
    """Small random instances at d in {3, 4, 5}, all of width at most 4.

    At width 4 or less no family exceeds the representative-set bound,
    so no reduction runs and tables hold every realized partition.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(6, 8)
        g = random_graph(rng, n, rng.randint(n - 1, int(n * 1.5)))
        inst = Instance(g, rng.choice([3, 4, 5]), rng.randint(1, 4), rng.choice(FAMILIES), mode)
        engine = BUILD[mode](inst)
        if engine.ntd.width <= 4:
            out.append(inst)
    return out


def kept_tables(engine) -> dict[int, dict]:
    engine._debug_keep_tables = True
    res = engine.run()
    return dict(zip(engine.ntd.postorder(), res.tables))


def permute_mask(sigma: tuple[int, ...], mask: int) -> int:
    return sum(1 << (s - 1) for l, s in enumerate(sigma) if mask >> l & 1)


# per engine: pattern -> index, and per sigma the image index of each pattern
_RELABEL: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def sigma_image(engine, sigma: tuple[int, ...], lkey, gh):
    """(L, gh) under sigma, which sends label l to sigma[l - 1]."""
    index, by_sigma = _RELABEL.setdefault(
        engine, ({p: q for q, p in enumerate(engine.patterns)}, {})
    )
    memo = by_sigma.setdefault(sigma, {})

    def image(q: int) -> int:
        got = memo.get(q)
        if got is None:
            got = memo[q] = index[engine.patterns[q].relabel(dict(enumerate(sigma, 1)))]
        return got

    return (
        tuple(sigma[l - 1] for l in lkey),
        tuple(
            (unit, engine.intern(map(image, engine.set_of(sid))), permute_mask(sigma, hm))
            for unit, sid, hm in gh
        ),
    )


def reference_canon(engine, lkey, gh):
    return min(
        sigma_image(engine, sigma, lkey, gh)
        for sigma in permutations(range(1, engine.d + 1))
    )


@pytest.mark.parametrize("mode", ["block", "component"])
def test_canon_is_the_least_image_over_all_permutations(mode):
    rng = random.Random(1)
    checked = 0
    for inst in instances(mode, 4, seed=2):
        engine = BUILD[mode](inst)
        assert engine.canonize
        states = [key for t in kept_tables(engine).values() for key in t]
        sigmas = list(permutations(range(1, engine.d + 1)))
        for xk, lk, i, gh in rng.sample(states, min(len(states), 60)):
            # stored states are canonical, and so is every relabelling of them
            assert engine.canon(lk, gh) == reference_canon(engine, lk, gh) == (lk, gh)
            moved = sigma_image(engine, rng.choice(sigmas), lk, gh)
            assert engine.canon(*moved) == reference_canon(engine, *moved) == (lk, gh)
            checked += 1
    assert checked > 100


@pytest.mark.parametrize("mode", ["block", "component"])
def test_join_index_holds_the_images_with_an_equal_label_key(mode):
    joins = 0
    for inst in instances(mode, 4, seed=3):
        engine = BUILD[mode](inst)
        ntd = engine.ntd
        tables = kept_tables(engine)
        sigmas = list(permutations(range(1, engine.d + 1)))
        for node in ntd.postorder():
            if ntd.kinds[node] != "join":
                continue
            joins += 1
            left = tables[ntd.children[node][0]]
            index = engine._join_index(left)
            got: dict = {}
            for (xk, lk), entries in index.items():
                for key, gh2 in entries:
                    assert (key[0], key[1]) == (xk, lk)
                    got.setdefault(key, []).append(gh2)
            assert set(got) == {key for key, fam in left.items() if fam}
            for key, ghs in got.items():
                _, lk, _, gh = key
                want = {
                    sigma_image(engine, sigma, lk, gh)[1]
                    for sigma in sigmas
                    if all(sigma[l - 1] == l for l in lk)
                }
                assert len(ghs) == len(want)
                assert set(ghs) == want
    assert joins > 0


def clique_patterns(d: int, min_labels: int) -> tuple[Pattern, ...]:
    """The cliques family's patterns on label subsets of [d], in engine order.

    Built directly, because enumerating a universe at d = 6 takes a second
    or more whatever the family.
    """
    out = []
    for mask in range(1, 1 << d):
        labels = [l for l in range(1, d + 1) if mask >> (l - 1) & 1]
        if len(labels) >= min_labels:
            edges = frozenset((a, b) for a in labels for b in labels if a < b)
            out.append(Pattern(frozenset(labels), edges))
    return tuple(sorted(out, key=Pattern.sort_key))


def test_clique_patterns_match_the_enumerated_universes():
    cliques = get_family("cliques")
    assert clique_patterns(5, 2) == enumerate_ud(5, cliques)
    assert clique_patterns(5, 1) == enumerate_component_patterns(5, cliques)


def universe(mode: str, d: int, family: str) -> tuple[Pattern, ...]:
    if family == "cliques":
        return clique_patterns(d, 2 if mode == "block" else 1)
    enum = enumerate_ud if mode == "block" else enumerate_component_patterns
    return enum(d, get_family(family))


def first_appearance_images(engine, lkey, gh) -> set:
    """The reference image set: (L, gh) under each of the (d - u)!
    permutations that renumber L by first appearance."""
    d = engine.d
    order = tuple(dict.fromkeys(lkey))
    absent = [l for l in range(1, d + 1) if l not in order]
    want = set()
    for rest in permutations(range(len(order) + 1, d + 1)):
        image = dict(zip(order, range(1, len(order) + 1)))
        image.update(zip(absent, rest))
        want.add(sigma_image(engine, tuple(image[l] for l in range(1, d + 1)), lkey, gh))
    return want


@pytest.mark.parametrize("mode", ["block", "component"])
@pytest.mark.parametrize("d, family", [(5, "chordal"), (5, "cliques"), (6, "cliques")])
def test_images_are_the_first_appearance_images(mode, d, family):
    rng = random.Random(d)
    g = random_graph(rng, 7, 10)
    engine = Engine(mode, g, d, 2, universe(mode, d, family), to_nice(heuristic_td(g), g))
    states = [key for t in kept_tables(engine).values() for key in t]
    sigmas = list(permutations(range(1, d + 1)))
    images = checked = 0
    for xk, lk, i, gh in rng.sample(states, min(len(states), 25)):
        # a stored state renumbers L by first appearance already; a moved
        # copy of it does not
        for lkey, gh2 in ((lk, gh), sigma_image(engine, rng.choice(sigmas), lk, gh)):
            got = engine._images(lkey, gh2)
            assert len(set(got)) == len(got)
            assert set(got) == first_appearance_images(engine, lkey, gh2)
            images += len(got)
            checked += 1
    # some orbits hold more than one image
    assert images > checked


def id_free(engine, key):
    """A state key with pattern sets in place of set ids."""
    xk, lk, i, gh = key
    return (
        xk,
        lk,
        i,
        tuple(
            (unit, frozenset(engine.patterns[q] for q in engine.set_of(sid)), hm)
            for unit, sid, hm in gh
        ),
    )


def orbit_images(free_key, sigmas, relabel) -> frozenset:
    xk, lk, i, gh = free_key
    return frozenset(
        (
            xk,
            tuple(sigma[l - 1] for l in lk),
            i,
            tuple(
                (unit, frozenset(relabel(p, sigma) for p in pats), permute_mask(sigma, hm))
                for unit, pats, hm in gh
            ),
        )
        for sigma in sigmas
    )


@pytest.mark.parametrize("mode", ["block", "component"])
def test_canonization_only_merges_label_permutation_orbits(mode):
    relabelled: dict = {}

    def relabel(p, sigma):
        got = relabelled.get((p, sigma))
        if got is None:
            got = relabelled[(p, sigma)] = p.relabel(dict(enumerate(sigma, 1)))
        return got

    nodes = 0
    for inst in instances(mode, 6, seed=6):
        on = BUILD[mode](inst)
        off = BUILD[mode](inst, on.ntd)
        off.canonize = False
        on_tables, off_tables = kept_tables(on), kept_tables(off)
        sigmas = list(permutations(range(1, inst.d + 1)))
        for node in on.ntd.postorder():
            # union of the canonize-off families over each orbit
            orbit_of: dict = {}
            merged: dict[frozenset, set] = {}
            for key, fam in off_tables[node].items():
                free = id_free(off, key)
                orbit = orbit_of.get(free)
                if orbit is None:
                    orbit = orbit_images(free, sigmas, relabel)
                    for image in orbit:
                        orbit_of[image] = orbit
                merged.setdefault(orbit, set()).update(fam)
            seen = set()
            for key, fam in on_tables[node].items():
                orbit = orbit_of.get(id_free(on, key))
                assert orbit is not None, (node, key)
                assert orbit not in seen, (node, key)
                seen.add(orbit)
                assert set(fam) == merged[orbit], (node, key)
            assert len(seen) == len(merged), node
            nodes += 1
    assert nodes > 0
