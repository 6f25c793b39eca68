"""Label canonization in the DP engine, checked against its definition.

The canonical form of a state's (L, gh) is the lexicographic minimum of
its images under all d! permutations of the label alphabet; the engine
searches only the permutations that renumber L by first appearance.
The reference here is the definition itself.
"""

from __future__ import annotations

import random
from itertools import permutations

import pytest

from blockvd import dp_block, dp_component
from blockvd.instance import Instance

from conftest import random_graph

BUILD = {"block": dp_block.build_engine, "component": dp_component.build_engine}
FAMILIES = ("k1k2", "cliques", "chordal")


def instances(mode: str, count: int, seed: int):
    """Small random instances at d in {3, 4}, all of width at most 4.

    At width 4 or less no family exceeds the representative-set bound,
    so no reduction runs and tables hold every realized partition.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(6, 8)
        g = random_graph(rng, n, rng.randint(n - 1, int(n * 1.5)))
        inst = Instance(g, rng.choice([3, 4]), rng.randint(1, 4), rng.choice(FAMILIES), mode)
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


def sigma_image(engine, sigma: tuple[int, ...], lkey, gh):
    """(L, gh) under sigma, which sends label l to sigma[l - 1]."""
    smap = dict(enumerate(sigma, 1))
    pats = engine.patterns
    return (
        tuple(sigma[l - 1] for l in lkey),
        tuple(
            (
                unit,
                engine.intern(
                    engine.pat_index[pats[q].relabel(smap)] for q in engine.set_of(sid)
                ),
                permute_mask(sigma, hm),
            )
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
                want = set()
                for sigma in sigmas:
                    l2, gh2 = sigma_image(engine, sigma, lk, gh)
                    if l2 == lk:
                        want.add(gh2)
                assert len(ghs) == len(want)
                assert set(ghs) == want
    assert joins > 0


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
                orbit = orbit_images(id_free(off, key), sigmas, relabel)
                merged.setdefault(orbit, set()).update(fam)
                for image in orbit:
                    orbit_of[image] = orbit
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
