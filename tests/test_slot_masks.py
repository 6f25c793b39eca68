"""Slot masks against the per-pattern definitions they replace.

A hypothesis slot is an int whose bit q stands for ``engine.patterns[q]``.
Each mask operation of the engine is compared here with a reference that
looks at the patterns one at a time: ``Pattern.induced`` for the patterns
hosting a labeled shape, and the union of a pattern's neighborhoods over
a label set for the introduce filter, the join filter and the grouping of
a sunk unit's candidates.
"""

import random

import pytest

from blockvd._dpcore import Engine
from blockvd.characteristics import pattern_induced
from blockvd.decomposition import heuristic_td, to_nice
from blockvd.families import enumerate_component_patterns, enumerate_ud, get_family
from blockvd.graph import Graph, _bits, _mask_of

from conftest import clique_patterns, members

CASES = 400
UNIVERSES = [("block", 5, "chordal"), ("component", 4, "chordal"), ("component", 6, "cliques")]


@pytest.fixture(scope="module", params=UNIVERSES, ids=lambda u: "%s-d%d-%s" % u)
def engine(request):
    mode, d, family = request.param
    if family == "cliques":
        patterns = clique_patterns(d, 2 if mode == "block" else 1)
    else:
        enum = enumerate_ud if mode == "block" else enumerate_component_patterns
        patterns = enum(d, get_family(family))
    g = Graph(1, [])
    return Engine(mode, g, d, 0, patterns, to_nice(heuristic_td(g), g))


def label_mask(labels) -> int:
    return sum(1 << (l - 1) for l in set(labels))


def adj_union(p, mask: int) -> int:
    """The labels p joins to a label in mask, as a label mask."""
    out = 0
    for a, b in p.edges:
        if mask >> (a - 1) & 1:
            out |= 1 << (b - 1)
        if mask >> (b - 1) & 1:
            out |= 1 << (a - 1)
    return out


def random_slot(rng: random.Random, engine) -> int:
    """A non-empty slot, as every stored hypothesis is."""
    density = rng.choice([0.05, 0.5, 0.95])
    mask = sum(1 << q for q in range(len(engine.patterns)) if rng.random() < density)
    return mask or 1 << rng.randrange(len(engine.patterns))


def random_shape(rng: random.Random, engine):
    """A labeled unit with its edges; half the time a pattern's induced
    shape on some of its labels, so that some pattern hosts it."""
    if rng.random() < 0.5:
        p = rng.choice(engine.patterns)
        labels = rng.sample(sorted(p.labels), rng.randint(1, len(p.labels)))
        linked = lambda a, b: (min(a, b), max(a, b)) in p.edges
    else:
        labels = rng.sample(range(1, engine.d + 1), rng.randint(1, engine.d))
        coin = {(a, b): rng.random() < 0.5 for a in labels for b in labels}
        linked = lambda a, b: coin[(min(a, b), max(a, b))]
    unit = tuple(range(len(labels)))
    edges = [(u, w) for u in unit for w in unit if u < w and linked(labels[u], labels[w])]
    return unit, edges, dict(zip(unit, labels))


def test_compat_set_is_the_induced_shape_scan(engine):
    rng = random.Random(engine.d)
    hosted = 0
    for _ in range(CASES):
        unit, edges, lab = random_shape(rng, engine)
        labset = set(lab.values())
        mapped = frozenset((min(lab[a], lab[b]), max(lab[a], lab[b])) for a, b in edges)
        want = {
            q
            for q, p in enumerate(engine.patterns)
            if labset <= p.labels and pattern_induced(p, labset) == mapped
        }
        assert members(engine.compat_set(unit, edges, lab)) == want
        hosted += bool(want)
    assert CASES // 3 < hosted < CASES
    # a unit repeating a label is hosted by no pattern
    assert engine.compat_set((0, 1), [(0, 1)], {0: 1, 1: 1}) == 0


def test_introduce_filter_keeps_v_apart_from_the_attached_labels(engine):
    rng = random.Random(engine.d + 1)
    for _ in range(CASES):
        pats = random_slot(rng, engine)
        lvbit = 1 << rng.randrange(engine.d)
        hm = rng.getrandbits(engine.d) & ~lvbit
        want = {q for q in members(pats) if not (hm & adj_union(engine.patterns[q], lvbit))}
        assert members(pats & ~engine.linked(lvbit, hm)) == want


def test_join_filter_keeps_the_two_attached_sets_apart(engine):
    rng = random.Random(engine.d + 2)
    for _ in range(CASES):
        common = random_slot(rng, engine)
        h1 = rng.getrandbits(engine.d)
        h2 = rng.getrandbits(engine.d) & ~h1
        want = {q for q in members(common) if not (adj_union(engine.patterns[q], h1) & h2)}
        assert members(common & ~engine.linked(h1, h2)) == want


def reference_sink(engine, cands, hm, lv, pieces, labs):
    """The branches of a sunk unit, computed pattern by pattern."""
    lvbit = 1 << (lv - 1)
    amasks = [label_mask(labs[u] for u in piece) for piece in pieces]

    def attached(q, amask):
        return lvbit | (adj_union(engine.patterns[q], amask) & ~amask & hm)

    if len(pieces) == 1:
        groups: dict[int, set[int]] = {}
        for q in sorted(members(cands)):
            groups.setdefault(attached(q, amasks[0]), set()).add(q)
        return [[(pieces[0], qs, hv)] for hv, qs in sorted(groups.items())]
    return [
        [(piece, {q}, attached(q, amask)) for piece, amask in zip(pieces, amasks)]
        for q in sorted(members(cands))
    ]


def test_sink_branches_group_candidates_by_attached_labels(engine):
    rng = random.Random(engine.d + 3)
    pooled = split = 0
    for _ in range(CASES):
        d = engine.d
        labels = rng.sample(range(1, d + 1), rng.randint(2, d))
        unit = tuple(range(len(labels)))
        labs = dict(zip(unit, labels))
        # vertex 0, labeled lv, sinks; the rest falls into up to 3 pieces
        rest = list(unit[1:])
        count = rng.randint(1, min(3, len(rest)))
        cuts = sorted(rng.sample(range(1, len(rest)), count - 1))
        pieces = [tuple(rest[a:b]) for a, b in zip([0] + cuts, cuts + [len(rest)])]
        cands = random_slot(rng, engine)
        hm = rng.getrandbits(d)
        got = engine._sink_unit_branches(cands, hm, labs[0], pieces, labs)
        got = [[(piece, members(mask), hv) for piece, (mask, hv) in zip(pieces, b)] for b in got]
        assert got == reference_sink(engine, cands, hm, labs[0], pieces, labs)
        pooled += len(pieces) == 1 and any(len(b[0][1]) > 1 for b in got)
        split += len(pieces) > 1 and len(got) > 1
    assert pooled and split


@pytest.mark.parametrize("size", [0, 1, 7, 64, 166, 17174])
def test_bits_and_mask_of_invert_each_other(size):
    rng = random.Random(size)
    for density in (0.0, 0.01, 0.5, 1.0):
        bits = [q for q in range(size) if rng.random() < density]
        mask = _mask_of(bits, size)
        assert mask == sum(1 << q for q in bits)
        assert _bits(mask) == bits


@pytest.mark.parametrize("count", [1, 2, 7, 8, 9, 10, 64])
def test_bits_reads_long_sparse_masks_either_way(count):
    # around the switch from walking the set bits (at most 8 of them) to
    # reading the digits, on short and long masks
    rng = random.Random(count)
    for size in (count, count + 1, 64, 1 << 15):
        bits = sorted(rng.sample(range(size - 1), count - 1) + [size - 1])
        assert _bits(_mask_of(bits, size)) == bits
