from itertools import combinations

import pytest

from blockvd.characteristics import (
    BoundariedGraph,
    aux_partition,
    label_isomorphic,
    is_chordal,
    partial_label_isomorphic,
    s_blocks,
    sum_boundaried,
)
from blockvd.errors import CapExceeded, InvalidInput, NonChordalFamily
from blockvd.families import (
    FAMILIES,
    Pattern,
    PFamilySpec,
    enumerate_component_patterns,
    enumerate_ud,
    get_family,
)
from blockvd.graph import Graph, biconnected_blocks, connected_components
from blockvd.oracle import verify_solution
from blockvd.partitions import inc_is_forest

from conftest import is_block_labeling


def pat(labels, edges=()):
    return Pattern(frozenset(labels), frozenset(tuple(sorted(e)) for e in edges))


class TestEnumerateUd:
    def test_d2_k1k2(self):
        pats = enumerate_ud(2, get_family("k1k2"))
        assert pats == (pat({1, 2}, [(1, 2)]),)

    def test_d3_cliques(self):
        pats = enumerate_ud(3, get_family("cliques"))
        assert len(pats) == 4  # three edges plus the triangle
        assert pat({1, 2, 3}, [(1, 2), (1, 3), (2, 3)]) in pats

    def test_d4_chordal_count_regression(self):
        # 6 edges + 4 triangles + 6 diamonds + K4
        assert len(enumerate_ud(4, get_family("chordal"))) == 17

    def test_all_biconnected(self):
        for p in enumerate_ud(4, get_family("chordal")):
            assert len(p.labels) >= 2
            g = _as_graph(p)
            assert len(connected_components(g)) == 1
            assert len(biconnected_blocks(g)) == 1

    def test_cycles_family_rejected_at_d4(self):
        with pytest.raises(NonChordalFamily):
            enumerate_ud(4, get_family("cycles"))
        with pytest.raises(NonChordalFamily):
            enumerate_ud(4, get_family("all"))

    def test_cycles_family_fine_at_d3(self):
        pats = enumerate_ud(3, get_family("cycles"))
        assert len(pats) == 4

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_ud(7, get_family("k1k2"))

    def test_component_patterns_include_k1(self):
        pats = enumerate_component_patterns(2, get_family("chordal"))
        assert pat({1}) in pats and pat({2}) in pats
        assert pat({1, 2}, [(1, 2)]) in pats
        assert pat({1, 2}) not in pats  # disconnected

    def test_component_count_d3_chordal(self):
        # 3 singletons + 3 edges + 3 paths per triple + 1 triangle
        pats = enumerate_component_patterns(3, get_family("chordal"))
        assert len(pats) == 3 + 3 + 3 + 1


def _as_graph(p):
    order = sorted(p.labels)
    idx = {l: i for i, l in enumerate(order)}
    return Graph(len(order), [(idx[a], idx[b]) for a, b in p.edges])


def _reference_member(name, g):
    n = g.n
    if name == "k1k2":
        return n <= 2
    if name == "cliques":
        return len(g.edges()) == n * (n - 1) // 2
    if name == "chordal":
        return is_chordal(g)
    if name == "cycles":
        return n <= 2 or all(len(g.neighbors(v)) == 2 for v in range(n))
    assert name == "all"
    return True


def _reference_universe(d, name, biconnected):
    """The universe by brute force over Graph objects, or the message of
    the first accepted non-chordal pattern."""
    out = []
    for lmask in range(1 << d):
        labels = [i + 1 for i in range(d) if lmask >> i & 1]
        if len(labels) < (2 if biconnected else 1):
            continue
        pairs = list(combinations(range(len(labels)), 2))
        for emask in range(1 << len(pairs)):
            es = [pairs[j] for j in range(len(pairs)) if emask >> j & 1]
            g = Graph(len(labels), es)
            if len(connected_components(g)) != 1:
                continue
            if biconnected and len(biconnected_blocks(g)) != 1:
                continue
            if not _reference_member(name, g):
                continue
            p = pat(labels, [(labels[a], labels[b]) for a, b in es])
            if not is_chordal(g):
                return f"family {name!r} admits the non-chordal pattern {p}"
            out.append(p)
    return tuple(sorted(out, key=Pattern.sort_key))


def _universe_or_message(d, fam, biconnected):
    enum = enumerate_ud if biconnected else enumerate_component_patterns
    try:
        return enum(d, fam)
    except NonChordalFamily as exc:
        return str(exc)


class TestUniverseDifferential:
    @pytest.mark.parametrize("biconnected", [True, False])
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_matches_reference_filter(self, name, biconnected):
        for d in range(1, 6):
            got = _universe_or_message(d, get_family(name), biconnected)
            assert got == _reference_universe(d, name, biconnected), (d, name)

    @pytest.mark.parametrize("biconnected", [True, False])
    @pytest.mark.parametrize("name", ["cycles", "all"])
    def test_first_non_chordal_pattern_named(self, name, biconnected):
        for d in (4, 5):
            got = _universe_or_message(d, get_family(name), biconnected)
            assert got == (
                f"family {name!r} admits the non-chordal pattern "
                "<1,2,3,4: 1-3 1-4 2-3 2-4>"
            )

    @pytest.mark.parametrize(
        "name, block, component",
        [("k1k2", 15, 21), ("cliques", 57, 63), ("chordal", 3842, 17174)],
    )
    def test_d6_sizes(self, name, block, component):
        fam = get_family(name)
        assert len(enumerate_ud(6, fam)) == block
        assert len(enumerate_component_patterns(6, fam)) == component

    @pytest.mark.parametrize("biconnected", [True, False])
    def test_unknown_family_rejected_at_d1(self, biconnected):
        enum = enumerate_ud if biconnected else enumerate_component_patterns
        with pytest.raises(InvalidInput, match="unknown family 'zzz'"):
            enum(1, PFamilySpec("zzz"))


def _all_graphs(max_n):
    for n in range(max_n + 1):
        pairs = list(combinations(range(n), 2))
        for emask in range(1 << len(pairs)):
            yield Graph(n, [pairs[j] for j in range(len(pairs)) if emask >> j & 1])


def _masks(g):
    return [sum(1 << u for u in g.neighbors(v)) for v in range(g.n)]


class TestMaskPredicate:
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_contains_matches_reference_on_small_graphs(self, name):
        fam = get_family(name)
        for g in _all_graphs(5):
            assert fam.contains(_masks(g)) == _reference_member(name, g), g.edges()

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_oracle_uses_the_predicate(self, name):
        # with nothing deleted, a connected graph is one component and a
        # biconnected one a single block
        for g in _all_graphs(5):
            if not g.n or len(connected_components(g)) != 1:
                continue
            want = _reference_member(name, g)
            assert verify_solution(g, (), 5, name, "component") == want, g.edges()
            if len(biconnected_blocks(g)) == 1:
                assert verify_solution(g, (), 5, name, "block") == want, g.edges()


class TestLabelings:
    def test_triangle_distinct(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert is_block_labeling(g, {0: 1, 1: 2, 2: 3})
        assert not is_block_labeling(g, {0: 1, 1: 1, 2: 2})

    def test_shared_cut_vertex(self):
        g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        labels = {0: 1, 1: 2, 2: 3, 3: 1, 4: 2}
        assert is_block_labeling(g, labels)


class TestPartialLabelIso:
    def test_edge_inside_triangle(self):
        g = Graph(2, [(0, 1)])
        q = pat({1, 2, 3}, [(1, 2), (1, 3), (2, 3)])
        assert partial_label_isomorphic(g, [0, 1], {0: 1, 1: 2}, q)

    def test_path_not_matching_triangle(self):
        g = Graph(3, [(0, 1), (1, 2)])
        q = pat({1, 2, 3}, [(1, 2), (1, 3), (2, 3)])
        assert not partial_label_isomorphic(g, [0, 1, 2], {0: 1, 1: 2, 2: 3}, q)

    def test_label_outside_pattern(self):
        g = Graph(2, [(0, 1)])
        q = pat({1, 2}, [(1, 2)])
        assert not partial_label_isomorphic(g, [0, 1], {0: 1, 1: 4}, q)

    def test_full_iso_needs_all_labels(self):
        g = Graph(2, [(0, 1)])
        q3 = pat({1, 2, 3}, [(1, 2), (1, 3), (2, 3)])
        q2 = pat({1, 2}, [(1, 2)])
        labels = {0: 1, 1: 2}
        assert not label_isomorphic(g, [0, 1], labels, q3)
        assert label_isomorphic(g, [0, 1], labels, q2)


def _figure_pair():
    """The two labeled boundaried graphs whose glued square-of-squares is
    locally compatible with the diamond yet fuses into a long cycle."""
    q = pat({1, 2, 3, 4}, [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4)])
    ga = Graph(
        7, [(0, 1), (0, 4), (1, 4), (2, 3), (2, 5), (3, 5), (4, 6), (6, 5)]
    )
    la = {0: 1, 1: 2, 2: 1, 3: 2, 4: 3, 5: 3, 6: 2}
    gb = Graph(
        10, [(0, 1), (0, 7), (1, 7), (2, 3), (2, 8), (3, 8), (7, 9), (9, 8)]
    )
    lb = {0: 1, 1: 2, 2: 1, 3: 2, 7: 4, 8: 4, 9: 1}
    boundary = frozenset({0, 1, 2, 3})
    a = BoundariedGraph(ga, frozenset({0, 1, 2, 3, 4, 5, 6}), boundary)
    b = BoundariedGraph(gb, frozenset({0, 1, 2, 3, 7, 8, 9}), boundary)
    return a, la, b, lb, q


class TestPaperFigure:
    def test_glued_figure_fuses_into_a_cycle(self):
        """Both sides fit the diamond block by block, yet the glued graph is
        not chordal; the joint incidence structure has a cycle, which is
        what the dynamic programs reject at a join."""
        a, la, b, lb, q = _figure_pair()
        for side, labels in ((a, la), (b, lb)):
            for x in s_blocks(side):
                assert partial_label_isomorphic(side.host, x, labels, q)
        m = len(connected_components(a.host, a.boundary))
        assert not inc_is_forest(m, [aux_partition(a), aux_partition(b)])
        assert not is_chordal(sum_boundaried(a, b))
