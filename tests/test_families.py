import pytest

from blockvd.errors import CapExceeded, NonChordalFamily
from blockvd.families import (
    Pattern,
    enumerate_component_patterns,
    enumerate_ud,
    get_family,
    is_block_labeling,
    label_isomorphic,
    partial_label_isomorphic,
)
from blockvd.graph import (
    BoundariedGraph,
    Graph,
    aux_partition,
    connected_components,
    is_chordal,
    s_blocks,
    sum_boundaried,
)
from blockvd.partitions import inc_is_forest


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
        from blockvd.families import pattern_is_biconnected

        for p in enumerate_ud(4, get_family("chordal")):
            assert pattern_is_biconnected(p)
            assert len(p.labels) >= 2

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
