"""Spec-level code, kept off the solver path: the reference for
acceptance criteria 4 (``verify_representative``), 5 and 6.

A boundaried graph is a view (host, vertices, boundary) of a graph with
boundary S.  Two compatible ones glue into their sum
(``sum_boundaried``), and the sum of two chordal pieces is chordal
exactly when the incidence graph of their boundary partitions
(``aux_partition``) is a forest (``chordal_sum_agrees``).

A characteristic assigns to every non-trivial boundary block B a
hypothesis g(B) for the final shape of the block that will contain B,
plus the set h(B) of labels of outside neighbors already attached to
that block; pieces with the same characteristic can be swapped.  This
module computes admissible characteristics and checks a sum against
one; the dynamic programs apply the introduce, forget and join
relations between them in table-driven form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import IncompatibleBoundary, InvalidInput, NoCharacteristic, TooLarge
from .families import Pattern
from .graph import (
    Graph,
    _check_range,
    biconnected_blocks,
    chordal_masks,
    connected_components,
    induced_masks,
)
from .partitions import Partition, inc_is_forest


def induced_edges(g: Graph, within: Iterable[int]) -> frozenset[tuple[int, int]]:
    """The edges of g with both ends in within.  An id outside 0..n-1
    raises InvalidInput."""
    ws = set(within)
    _check_range(g, ws)
    return frozenset((u, v) for (u, v) in g.edges() if u in ws and v in ws)


def is_chordal(g: Graph, within: Iterable[int] | None = None) -> bool:
    """Is the subgraph induced by within (all of g by default) chordal?"""
    verts = sorted(set(within)) if within is not None else range(g.n)
    return chordal_masks(induced_masks(g, verts))


def pattern_induced(q: Pattern, labels: Iterable[int]) -> frozenset[tuple[int, int]]:
    """The edges of q with both ends in labels."""
    ls = set(labels)
    return frozenset((a, b) for (a, b) in q.edges if a in ls and b in ls)


def pattern_neighbors(q: Pattern, z: int) -> frozenset[int]:
    """The labels adjacent to z in q."""
    return frozenset(b if a == z else a for a, b in q.edges if z in (a, b))


def all_partitions(m: int) -> Iterator[Partition]:
    """Every partition of {0..m-1}, in restricted-growth-string order.

    A negative m raises at the call, not at the first item.
    """
    if m < 0:
        raise InvalidInput(f"negative ground-set size {m}")
    if m == 0:
        return iter((Partition(()),))
    rgs = [0] * m

    def rec(i: int, maxv: int) -> Iterator[Partition]:
        if i == m:
            groups: dict[int, list[int]] = {}
            for e, g in enumerate(rgs):
                groups.setdefault(g, []).append(e)
            yield Partition.from_parts(m, groups.values())
            return
        for v in range(maxv + 2):
            rgs[i] = v
            yield from rec(i + 1, max(maxv, v))

    return rec(1, 0)


def verify_representative(
    m: int, family: Sequence[Partition], sub: Sequence[Partition]
) -> bool:
    """Exhaustive check of the representative-set definition (m <= 7)."""
    if m > 7:
        raise TooLarge("exhaustive verification capped at ground sets of size 7")
    subs = list(sub)
    for y in all_partitions(m):
        if any(inc_is_forest(m, [x, y]) for x in family):
            if not any(inc_is_forest(m, [x, y]) for x in subs):
                return False
    return True


@dataclass(frozen=True)
class BoundariedGraph:
    """A view (host, vertices, boundary) of a graph with boundary S.

    ``vertices`` may be any subset of the host's vertex set; all derived
    structure (components, blocks, boundary grouping) is taken in the
    induced subgraph.
    """

    host: Graph
    vertices: frozenset[int]
    boundary: frozenset[int]

    def __post_init__(self) -> None:
        if not self.boundary <= self.vertices:
            raise InvalidInput("boundary must be a subset of the vertex set")
        _check_range(self.host, self.vertices)

    @classmethod
    def whole(cls, g: Graph, boundary: Iterable[int]) -> "BoundariedGraph":
        return cls(g, frozenset(range(g.n)), frozenset(boundary))

    def edges(self) -> frozenset[tuple[int, int]]:
        return induced_edges(self.host, self.vertices)

    def boundary_edges(self) -> frozenset[tuple[int, int]]:
        return induced_edges(self.host, self.boundary)

    def components(self) -> list[frozenset[int]]:
        return connected_components(self.host, self.vertices)

    def boundary_components(self) -> list[frozenset[int]]:
        return connected_components(self.host, self.boundary)


def s_blocks(bg: BoundariedGraph) -> list[frozenset[int]]:
    """Blocks of the induced graph that contain an edge inside the boundary."""
    bedges = bg.boundary_edges()
    out = []
    for blk in biconnected_blocks(bg.host, bg.vertices):
        if any(u in blk and v in blk for (u, v) in bedges):
            out.append(blk)
    return out


def nontrivial_boundary_blocks(bg: BoundariedGraph) -> list[frozenset[int]]:
    """Non-trivial blocks of G[S], sorted canonically."""
    return [b for b in biconnected_blocks(bg.host, bg.boundary) if len(b) >= 2]


def sum_boundaried(a: BoundariedGraph, b: BoundariedGraph) -> Graph:
    """Glue two compatible boundaried graphs along their shared boundary.

    Compatibility is realized by shared vertex ids: the boundaries must be
    identical sets with identical induced edges, and the non-boundary
    vertex sets must be disjoint.  The result is a dense graph on
    0..max(id); ids outside either vertex set come out isolated.
    """
    if a.boundary != b.boundary:
        raise IncompatibleBoundary("boundary sets differ")
    if a.boundary_edges() != b.boundary_edges():
        raise IncompatibleBoundary("induced boundary subgraphs differ")
    if (a.vertices - a.boundary) & (b.vertices - b.boundary):
        raise IncompatibleBoundary("non-boundary vertex sets overlap")
    union = a.vertices | b.vertices
    n = (max(union) + 1) if union else 0
    return Graph(n, sorted(a.edges() | b.edges()))


def aux_partition(bg: BoundariedGraph) -> Partition:
    """Group boundary components by the component of G containing them.

    Ground-set index i refers to the i-th boundary component in canonical
    order (components sorted by minimum vertex).
    """
    bcomps = bg.boundary_components()
    comps = bg.components()
    owner: dict[int, int] = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            owner[v] = ci
    groups: dict[int, list[int]] = {}
    for bi, bc in enumerate(bcomps):
        groups.setdefault(owner[min(bc)], []).append(bi)
    return Partition.from_parts(len(bcomps), groups.values())


def chordal_sum_agrees(a: BoundariedGraph, b: BoundariedGraph) -> bool | None:
    """Is the sum of a and b chordal exactly when the incidence graph of
    their boundary partitions is a forest?  None when a fused S-block of
    the sum is not chordal, where the equivalence does not apply."""
    total = sum_boundaried(a, b)
    fused = s_blocks(BoundariedGraph.whole(total, a.boundary))
    if not all(is_chordal(total, blk) for blk in fused):
        return None
    m = len(a.boundary_components())
    return is_chordal(total) == inc_is_forest(m, [aux_partition(a), aux_partition(b)])


def _label_image(
    g: Graph, vertices: Iterable[int], labels: Mapping[int, int]
) -> frozenset[tuple[int, int]]:
    """The edges of G[vertices] as label pairs, smaller label first."""
    return frozenset(
        (min(labels[u], labels[v]), max(labels[u], labels[v]))
        for (u, v) in induced_edges(g, vertices)
    )


def partial_label_isomorphic(
    g: Graph,
    vertices: Iterable[int],
    labels: Mapping[int, int],
    q: Pattern,
) -> bool:
    """Does the labeled subgraph match q's induced subgraph on its labels?

    The vertex set is expected to induce a biconnected (or, for the
    component variant, connected) subgraph; the map sends each vertex to
    the pattern vertex carrying its label.
    """
    vs = list(vertices)
    lset = {labels[v] for v in vs}
    if len(lset) != len(vs) or not lset <= q.labels:
        return False
    return _label_image(g, vs, labels) == pattern_induced(q, lset)


def label_isomorphic(
    g: Graph,
    vertices: Iterable[int],
    labels: Mapping[int, int],
    q: Pattern,
) -> bool:
    """Full label-isomorphism: same label set and matching edges."""
    vs = set(vertices)
    if frozenset(labels[v] for v in vs) != q.labels or len(vs) != len(q.labels):
        return False
    return partial_label_isomorphic(g, vs, labels, q)


BlockKey = tuple[int, ...]


@dataclass(frozen=True)
class Characteristic:
    """Canonical (g, h): one (pattern, labelset) entry per boundary block."""

    entries: tuple[tuple[BlockKey, Pattern, frozenset[int]], ...]

    @classmethod
    def of(
        cls,
        mapping: Mapping[BlockKey, tuple[Pattern, frozenset[int]]],
    ) -> "Characteristic":
        return cls(tuple((k, mapping[k][0], mapping[k][1]) for k in sorted(mapping)))


def _completeness_witnesses(
    bg: BoundariedGraph, sblock: frozenset[int]
) -> list[int]:
    """Vertices of the S-block whose neighborhoods must already be final.

    These are the inside (non-boundary) vertices, plus boundary vertices
    that are the sole contact between the S-block and their boundary
    component.
    """
    out = [w for w in sblock if w not in bg.boundary]
    for comp in bg.boundary_components():
        inter = sblock & comp
        if len(inter) == 1:
            out.append(next(iter(inter)))
    return sorted(set(out))


def _neighborhood_matches(
    g: Graph,
    sblock: frozenset[int],
    labels: Mapping[int, int],
    q: Pattern,
    w: int,
) -> bool:
    closed = {w} | {u for u in g.neighbors(w) if u in sblock}
    z = labels[w]
    if z not in q.labels:
        return False
    q_closed = {z} | pattern_neighbors(q, z)
    if {labels[u] for u in closed} != q_closed:
        return False
    # edge sets must match under the label map
    return _label_image(g, closed, labels) == pattern_induced(q, q_closed)


def sblock_pattern_candidates(
    bg: BoundariedGraph,
    labels: Mapping[int, int],
    sblock: frozenset[int],
    ud: Sequence[Pattern],
) -> list[Pattern]:
    """Patterns a given S-block may still grow into.

    A candidate must host the S-block as the induced subgraph on its
    labels, and every already-finished vertex of the S-block must see its
    full pattern neighborhood realized.
    """
    witnesses = _completeness_witnesses(bg, sblock)
    out = []
    for q in ud:
        if not partial_label_isomorphic(bg.host, sblock, labels, q):
            continue
        if all(_neighborhood_matches(bg.host, sblock, labels, q, w) for w in witnesses):
            out.append(q)
    return out


def compute_characteristics(
    bg: BoundariedGraph,
    labels: Mapping[int, int],
    ud: Sequence[Pattern],
) -> list[Characteristic]:
    """All admissible characteristics of a labeled boundaried graph.

    h is forced (labels of outside neighbors of each boundary block inside
    its S-block); g branches over the per-S-block candidate patterns, with
    blocks of one S-block sharing the choice.  Raises NoCharacteristic
    when some S-block admits no pattern.
    """
    bblocks = nontrivial_boundary_blocks(bg)
    if not bblocks:
        return [Characteristic(())]
    sbs = s_blocks(bg)
    owner: dict[frozenset[int], frozenset[int]] = {}
    for b in bblocks:
        owner[b] = next(x for x in sbs if b <= x)

    per_sblock: dict[frozenset[int], list[Pattern]] = {}
    for x in set(owner.values()):
        cands = sblock_pattern_candidates(bg, labels, x, ud)
        if not cands:
            raise NoCharacteristic(
                f"S-block {sorted(x)} matches no pattern in the universe"
            )
        per_sblock[x] = cands

    hmap: dict[BlockKey, frozenset[int]] = {}
    for b in bblocks:
        x = owner[b]
        nbrs = {
            u
            for v in b
            for u in bg.host.neighbors(v)
            if u in x and u not in b and u not in bg.boundary
        }
        hmap[tuple(sorted(b))] = frozenset(labels[u] for u in nbrs)

    xs = sorted(per_sblock, key=lambda x: tuple(sorted(x)))
    out: list[Characteristic] = []
    for combo in product(*(per_sblock[x] for x in xs)):
        chosen = dict(zip(xs, combo))
        mapping = {
            tuple(sorted(b)): (chosen[owner[b]], hmap[tuple(sorted(b))])
            for b in bblocks
        }
        out.append(Characteristic.of(mapping))
    return out


def respects(
    sum_graph: Graph,
    boundary: frozenset[int],
    labels: Mapping[int, int],
    char: Characteristic,
) -> bool:
    """Does every boundary block's S-block in the sum realize g(B) exactly?"""
    bg = BoundariedGraph.whole(sum_graph, boundary)
    sbs = s_blocks(bg)
    for key, q, _ in char.entries:
        bset = frozenset(key)
        x = next((s for s in sbs if bset <= s), None)
        if x is None:
            return False
        if not label_isomorphic(sum_graph, x, labels, q):
            return False
    return True
