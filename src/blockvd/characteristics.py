"""Characteristics of labeled boundaried graphs.

A characteristic assigns to every non-trivial boundary block B a
hypothesis g(B) for the final shape of the block that will contain B,
plus the set h(B) of labels of outside neighbors already attached to
that block.  This module computes admissible characteristics; the
dynamic programs apply the introduce, forget and join relations between
them in table-driven form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Mapping, Sequence

from .errors import DomainMismatch, NoCharacteristic
from .families import Pattern, label_isomorphic, partial_label_isomorphic
from .graph import (
    BoundariedGraph,
    Graph,
    induced_edges,
    nontrivial_boundary_blocks,
    s_blocks,
)

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

    def g(self, key: BlockKey) -> Pattern:
        for k, p, _ in self.entries:
            if k == key:
                return p
        raise DomainMismatch(f"block {key} not in characteristic domain")

    def h(self, key: BlockKey) -> frozenset[int]:
        for k, _, hh in self.entries:
            if k == key:
                return hh
        raise DomainMismatch(f"block {key} not in characteristic domain")


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
    q_closed = {z} | set(q.neighbors(z))
    if {labels[u] for u in closed} != q_closed:
        return False
    # edge sets must match under the label map
    mapped = {
        (min(labels[a], labels[b]), max(labels[a], labels[b]))
        for (a, b) in induced_edges(g, closed)
    }
    return mapped == set(q.induced(q_closed))


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
