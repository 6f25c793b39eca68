"""Block families, labeled patterns, and the pattern universes.

A pattern identifies vertices with their labels, so label-isomorphism
questions reduce to set comparisons.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .errors import CapExceeded, InvalidInput, NonChordalFamily
from .graph import (
    Graph,
    biconnected_blocks,
    connected_components,
    induced_edges,
    is_chordal,
)

DEFAULT_UD_CAP = 6


@dataclass(frozen=True)
class Pattern:
    """A labeled graph whose vertices are distinct labels from [d]."""

    labels: frozenset[int]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for a, b in self.edges:
            if a >= b or a not in self.labels or b not in self.labels:
                raise InvalidInput(f"bad pattern edge ({a},{b})")

    def has_edge(self, a: int, b: int) -> bool:
        if a == b:
            return False
        if a > b:
            a, b = b, a
        return (a, b) in self.edges

    def neighbors(self, a: int) -> frozenset[int]:
        out = set()
        for x, y in self.edges:
            if x == a:
                out.add(y)
            elif y == a:
                out.add(x)
        return frozenset(out)

    def induced(self, labels: Iterable[int]) -> frozenset[tuple[int, int]]:
        ls = set(labels)
        return frozenset((a, b) for (a, b) in self.edges if a in ls and b in ls)

    def sort_key(self) -> tuple:
        return (tuple(sorted(self.labels)), tuple(sorted(self.edges)))

    def relabel(self, sigma: Mapping[int, int]) -> "Pattern":
        return Pattern(
            frozenset(sigma[x] for x in self.labels),
            frozenset(
                (min(sigma[a], sigma[b]), max(sigma[a], sigma[b]))
                for (a, b) in self.edges
            ),
        )

    def __repr__(self) -> str:
        ls = ",".join(map(str, sorted(self.labels)))
        es = " ".join(f"{a}-{b}" for a, b in sorted(self.edges))
        return f"<{ls}: {es}>" if es else f"<{ls}>"


def _pattern_graph(p: Pattern) -> tuple[Graph, dict[int, int]]:
    order = sorted(p.labels)
    idx = {l: i for i, l in enumerate(order)}
    g = Graph(len(order), [(idx[a], idx[b]) for (a, b) in p.edges])
    return g, idx


def pattern_is_connected(p: Pattern) -> bool:
    g, _ = _pattern_graph(p)
    return len(connected_components(g)) <= 1


def pattern_is_biconnected(p: Pattern) -> bool:
    if len(p.labels) < 2:
        return False
    g, _ = _pattern_graph(p)
    if len(connected_components(g)) != 1:
        return False
    return len(biconnected_blocks(g).blocks) == 1


def pattern_is_chordal(p: Pattern) -> bool:
    g, _ = _pattern_graph(p)
    return is_chordal(g)


@dataclass(frozen=True)
class PFamilySpec:
    """A named block family with its membership predicate.

    The predicate is evaluated on connected (for components) or
    biconnected (for blocks) induced subgraphs handed over as a vertex
    set plus edge set; it must be cheap on inputs with at most d vertices.
    """

    name: str

    def contains(self, vertices: frozenset[int], edges: frozenset[tuple[int, int]]) -> bool:
        n = len(vertices)
        if self.name == "k1k2":
            return n <= 2
        if self.name == "cliques":
            return len(edges) == n * (n - 1) // 2
        if self.name == "chordal":
            order = sorted(vertices)
            idx = {v: i for i, v in enumerate(order)}
            return is_chordal(Graph(n, [(idx[a], idx[b]) for a, b in edges]))
        if self.name == "cycles":
            if n <= 2:
                return True
            deg: dict[int, int] = {v: 0 for v in vertices}
            for a, b in edges:
                deg[a] += 1
                deg[b] += 1
            return all(d == 2 for d in deg.values()) and len(edges) == n
        if self.name == "all":
            return True
        raise InvalidInput(f"unknown family {self.name!r}")

    def contains_pattern(self, p: Pattern) -> bool:
        return self.contains(p.labels, p.edges)


FAMILIES: dict[str, PFamilySpec] = {
    "k1k2": PFamilySpec("k1k2"),
    "cliques": PFamilySpec("cliques"),
    "chordal": PFamilySpec("chordal"),
    "cycles": PFamilySpec("cycles"),
    "all": PFamilySpec("all"),
}


def get_family(name: str) -> PFamilySpec:
    try:
        return FAMILIES[name]
    except KeyError:
        raise InvalidInput(
            f"unknown family {name!r}; choose from {sorted(FAMILIES)}"
        ) from None


def _ud_cap() -> int:
    env = os.environ.get("BLOCKVD_UD_CAP")
    if not env:
        return DEFAULT_UD_CAP
    try:
        return int(env)
    except ValueError:
        raise InvalidInput(f"BLOCKVD_UD_CAP={env!r} is not an integer") from None


def _label_subsets(d: int, min_size: int):
    for mask in range(1 << d):
        labels = [i + 1 for i in range(d) if mask >> i & 1]
        if len(labels) >= min_size:
            yield labels


def _enumerate_patterns(
    d: int,
    family: PFamilySpec,
    min_labels: int,
    shape: Callable[[Pattern], bool],
) -> tuple[Pattern, ...]:
    """Family members of the given shape on label subsets of [d].

    Raises NonChordalFamily as soon as an accepted member is not chordal:
    the dynamic program is unsound for such families.
    """
    if d < 1:
        raise InvalidInput(f"d={d} must be at least 1")
    if d > _ud_cap():
        raise CapExceeded(
            f"d={d} exceeds the pattern-universe cap; raise BLOCKVD_UD_CAP to override"
        )
    out: list[Pattern] = []
    for labels in _label_subsets(d, min_labels):
        pairs = [
            (labels[i], labels[j])
            for i in range(len(labels))
            for j in range(i + 1, len(labels))
        ]
        for emask in range(1 << len(pairs)):
            edges = frozenset(pairs[i] for i in range(len(pairs)) if emask >> i & 1)
            p = Pattern(frozenset(labels), edges)
            if not shape(p):
                continue
            if not family.contains_pattern(p):
                continue
            if not pattern_is_chordal(p):
                raise NonChordalFamily(
                    f"family {family.name!r} admits the non-chordal pattern {p}"
                )
            out.append(p)
    out.sort(key=Pattern.sort_key)
    return tuple(out)


def enumerate_ud(d: int, family: PFamilySpec) -> tuple[Pattern, ...]:
    """All biconnected family members on label subsets of [d], >= 2 labels."""
    return _enumerate_patterns(d, family, 2, pattern_is_biconnected)


def enumerate_component_patterns(d: int, family: PFamilySpec) -> tuple[Pattern, ...]:
    """Connected family members on label subsets of [d] (>= 1 label)."""
    return _enumerate_patterns(d, family, 1, pattern_is_connected)


def is_block_labeling(g: Graph, labels: Mapping[int, int]) -> bool:
    """Is the labeling injective on every block of g?"""
    for blk in biconnected_blocks(g).blocks:
        seen = set()
        for v in blk:
            l = labels[v]
            if l in seen:
                return False
            seen.add(l)
    return True


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
    vs = sorted(vertices)
    lset = set()
    for v in vs:
        l = labels[v]
        if l in lset:
            return False
        lset.add(l)
    if not lset <= q.labels:
        return False
    mapped = frozenset(
        (min(labels[u], labels[v]), max(labels[u], labels[v]))
        for (u, v) in induced_edges(g, vs)
    )
    return mapped == q.induced(lset)


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
