"""Block families, labeled patterns, and the pattern universes.

A pattern identifies vertices with their labels, so label-isomorphism
questions reduce to set comparisons; the label-isomorphism tests of the
characteristics are spec-level code in ``characteristics``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Iterable, Sequence

from .errors import CapExceeded, InvalidInput, NonChordalFamily
from .graph import _component, chordal_masks

# the largest d whose pattern universe is built
UD_CAP = 6


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

    def __repr__(self) -> str:
        ls = ",".join(map(str, sorted(self.labels)))
        es = " ".join(f"{a}-{b}" for a, b in sorted(self.edges))
        return f"<{ls}: {es}>" if es else f"<{ls}>"


def _biconnected(adj: Sequence[int]) -> bool:
    """At least two vertices, connected, and no cut vertex."""
    n = len(adj)
    if n == 2:
        return adj[0] == 2
    # past two vertices, a vertex of degree 0 or 1 leaves or cuts the rest;
    # with none, every component has 3+ vertices, so if each G - v is
    # connected then so is G
    for a in adj:
        if a.bit_count() < 2:
            return False
    full = (1 << n) - 1
    for v in range(n):
        rest = full ^ 1 << v
        if _component(adj, rest) != rest:
            return False
    return True


def _cycle_or_tiny(adj: Sequence[int]) -> bool:
    return len(adj) <= 2 or all(a.bit_count() == 2 for a in adj)


def _complete(adj: Sequence[int]) -> bool:
    full = (1 << len(adj)) - 1
    return all(a | 1 << v == full for v, a in enumerate(adj))


# name: (membership predicate, max_order, complete_only).  The predicate
# reads adjacency masks: vertex i of a graph on n vertices has neighbor
# set adj[i], a mask over bits 0..n-1.
_FAMILY_DATA: dict[str, tuple[Callable[[Sequence[int]], bool], int | None, bool]] = {
    "k1k2": (lambda adj: len(adj) <= 2, 2, False),
    "cliques": (_complete, None, True),
    "chordal": (chordal_masks, None, False),
    "cycles": (_cycle_or_tiny, None, False),
    "all": (lambda adj: True, None, False),
}


@dataclass(frozen=True)
class PFamilySpec:
    """A named block family with its membership predicate.

    The predicate is evaluated on connected (for components) or
    biconnected (for blocks) pieces with at most d vertices, handed over
    as adjacency masks.  The two short-cuts, fixed by the name, only tell
    the enumerator which candidates the predicate rejects anyway: no
    member has more than max_order vertices, or every member is complete.
    max_order also sizes the dynamic program's label alphabet (``labels``).
    """

    name: str
    max_order: int | None = field(init=False)
    complete_only: bool = field(init=False)

    def __post_init__(self) -> None:
        try:
            _, max_order, complete_only = _FAMILY_DATA[self.name]
        except KeyError:
            raise InvalidInput(
                f"unknown family {self.name!r}; choose from {sorted(_FAMILY_DATA)}"
            ) from None
        object.__setattr__(self, "max_order", max_order)
        object.__setattr__(self, "complete_only", complete_only)

    def contains(self, adj: Sequence[int]) -> bool:
        """Is the graph with adjacency masks adj a member?"""
        return _FAMILY_DATA[self.name][0](adj)

    def labels(self, d: int) -> int:
        """The number of labels the dynamic program needs at bound d.

        A label only has to be distinct inside one final block (or
        component), and each has at most p = min(d, max_order) vertices.
        Colouring the blocks along the block-cut tree, each new block
        shares at most one vertex, a cut vertex, with those already
        coloured, so p labels suffice.
        """
        return d if self.max_order is None else min(d, self.max_order)


FAMILIES: dict[str, PFamilySpec] = {name: PFamilySpec(name) for name in _FAMILY_DATA}


def get_family(name: str) -> PFamilySpec:
    try:
        return FAMILIES[name]
    except KeyError:
        raise InvalidInput(
            f"unknown family {name!r}; choose from {sorted(FAMILIES)}"
        ) from None


@cache
def _enumerate_patterns(
    d: int, family: PFamilySpec, biconnected: bool
) -> tuple[Pattern, ...]:
    """Family members on label subsets of [d]: biconnected ones with at
    least two labels, or connected ones with at least one.

    Raises NonChordalFamily as soon as an accepted member is not chordal:
    the dynamic program is unsound for such families.  Built once per
    process for each argument triple; a call that raises caches nothing,
    so it raises again on every call.
    """
    if d < 1:
        raise InvalidInput(f"d={d} must be at least 1")
    if d > UD_CAP:
        raise CapExceeded(f"d={d} exceeds the pattern-universe cap of {UD_CAP}")
    min_labels = 2 if biconnected else 1
    max_labels = family.labels(d)
    # a family whose predicate is the chordality test needs no second one
    checked = _FAMILY_DATA[family.name][0] is chordal_masks
    out: list[Pattern] = []
    for lmask in range(1 << d):
        labels = [i + 1 for i in range(d) if lmask >> i & 1]
        s = len(labels)
        if not min_labels <= s <= max_labels:
            continue
        # candidate edge j joins local vertices ends[j], labels pairs[j];
        # edge sets count up through the pairs in lexicographic order
        ends = [(i, j) for i in range(s) for j in range(i + 1, s)]
        pairs = [(labels[i], labels[j]) for i, j in ends]
        npairs = len(ends)
        full = (1 << s) - 1
        first = (1 << npairs) - 1 if family.complete_only else 0
        for emask in range(first, 1 << npairs):
            adj = [0] * s
            rest = emask
            while rest:
                low = rest & -rest
                a, b = ends[low.bit_length() - 1]
                adj[a] |= 1 << b
                adj[b] |= 1 << a
                rest ^= low
            if not (_biconnected(adj) if biconnected else _component(adj, full) == full):
                continue
            if not family.contains(adj):
                continue
            p = Pattern(
                frozenset(labels),
                frozenset(pairs[j] for j in range(npairs) if emask >> j & 1),
            )
            if not checked and not chordal_masks(adj):
                raise NonChordalFamily(
                    f"family {family.name!r} admits the non-chordal pattern {p}"
                )
            out.append(p)
    out.sort(key=Pattern.sort_key)
    return tuple(out)


def enumerate_ud(d: int, family: PFamilySpec) -> tuple[Pattern, ...]:
    """All biconnected family members on label subsets of [d], >= 2 labels."""
    return _enumerate_patterns(d, family, biconnected=True)


def enumerate_component_patterns(d: int, family: PFamilySpec) -> tuple[Pattern, ...]:
    """Connected family members on label subsets of [d] (>= 1 label)."""
    return _enumerate_patterns(d, family, biconnected=False)
