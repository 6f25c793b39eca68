"""Partitions of an indexed ground set, coarsenings, and incidence acyclicity.

Everything here is index-only: the ground set is {0..m-1} and callers
maintain the mapping from indices to actual objects (boundary components).
A partition is the tuple of its canonical parts, so equality and hashing
are those of the tuple.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import InvalidInput


class Partition(tuple[tuple[int, ...], ...]):
    """Canonical partition: the tuple of its parts, each sorted, ordered by
    least element.

    ``Partition(parts)`` trusts parts already in this form; ``from_parts``
    validates and normalizes.  The partition of the empty ground set is
    the empty tuple, so it is falsy: test memo entries by identity.
    """

    __slots__ = ()

    @classmethod
    def from_parts(cls, m: int, parts: Iterable[Iterable[int]]) -> "Partition":
        norm = sorted(filter(None, map(tuple, map(sorted, parts))))
        seen: set[int] = set()
        for p in norm:
            for x in p:
                if not (0 <= x < m):
                    raise InvalidInput(f"element {x} outside ground set 0..{m - 1}")
                if x in seen:
                    raise InvalidInput(f"element {x} in two parts")
                seen.add(x)
        if len(seen) != m:
            raise InvalidInput("parts do not cover the ground set")
        return cls(norm)

    @property
    def m(self) -> int:
        """Size of the ground set: the parts cover exactly 0..m-1."""
        return sum(map(len, self))

    def part_masks(self) -> tuple[int, ...]:
        return tuple(sum(1 << x for x in p) for p in self)

    def __repr__(self) -> str:
        inner = ", ".join("{" + ",".join(map(str, p)) + "}" for p in self)
        return "{" + inner + "}"


def _find(parent: list[int], a: int) -> int:
    """Root of a in the union-find forest ``parent``, halving its path."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def uplus(x: Partition, y: Partition) -> Partition:
    """Finest common coarsening (union-find closure of both part relations)."""
    m = x.m
    if m != y.m:
        raise InvalidInput("ground sets differ")
    parent = list(range(m))
    for p in x + y:
        for other in p[1:]:
            ra, rb = _find(parent, p[0]), _find(parent, other)
            if ra != rb:
                parent[rb] = ra
    groups: dict[int, list[int]] = {}
    for e in range(m):
        groups.setdefault(_find(parent, e), []).append(e)
    return Partition.from_parts(m, groups.values())


def one_coarsenings(x: Partition) -> list[Partition]:
    """All partitions got by merging one sub-collection of parts.

    Merging the empty or a singleton collection is the identity, so x
    itself is included (count 2^p - p for p parts).
    """
    p = len(x)
    out = [x]
    for mask in range(3, 1 << p):
        if mask & (mask - 1) == 0:  # singleton collection
            continue
        merged: list[int] = []
        rest: list[tuple[int, ...]] = []
        for i in range(p):
            if mask >> i & 1:
                merged.extend(x[i])
            else:
                rest.append(x[i])
        out.append(Partition.from_parts(x.m, rest + [merged]))
    return out


def inc_is_forest(m: int, partitions: Sequence[Partition]) -> bool:
    """Is the element-vs-part incidence graph of all listed partitions acyclic?

    Parts are counted with multiplicity (two identical parts from two
    partitions already form a 4-cycle).
    """
    parent = list(range(m + sum(map(len, partitions))))
    node = m
    for part in partitions:
        if part.m != m:
            raise InvalidInput("ground sets differ")
        for p in part:
            for e in p:
                re, rn = _find(parent, e), _find(parent, node)
                if re == rn:
                    return False
                parent[rn] = re
            node += 1
    return True

