"""Partitions of an indexed ground set, coarsenings, and incidence acyclicity.

Everything here is index-only: the ground set is {0..m-1} and callers
maintain the mapping from indices to actual objects (boundary components).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import InvalidInput


class Partition:
    """Canonical partition: parts sorted by minimum element, each sorted."""

    __slots__ = ("m", "parts", "_hash")

    def __init__(self, m: int, parts: tuple[tuple[int, ...], ...]):
        # Trusted constructor; use from_parts for validation.
        self.m = m
        self.parts = parts
        self._hash = hash((m, parts))

    @classmethod
    def from_parts(cls, m: int, parts: Iterable[Iterable[int]]) -> "Partition":
        norm = sorted(tuple(sorted(p)) for p in parts if tuple(p))
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
        return cls(m, tuple(norm))

    @classmethod
    def singletons(cls, m: int) -> "Partition":
        return cls(m, tuple((i,) for i in range(m)))

    @property
    def num_parts(self) -> int:
        return len(self.parts)

    def part_masks(self) -> tuple[int, ...]:
        return tuple(sum(1 << x for x in p) for p in self.parts)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Partition)
            and self.m == other.m
            and self.parts == other.parts
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join("{" + ",".join(map(str, p)) + "}" for p in self.parts)
        return "{" + inner + "}"


def uplus(x: Partition, y: Partition) -> Partition:
    """Finest common coarsening (union-find closure of both part relations)."""
    if x.m != y.m:
        raise InvalidInput("ground sets differ")
    parent = list(range(x.m))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for p in x.parts + y.parts:
        for other in p[1:]:
            union(p[0], other)
    groups: dict[int, list[int]] = {}
    for e in range(x.m):
        groups.setdefault(find(e), []).append(e)
    return Partition.from_parts(x.m, groups.values())


def one_coarsenings(x: Partition) -> list[Partition]:
    """All partitions got by merging one sub-collection of parts.

    Merging the empty or a singleton collection is the identity, so x
    itself is included (count 2^p - p for p parts).
    """
    p = x.num_parts
    out = [x]
    for mask in range(3, 1 << p):
        if mask & (mask - 1) == 0:  # singleton collection
            continue
        merged: list[int] = []
        rest: list[tuple[int, ...]] = []
        for i in range(p):
            if mask >> i & 1:
                merged.extend(x.parts[i])
            else:
                rest.append(x.parts[i])
        if not merged:
            continue
        out.append(Partition.from_parts(x.m, rest + [merged]))
    return out


def inc_is_forest(m: int, partitions: Sequence[Partition]) -> bool:
    """Is the element-vs-part incidence graph of all listed partitions acyclic?

    Parts are counted with multiplicity (two identical parts from two
    partitions already form a 4-cycle).
    """
    size = m + sum(p.num_parts for p in partitions)
    parent = list(range(size))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    node = m
    for part in partitions:
        if part.m != m:
            raise InvalidInput("ground sets differ")
        for p in part.parts:
            for e in p:
                re, rn = find(e), find(node)
                if re == rn:
                    return False
                parent[rn] = re
            node += 1
    return True


def all_partitions(m: int) -> Iterator[Partition]:
    """Every partition of {0..m-1}, in restricted-growth-string order."""
    if m == 0:
        yield Partition(0, ())
        return
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

    yield from rec(1, 0)


def bell_number(m: int) -> int:
    row = [1]
    for _ in range(m):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]
