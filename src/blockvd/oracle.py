"""Brute-force ground truth: solution verification and exact minimization."""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Iterable

from .errors import InvalidInput, TooLarge
from .families import PFamilySpec, get_family
from .graph import Graph, biconnected_blocks, connected_components, induced_masks
from .instance import Instance


def verify_solution(
    g: Graph,
    deleted: Iterable[int],
    d: int,
    family: PFamilySpec | str,
    mode: str,
) -> bool:
    """Does deleting the set leave only small family members?

    Block mode checks every block of the remainder, component mode every
    connected component; both must have at most d vertices and satisfy
    the family predicate.  Raises InvalidInput for any other mode and for
    a deleted vertex outside 0..n-1.
    """
    fam = get_family(family) if isinstance(family, str) else family
    gone = set(deleted)
    outside = sorted(v for v in gone if not 0 <= v < g.n)
    if outside:
        raise InvalidInput(f"deleted vertices {outside} are outside 0..{g.n - 1}")
    remaining = [v for v in range(g.n) if v not in gone]
    if mode == "block":
        pieces: Iterable[frozenset[int]] = biconnected_blocks(g, remaining)
    elif mode == "component":
        pieces = connected_components(g, remaining)
    else:
        raise InvalidInput(f"bad mode {mode!r}")
    for piece in pieces:
        if len(piece) > d:
            return False
        if not fam.contains(induced_masks(g, tuple(piece))):
            return False
    return True


_SUBSET_BUDGET = 5_000_000


def brute_force_solve(inst: Instance) -> int | None:
    """Exact minimum deletion size up to k, or None when every set fails.

    Enumerates subsets by increasing cardinality; guarded so it cannot be
    pointed at an instance it would chew on forever.
    """
    g = inst.graph
    # no set has more than n vertices, however large k is
    top = min(inst.k, g.n)
    total = sum(comb(g.n, j) for j in range(top + 1))
    if g.n > 24 and total > _SUBSET_BUDGET:
        raise TooLarge(
            f"n={g.n}, k={inst.k}: {total} subsets exceed the oracle budget"
        )
    fam = get_family(inst.family)
    verts = list(range(g.n))
    for size in range(top + 1):
        for subset in combinations(verts, size):
            if verify_solution(g, subset, inst.d, fam, inst.mode):
                return size
    return None
