import os
import random
import resource
from pathlib import Path

import pytest

import blockvd
from blockvd import clear_caches, dp_block, dp_component  # clear_caches: re-exported
from blockvd.decomposition import TreeDecomposition
from blockvd.families import Pattern
from blockvd.graph import Graph, biconnected_blocks
from blockvd.selfcheck import random_chordal, random_graph

# each mode's engine builder and solver
BUILD = {"block": dp_block.build_engine, "component": dp_component.build_engine}
SOLVE = {"block": dp_block.solve_block, "component": dp_component.solve_component}


# the directory holding the blockvd package under test
SRC = Path(blockvd.__file__).resolve().parents[1]


def child_env(**extra: str) -> dict[str, str]:
    """``os.environ`` plus ``extra`` for a child ``python -m blockvd.cli``,
    with the absolute path of the package under test put first on
    ``PYTHONPATH`` so that the child imports that same ``blockvd`` whatever
    its working directory."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    return env


def capped_address_space() -> None:
    """Cap the calling process's address space at 1 GiB: a ``preexec_fn``
    for a child that may run out of memory, so that it fails fast instead
    of filling the machine's."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.fixture
def rng():
    return random.Random(0)


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def is_block_labeling(g: Graph, labels: dict[int, int]) -> bool:
    """Is the labeling injective on every block of g?"""
    for blk in biconnected_blocks(g):
        seen = set()
        for v in blk:
            l = labels[v]
            if l in seen:
                return False
            seen.add(l)
    return True


def star_of_bags(rng: random.Random) -> tuple[Graph, TreeDecomposition]:
    """A graph and a hand-built decomposition of it: a center bag of one or
    two vertices with three to five leaf bags, each leaf adding up to three
    fresh vertices to one center vertex."""
    c = rng.randint(1, 2)
    edges = [(u, v) for u in range(c) for v in range(u + 1, c)]
    bags = [frozenset(range(c))]
    tedges = []
    nid = c
    for _leg in range(rng.randint(3, 5)):
        size = rng.randint(1, 3)
        fresh = list(range(nid, nid + size))
        nid += size
        legverts = [rng.randrange(c)] + fresh
        for idx, v in enumerate(fresh):
            edges.append((rng.choice(legverts[: idx + 1]), v))
        for _ in range(rng.randint(0, 2)):
            u, v = rng.sample(legverts, 2)
            if u != v:
                edges.append((min(u, v), max(u, v)))
        bags.append(frozenset(legverts))
        tedges.append((0, len(bags) - 1))
    return Graph(nid, set(edges)), TreeDecomposition(tuple(bags), tuple(tedges))


def members(mask: int) -> set[int]:
    """The pattern indices whose bits are set in a slot mask."""
    return {q for q in range(mask.bit_length()) if mask >> q & 1}


def clique_patterns(d: int, min_labels: int) -> tuple[Pattern, ...]:
    """The cliques family's patterns on label subsets of [d], in engine order.

    Built directly, because enumerating a universe at d = 6 takes a second
    or more whatever the family.
    """
    out = []
    for mask in range(1, 1 << d):
        labels = [l for l in range(1, d + 1) if mask >> (l - 1) & 1]
        if len(labels) >= min_labels:
            edges = frozenset((a, b) for a in labels for b in labels if a < b)
            out.append(Pattern(frozenset(labels), edges))
    return tuple(sorted(out, key=Pattern.sort_key))
