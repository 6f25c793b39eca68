import os
import random
from pathlib import Path

import pytest

import blockvd
from blockvd.graph import Graph

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


def random_graph(rng: random.Random, n: int, m: int) -> Graph:
    edges = set()
    m = min(m, n * (n - 1) // 2)
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return Graph(n, edges)


def random_chordal(rng: random.Random, n: int, extra: int = 2) -> Graph:
    """Clique-attachment growth: every prefix stays chordal."""
    edges: set[tuple[int, int]] = set()
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for v in range(1, n):
        anchor = rng.randrange(v)
        clique = {anchor}
        nbrs = list(adj[anchor] & set(range(v)))
        rng.shuffle(nbrs)
        for w in nbrs[: rng.randint(0, extra)]:
            # only extend while the attachment set stays a clique
            if all(x in adj[w] for x in clique):
                clique.add(w)
        for w in clique:
            edges.add((min(v, w), max(v, w)))
            adj[v].add(w)
            adj[w].add(v)
    return Graph(n, edges)


@pytest.fixture
def rng():
    return random.Random(0)


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])
