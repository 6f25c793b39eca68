import os
import random
from pathlib import Path

import pytest

import blockvd
from blockvd.families import Pattern
from blockvd.graph import Graph
from blockvd.selfcheck import random_chordal, random_graph

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


@pytest.fixture
def rng():
    return random.Random(0)


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


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
