"""Pinned DP counts on seeded random instances.

Each case is drawn from its own seed and covers both modes, d from 2 to
5, the families ``k1k2``/``cliques``/``chordal``, and solves with and
without witness recovery.  ``EXPECTED`` holds, per case, the decision,
the ``states`` and ``retained`` counters and the sorted witness (None when
witnesses are off or the answer is NO).  A refactor of the engine must
leave every row as it is.  A change that alters the counts by design
(a different state key, a different reduction) regenerates
the table with ``PYTHONPATH=src python tests/test_state_counts.py`` and
says so in CHANGES.md.
"""

import random

import pytest

from blockvd.instance import Instance

from conftest import SOLVE, random_graph

MODES = ("block", "component")
FAMILIES = ("k1k2", "cliques", "chordal")


def case(idx: int) -> tuple[Instance, bool]:
    """The instance of case idx and whether its witness is recovered."""
    rng = random.Random(1000 + idx)
    mode = MODES[idx % 2]
    d = 2 + idx // 2 % 4
    family = FAMILIES[idx % 3]
    witness = idx // 8 % 2 == 1
    n = rng.randint(5, 9)
    g = random_graph(rng, n, rng.randint(n - 1, n * 3 // 2))
    k = rng.randint(1, 3)
    return Instance(g, d, k, family, mode), witness


def observe(idx: int) -> tuple:
    inst, witness = case(idx)
    res = SOLVE[inst.mode](inst, witness=witness)
    wit = tuple(sorted(res.witness)) if res.witness is not None else None
    return (res.decision, res.stats["states"], res.stats["retained"], wit)


# case -> (decision, states, retained, witness)
EXPECTED = {
    0: (True, 134, 134, None),
    1: (False, 23, 23, None),
    2: (True, 115, 125, None),
    3: (False, 0, 0, None),
    4: (True, 105, 107, None),
    5: (True, 247, 247, None),
    6: (True, 74, 74, None),
    7: (False, 7, 7, None),
    8: (False, 44, 44, None),
    9: (True, 20, 20, (1,)),
    10: (True, 70, 70, ()),
    11: (False, 50, 50, None),
    12: (True, 30, 31, (1,)),
    13: (True, 145, 145, (0, 2)),
    14: (True, 103, 109, (6,)),
    15: (True, 45, 45, (3, 4)),
    16: (True, 66, 68, None),
    17: (True, 100, 100, None),
    18: (True, 91, 91, None),
    19: (True, 52, 52, None),
    20: (True, 31, 31, None),
    21: (False, 57, 57, None),
    22: (True, 66, 66, None),
    23: (True, 176, 176, None),
    24: (True, 29, 29, (3,)),
    25: (True, 78, 78, (1,)),
    26: (True, 63, 63, (4,)),
    27: (True, 47, 47, (0,)),
    28: (True, 52, 53, (6,)),
    29: (True, 314, 314, (4, 7)),
    30: (True, 50, 50, (3,)),
    31: (False, 47, 47, None),
    32: (True, 73, 75, None),
    33: (True, 100, 100, None),
    34: (True, 48, 52, None),
    35: (True, 154, 154, None),
    36: (False, 51, 51, None),
    37: (True, 91, 91, None),
    38: (True, 24, 24, None),
    39: (True, 61, 61, None),
}


@pytest.mark.parametrize("idx", sorted(EXPECTED))
def test_counts_unchanged(idx):
    assert observe(idx) == EXPECTED[idx]


def test_table_covers_the_grid():
    cases = [case(idx) for idx in EXPECTED]
    assert {inst.mode for inst, _ in cases} == set(MODES)
    assert {inst.d for inst, _ in cases} == {2, 3, 4, 5}
    assert {inst.family for inst, _ in cases} == set(FAMILIES)
    assert {w for _, w in cases} == {False, True}
    # witnesses are recovered on some YES answers
    assert any(row[3] is not None for row in EXPECTED.values())


if __name__ == "__main__":
    print("EXPECTED = {")
    for idx in range(40):
        print(f"    {idx}: {observe(idx)!r},")
    print("}")
