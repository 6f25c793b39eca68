"""Pinned DP counts on seeded random instances.

Each case is drawn from its own seed and covers both modes, d from 2 to
5, the families ``k1k2``/``cliques``/``chordal``, and solves with and
without witness recovery.  ``EXPECTED`` holds, per case, the decision,
the ``states`` and ``retained`` counters and the sorted witness (None when
witnesses are off or the answer is NO).  A refactor of the engine must
leave every row as it is.  A change that alters the counts by design
(taking the budget off the state key, a different reduction) regenerates
the table with ``PYTHONPATH=src python tests/test_state_counts.py`` and
says so in CHANGES.md.
"""

import random

import pytest

from blockvd.dp_block import solve_block
from blockvd.dp_component import solve_component
from blockvd.instance import Instance

from conftest import random_graph

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
    solve = solve_block if inst.mode == "block" else solve_component
    res = solve(inst, witness=witness)
    wit = tuple(sorted(res.witness)) if res.witness is not None else None
    return (res.decision, res.stats["states"], res.stats["retained"], wit)


# case -> (decision, states, retained, witness)
EXPECTED = {
    0: (True, 260, 260, None),
    1: (False, 66, 66, None),
    2: (True, 295, 303, None),
    3: (False, 75, 75, None),
    4: (True, 214, 218, None),
    5: (True, 497, 497, None),
    6: (True, 179, 179, None),
    7: (False, 44, 44, None),
    8: (False, 116, 116, None),
    9: (True, 61, 61, (1,)),
    10: (True, 191, 191, ()),
    11: (False, 194, 194, None),
    12: (True, 76, 76, (6,)),
    13: (True, 203, 203, (0, 2)),
    14: (True, 210, 210, (6,)),
    15: (True, 75, 75, (3, 4)),
    16: (True, 144, 144, None),
    17: (True, 215, 215, None),
    18: (True, 205, 205, None),
    19: (True, 81, 81, None),
    20: (True, 66, 66, None),
    21: (False, 241, 241, None),
    22: (True, 126, 126, None),
    23: (True, 339, 339, None),
    24: (True, 73, 73, (3,)),
    25: (True, 159, 159, (1,)),
    26: (True, 118, 118, (4,)),
    27: (True, 77, 77, (0,)),
    28: (True, 179, 187, (6,)),
    29: (True, 640, 640, (5, 8)),
    30: (True, 91, 91, (3,)),
    31: (False, 188, 188, None),
    32: (True, 207, 215, None),
    33: (True, 195, 195, None),
    34: (True, 89, 89, None),
    35: (True, 248, 248, None),
    36: (False, 208, 208, None),
    37: (True, 117, 117, None),
    38: (True, 49, 49, None),
    39: (True, 104, 104, None),
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
