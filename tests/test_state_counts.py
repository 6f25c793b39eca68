"""Pinned DP counts on seeded random instances.

Each case is drawn from its own seed and covers both modes, d from 2 to
5, the families ``k1k2``/``cliques``/``chordal``, and solves with and
without witness recovery.  ``EXPECTED`` holds, per case, the decision,
the ``states`` and ``retained`` counters, the sorted witness (None when
witnesses are off or the answer is NO) and the digest of every table the
engine walks (``digest``), so that a change which keeps the totals but
moves a state or a partition between nodes still shows.  A refactor of
the engine must leave every row as it is.  A change that alters the counts by design
(a different state key, a different reduction) regenerates
the table with ``PYTHONPATH=src python tests/test_state_counts.py`` and
says so in CHANGES.md.
"""

import hashlib
import random
import subprocess
import sys
from pathlib import Path

import pytest

from blockvd.instance import Instance

from conftest import BUILD, SOLVE, child_env, random_graph

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


def digest(inst: Instance) -> str:
    """The first 16 hex digits of a SHA-256 over every (node, table) that
    the engine's walk yields.  Each table is written sorted, by key and
    then by partition, each partition with its sorted deletion set, so the
    digest depends neither on insertion order nor on the hash seed."""
    h = hashlib.sha256()
    for node, table in BUILD[inst.mode](inst).walk():
        rows = sorted(
            (key, sorted((p, sorted(w)) for p, w in fam.items()))
            for key, fam in table.items()
        )
        h.update(repr((node, rows)).encode())
    return h.hexdigest()[:16]


def observe(idx: int) -> tuple:
    inst, witness = case(idx)
    res = SOLVE[inst.mode](inst, witness=witness)
    wit = tuple(sorted(res.witness)) if res.witness is not None else None
    return (res.decision, res.stats["states"], res.stats["retained"], wit, digest(inst))


# case -> (decision, states, retained, witness, digest)
EXPECTED = {
    0: (True, 134, 134, None, 'a526bcf3e2b34174'),
    1: (False, 23, 23, None, 'a7a04fc23ec61e5b'),
    2: (True, 115, 125, None, 'cf8f95a86d14617e'),
    3: (False, 0, 0, None, '71c1b8e13b89e86c'),
    4: (True, 105, 107, None, '6596f9b9ef4d10a5'),
    5: (True, 247, 247, None, '36620f4ddfa7d47f'),
    6: (True, 74, 74, None, '30857fb1c24f1c52'),
    7: (False, 7, 7, None, '265e17998df879c8'),
    8: (False, 44, 44, None, '3f05cda176bb49ed'),
    9: (True, 20, 20, (1,), '469467fba8258a16'),
    10: (True, 70, 70, (), '325633e50d093254'),
    11: (False, 50, 50, None, 'b09316c27921e4a3'),
    12: (True, 30, 31, (1,), 'd501a7e6741dacb7'),
    13: (True, 145, 145, (0, 2), '1e7c788f2b7f6cea'),
    14: (True, 103, 109, (6,), 'b7ddfeaf3af5e6f7'),
    15: (True, 45, 45, (3, 4), 'c8d8aed83829b395'),
    16: (True, 66, 68, None, 'd6722181362e3bbc'),
    17: (True, 100, 100, None, 'd95e652dc87db0cc'),
    18: (True, 91, 91, None, 'ccd1c0316e1e465c'),
    19: (True, 52, 52, None, '7aa6a3737590d066'),
    20: (True, 31, 31, None, '65c6a85960cc1b03'),
    21: (False, 57, 57, None, '63692e23ad6b0073'),
    22: (True, 66, 66, None, 'ed8327f598551e2c'),
    23: (True, 176, 176, None, 'e21d63cbc94dc760'),
    24: (True, 29, 29, (3,), '55b0d3cff6204ffc'),
    25: (True, 78, 78, (1,), '8c0a99facc54a456'),
    26: (True, 63, 63, (4,), '4f0c52211f6fbba6'),
    27: (True, 47, 47, (0,), 'afac65d12cfe6033'),
    28: (True, 52, 53, (6,), 'df414caf4eead77b'),
    29: (True, 314, 314, (4, 7), '639c7eec3c39889d'),
    30: (True, 50, 50, (3,), '23c3aa5a0828efb3'),
    31: (False, 47, 47, None, 'd38fa0d43b2c87af'),
    32: (True, 73, 75, None, 'cf4a0eb14333e6ad'),
    33: (True, 100, 100, None, 'a844dcbb0ee57127'),
    34: (True, 48, 52, None, '738c5519d9a19d6e'),
    35: (True, 154, 154, None, 'eb96e7baba24383a'),
    36: (False, 51, 51, None, '48def299c9f98615'),
    37: (True, 91, 91, None, 'dbdc40fcb5f0b96e'),
    38: (True, 24, 24, None, 'b68534c9bcc20fe0'),
    39: (True, 61, 61, None, 'c513cc97942dbd8f'),
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


def test_digests_ignore_the_hash_seed():
    # one case of each mode, walked in a child with another hash seed
    cases = (2, 13)
    code = (
        f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from test_state_counts import case, digest\n"
        f"print([digest(case(idx)[0]) for idx in {cases!r}])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        env=child_env(PYTHONHASHSEED="12345"),
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == repr([EXPECTED[idx][4] for idx in cases])


if __name__ == "__main__":
    print("EXPECTED = {")
    for idx in range(40):
        print(f"    {idx}: {observe(idx)!r},")
    print("}")
