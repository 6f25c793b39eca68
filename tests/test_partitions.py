import random

import pytest

from blockvd.characteristics import all_partitions
from blockvd.dp_block import build_engine
from blockvd.errors import InvalidInput
from blockvd.graph import Graph
from blockvd.instance import Instance
from blockvd.partitions import Partition, inc_is_forest, one_coarsenings, uplus

from conftest import singletons


def bell_number(m: int) -> int:
    """The number of partitions of an m-element set, by the Bell triangle."""
    row = [1]
    for _ in range(m):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def P(m, *parts):
    return Partition.from_parts(m, parts)


class TestPartition:
    def test_canonical_form_unique(self):
        a = Partition.from_parts(4, [[2, 3], [1], [0]])
        b = Partition.from_parts(4, [[0], [3, 2], [1]])
        assert a == b and a == ((0,), (1,), (2, 3))

    def test_parts_may_be_any_iterables(self):
        # each part is read once, so one-shot iterators work; empty parts drop
        parts = ([1, 0], [], [2])
        assert Partition.from_parts(3, (iter(q) for q in parts)) == ((0, 1), (2,))

    def test_equals_and_hashes_like_its_tuple_of_parts(self):
        a = P(4, [3, 2], [1], [0])
        parts = ((0,), (1,), (2, 3))
        assert a == parts and parts == a
        assert hash(a) == hash(parts)
        assert {parts: "x"}[a] == "x"
        assert list(a) == list(parts) and len(a) == 3

    def test_m_is_the_total_part_size(self):
        assert P(4, [3, 2], [1], [0]).m == 4
        assert singletons(3).m == 3
        for m in range(6):
            assert all(p.m == m for p in all_partitions(m))
        (empty,) = all_partitions(0)
        assert empty == () and empty.m == 0 and not empty

    def test_validation(self):
        with pytest.raises(InvalidInput):
            Partition.from_parts(3, [[0, 1]])
        with pytest.raises(InvalidInput):
            Partition.from_parts(3, [[0, 1], [1, 2]])
        with pytest.raises(InvalidInput):
            Partition.from_parts(2, [[0, 5]])


class TestUplus:
    def test_worked_example(self):
        # {{1},{2,3},{4}} joined with {{1,2},{3},{4}} gives {{1,2,3},{4}}
        # (shifted to 0-based ground set)
        x = P(4, [0], [1, 2], [3])
        y = P(4, [0, 1], [2], [3])
        assert uplus(x, y) == P(4, [0, 1, 2], [3])

    def test_idempotent(self):
        x = P(5, [0, 3], [1], [2, 4])
        assert uplus(x, x) == x

    def test_singletons_identity(self):
        y = P(4, [0, 2], [1, 3])
        assert uplus(singletons(4), y) == y

    def test_commutative_associative(self):
        rng = random.Random(0)
        univ = list(all_partitions(4))
        for _ in range(50):
            x, y, z = rng.choice(univ), rng.choice(univ), rng.choice(univ)
            assert uplus(x, y) == uplus(y, x)
            assert uplus(uplus(x, y), z) == uplus(x, uplus(y, z))


class TestCoarsenings:
    def test_two_singletons(self):
        x = P(2, [0], [1])
        assert set(one_coarsenings(x)) == {x, P(2, [0, 1])}

    def test_single_part(self):
        x = P(2, [0, 1])
        assert one_coarsenings(x) == [x]

    def test_counting(self):
        # distinct, so a caller needs no dedupe of its own
        for m in range(7):
            for x in all_partitions(m):
                cs = one_coarsenings(x)
                p = len(x)
                assert len(set(cs)) == len(cs) == 2**p - p

    def test_all_are_coarsenings(self):
        x = P(5, [0, 1], [2], [3, 4])
        for c in one_coarsenings(x):
            # every part of x sits inside one part of c
            for part in x:
                owners = [q for q in c if set(part) <= set(q)]
                assert len(owners) == 1


class TestIncForest:
    def test_star(self):
        assert inc_is_forest(3, [P(3, [0], [1], [2]), P(3, [0, 1, 2])])

    def test_duplicate_part_cycle(self):
        assert not inc_is_forest(2, [P(2, [0, 1]), P(2, [0, 1])])

    def test_mixed(self):
        assert inc_is_forest(4, [P(4, [0, 1], [2, 3]), P(4, [1, 2], [0], [3])])

    def test_part_count_identity(self):
        # for connected joint incidence: acyclic iff |X1|+|X2| = m+1
        for m in range(1, 7):
            univ = list(all_partitions(m))
            for x in univ:
                for y in univ:
                    forest = inc_is_forest(m, [x, y])
                    connected = len(uplus(x, y)) == 1
                    if connected:
                        assert forest == (len(x) + len(y) == m + 1)

    def test_one_coarsening_observation(self):
        # acyclic joint iff some 1-coarsening of x makes it connected+acyclic
        for m in range(1, 6):
            univ = list(all_partitions(m))
            for x in univ:
                coars = one_coarsenings(x)
                for y in univ:
                    lhs = inc_is_forest(m, [x, y])
                    rhs = any(
                        len(uplus(c, y)) == 1 and inc_is_forest(m, [c, y])
                        for c in coars
                    )
                    assert lhs == rhs


class TestEnumeration:
    def test_bell_counts(self):
        for m in range(7):
            assert len(list(all_partitions(m))) == bell_number(m)

    def test_all_distinct(self):
        got = list(all_partitions(5))
        assert len(set(got)) == len(got)

    @pytest.mark.parametrize(
        "build",
        [lambda: all_partitions(-1)],
        ids=["all_partitions"],
    )
    def test_negative_ground_set_size_is_rejected(self, build):
        # at the call, as Partition.from_parts(-1, []) rejects it
        with pytest.raises(InvalidInput):
            build()


def test_join_of_two_empty_partitions_is_not_a_rejection():
    # the empty partition is falsy, so the join memo must test identity
    engine = build_engine(Instance(Graph(1, []), 3, 0, "k1k2", "block"))
    (empty,) = all_partitions(0)
    fam = {empty: frozenset()}
    for _ in range(2):  # a memo miss, then a memo hit
        assert engine._joints(fam, fam, engine.k) == {Partition(()): frozenset()}
