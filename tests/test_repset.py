import random

import pytest

from blockvd.characteristics import all_partitions, verify_representative
from blockvd.errors import BadBucket, TooLarge
from blockvd.partitions import Partition, inc_is_forest, uplus
from blockvd.repset import cut_row, gf2_independent_rows, reduce_connected, rep_partitions

from conftest import singletons


def reduce_connected_exhaustive(m: int, bucket: list[Partition], j: int) -> list[Partition]:
    """Slow reference reduction for differential testing (small m).

    Works on the explicit connectivity matrix whose columns are all
    j-part partitions of the ground set, with a 1 wherever the joint of
    row and column partitions coarsens to a single part.  Keeping a row
    basis of this matrix preserves connected-joinability directly.
    """
    columns = [y for y in all_partitions(m) if len(y) == j]
    rows = []
    for p in bucket:
        row = 0
        for ci, y in enumerate(columns):
            if len(uplus(p, y)) == 1:
                row |= 1 << ci
        rows.append(row)
    return [bucket[idx] for idx in gf2_independent_rows(rows, len(columns))]


class TestCutMatrix:
    def test_inner_product_is_single_part_indicator(self):
        # row_p . row_q over GF(2) is 1 exactly when p and q coarsen to one part
        for m in range(1, 6):
            univ = list(all_partitions(m))
            for p in univ:
                rp = cut_row(p)
                for q in univ:
                    dot = bin(rp & cut_row(q)).count("1") & 1
                    assert dot == (1 if len(uplus(p, q)) == 1 else 0)

    def test_row_width(self):
        for m in range(1, 6):
            for p in all_partitions(m):
                assert cut_row(p) < 1 << (1 << (m - 1))


class TestKernels:
    def test_known_basis(self):
        rows = [0b0011, 0b0101, 0b0110, 0b1000, 0b0000]
        keep = gf2_independent_rows(rows, 4)
        assert keep == [0, 1, 3]


class TestReduceConnected:
    def test_all_singletons_survives(self):
        m = 4
        fam = [singletons(m)]
        assert reduce_connected(m, fam, 1) == fam

    def test_two_part_bucket_represents(self):
        m = 3
        bucket = [
            Partition.from_parts(m, [[0, 1], [2]]),
            Partition.from_parts(m, [[0], [1, 2]]),
        ]
        kept = reduce_connected(m, bucket, 2)
        for y in all_partitions(m):
            if len(y) != 2:
                continue
            if any(len(uplus(x, y)) == 1 and inc_is_forest(m, [x, y]) for x in bucket):
                assert any(
                    len(uplus(x, y)) == 1 and inc_is_forest(m, [x, y])
                    for x in kept
                )

    def test_size_bound(self):
        rng = random.Random(1)
        for m in range(1, 6):
            univ = [p for p in all_partitions(m)]
            for i in range(1, m + 1):
                bucket = [p for p in univ if len(p) == i]
                rng.shuffle(bucket)
                kept = reduce_connected(m, bucket, m + 1 - i)
                assert len(kept) <= 1 << (m - 1)

    def test_bad_bucket(self):
        m = 3
        with pytest.raises(BadBucket):
            reduce_connected(m, [singletons(m)], 2)
        with pytest.raises(BadBucket):
            reduce_connected(
                m,
                [
                    singletons(m),
                    Partition.from_parts(m, [[0, 1], [2]]),
                ],
                1,
            )


class TestRepPartitions:
    def test_empty(self):
        assert rep_partitions(3, []) == []

    def test_subset_and_dedup(self):
        m = 3
        fam = list(all_partitions(m)) + list(all_partitions(m))
        out = rep_partitions(m, fam)
        assert len(set(out)) == len(out)
        assert set(out) <= set(fam)

    def test_full_family_of_four(self):
        m = 4
        fam = list(all_partitions(m))
        out = rep_partitions(m, fam)
        assert len(out) <= m * (1 << (m - 1))
        assert verify_representative(m, fam, out)

    def test_random_families_representative(self):
        rng = random.Random(2)
        for _ in range(120):
            m = rng.randint(1, 6)
            univ = list(all_partitions(m))
            fam = [rng.choice(univ) for _ in range(rng.randint(1, 15))]
            out = rep_partitions(m, fam)
            assert set(out) <= set(fam)
            assert len(out) <= m * (1 << (m - 1))
            assert verify_representative(m, fam, out)

    def test_verify_rejects_empty_sub(self):
        m = 2
        fam = [singletons(m)]
        assert not verify_representative(m, fam, [])
        assert verify_representative(m, fam, fam)

    def test_verify_guard(self):
        with pytest.raises(TooLarge):
            verify_representative(8, [], [])


class TestExhaustiveEngine:
    def test_differential_against_rank_engine(self):
        rng = random.Random(3)
        for _ in range(60):
            m = rng.randint(1, 5)
            univ = list(all_partitions(m))
            i = rng.randint(1, m)
            bucket = [p for p in univ if len(p) == i]
            rng.shuffle(bucket)
            bucket = bucket[: rng.randint(1, len(bucket))]
            j = m + 1 - i
            fast = reduce_connected(m, bucket, j)
            slow = reduce_connected_exhaustive(m, bucket, j)
            # both engines must preserve connected-joinability against every
            # j-part partner
            for kept in (fast, slow):
                for y in univ:
                    if len(y) != j:
                        continue
                    had = any(len(uplus(x, y)) == 1 for x in bucket)
                    if had:
                        assert any(len(uplus(x, y)) == 1 for x in kept)

