"""Representative sets for partition families under incidence acyclicity.

The reduction step works on the cut matrix over GF(2): columns are the
2^(m-1) cuts of the ground set that contain element 0, and a partition's
row marks the cuts that split no part.  Two rows have odd inner product
exactly when the common coarsening of the two partitions has one part,
i.e. when their joint incidence graph is connected.  Keeping a row basis
therefore preserves, for every complementary partition, the existence of
a connected joint - and, within a fixed part-count bucket, connected
means acyclic.

``reduce_connected`` is that reduction on one bucket, and the only
caller of the GF(2) elimination.  ``rep_partitions``, which the DP runs
on a family above the bound, buckets the one-coarsenings of the family
by part count and reduces each bucket through it.
"""

from __future__ import annotations

from typing import Sequence

from .errors import BadBucket
from .partitions import Partition, one_coarsenings


def gf2_independent_rows(rows: Sequence[int], nbits: int) -> list[int]:
    """Indices of a greedy maximal linearly independent subset of rows.

    Row reduction over GF(2) on int bitsets.  The pivot rule is the lowest
    set bit, and the first independent row wins, so the kept rows depend
    only on the row order.
    """
    pivots: dict[int, int] = {}
    out: list[int] = []
    for idx, row in enumerate(rows):
        r = row
        while r:
            p = r & (-r)
            b = pivots.get(p)
            if b is None:
                pivots[p] = r
                out.append(idx)
                break
            r ^= b
    return out


def cut_row(p: Partition) -> int:
    """Bitset over cut indices: bit c set iff cut c splits no part of p.

    Cut index c encodes the cut {0} | {i >= 1 : bit i-1 of c set}, so cuts
    are ordered by the numeric value of their characteristic vector.
    """
    if p.m == 0:
        return 1
    masks = p.part_masks()
    first = next(mask for mask in masks if mask & 1)
    others = [mask for mask in masks if not (mask & 1)]
    row = 0
    for sub in range(1 << len(others)):
        cut = first
        s = sub
        j = 0
        while s:
            if s & 1:
                cut |= others[j]
            s >>= 1
            j += 1
        row |= 1 << (cut >> 1)
    return row


def reduce_connected(m: int, bucket: Sequence[Partition], j: int) -> list[Partition]:
    """Rank-based reduction of a fixed-part-count bucket.

    Every partition in the bucket must have exactly i parts with
    i + j = m + 1; the output is a subfamily of size at most 2^(m-1) that
    still offers, for every j-part partition admitting an acyclic joint
    with some bucket member, an acyclic joint with a retained member.
    """
    if not bucket:
        return []
    i = len(bucket[0])
    if i + j != m + 1:
        raise BadBucket(f"part counts {i} and {j} do not satisfy i+j=m+1")
    for p in bucket:
        if p.m != m or len(p) != i:
            raise BadBucket("bucket mixes ground sets or part counts")
    rows = [cut_row(p) for p in bucket]
    keep = gf2_independent_rows(rows, 1 << max(m - 1, 0))
    return [bucket[idx] for idx in keep]


def rep_partitions(m: int, family: Sequence[Partition]) -> list[Partition]:
    """Representative subfamily of size at most m * 2^(m-1).

    Steps: dedupe, take all 1-coarsenings, bucket them by part count,
    hand each bucket of i parts to ``reduce_connected`` against the
    complementary count m + 1 - i, then map the retained coarsenings back
    to their original partitions.  A coarsening that several originals
    share is listed once and stands for the first of them: a repeated
    row is in the span of its first copy, so the greedy basis would
    never keep it.
    """
    seen: set[Partition] = set()
    originals: list[Partition] = []
    for p in family:
        if p.m != m:
            raise BadBucket("family member over wrong ground set")
        if p not in seen:
            seen.add(p)
            originals.append(p)
    if m == 0 or len(originals) <= 1:
        return originals

    # part count -> coarsening -> index of the first original it came from
    buckets: dict[int, dict[Partition, int]] = {}
    for oi, orig in enumerate(originals):
        for c in one_coarsenings(orig):
            buckets.setdefault(len(c), {}).setdefault(c, oi)

    kept = {
        first[c]
        for i, first in buckets.items()
        for c in reduce_connected(m, list(first), m + 1 - i)
    }
    return [originals[oi] for oi in sorted(kept)]

