"""GF(2) row-reduction kernel on int bitsets.

The pivot rule is the lowest set bit, and the first independent row wins,
so the kept rows depend only on the row order.
"""

from __future__ import annotations

from typing import Sequence


def gf2_independent_rows(rows: Sequence[int], nbits: int) -> list[int]:
    """Indices of a greedy maximal linearly independent subset of rows."""
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
