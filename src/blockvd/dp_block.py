"""Bounded block vertex deletion on a nice tree decomposition.

``build_engine`` runs the one engine of ``_dpcore`` in block mode.  Its
states combine a bag deletion set, a labeling of the rest, and one shape
hypothesis per non-trivial block of the bag graph; families of
boundary-component partitions, each with its least deletion set, are
kept representative after every node.  Block mode packs no infeasible
sets, so a state with deleted bag set X keeps only the sets of at most
k - |X| vertices deleted below the bag.  The engine labels bag vertices
from ``PFamilySpec.labels(d)`` labels, min(d, p) for a family whose
members have at most p vertices, so ``k1k2`` (feedback vertex set) runs
on two labels at every d; the witness check reads the instance's own d.

The decomposition enters only as ``Instance.td`` (the min-fill
``heuristic_td`` when it is None); ``to_nice`` validates it and builds
the nice form the engine walks.
"""

from __future__ import annotations

from ._dpcore import Engine, SolveResult
from .decomposition import heuristic_td, to_nice
from .errors import InvalidInput
from .families import enumerate_ud, get_family
from .instance import Instance
from .oracle import verify_solution


def build_engine(inst: Instance) -> Engine:
    fam = get_family(inst.family)
    labels = fam.labels(inst.d)
    patterns = enumerate_ud(labels, fam)
    td = inst.td if inst.td is not None else heuristic_td(inst.graph)
    return Engine("block", inst.graph, labels, inst.k, patterns, to_nice(td, inst.graph))


def solve_block(inst: Instance, witness: bool = False) -> SolveResult:
    """Decide the block variant; optionally recover a verified deletion set."""
    if inst.mode != "block":
        raise InvalidInput("instance mode must be 'block'")
    result = build_engine(inst).run()
    if not witness:
        result.witness = None
    elif result.decision and not verify_solution(
        inst.graph, result.witness, inst.d, inst.family, "block"
    ):
        raise AssertionError("recovered witness failed verification")
    return result


__all__ = [
    "SolveResult",
    "build_engine",
    "solve_block",
]
