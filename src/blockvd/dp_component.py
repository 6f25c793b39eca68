"""Bounded component vertex deletion: the per-component variant of the DP.

``build_engine`` runs the one engine of ``_dpcore`` in component mode,
which tracks one shape hypothesis per bag component where block mode
tracks one per non-trivial block; every transition is shared.
Components that sink together into one component below the bag are
tied to one pattern, which the engine realizes with single-pattern
slots.  As in block mode, the engine's label alphabet is
``PFamilySpec.labels(d)``, min(d, p) for members of at most p vertices,
and the witness check reads the instance's own d.

``build_engine`` also hands the engine a greedy packing of disjoint
connected vertex sets that no solution may leave whole
(``_dpcore.pack_infeasible``), built at the instance's own d.  A state
with deleted bag set X then keeps a set w deleted below the bag only
while |w| + |X| plus the packed sets that avoid X and the vertices
forgotten below the node is at most k.  Every family here keeps each
connected induced subgraph of a member (``k1k2``, ``cliques``,
``chordal``, ``all``, and ``cycles`` at d <= 3, the only bounds its
universe builds), so a solution that missed a packed set U would leave
G[U] inside one feasible component, and U with it.

The decomposition enters only as ``Instance.td`` (the min-fill
``heuristic_td`` when it is None); ``to_nice`` validates it and builds
the nice form the engine walks.
"""

from __future__ import annotations

from ._dpcore import Engine, SolveResult, pack_infeasible
from .decomposition import heuristic_td, to_nice
from .errors import InvalidInput
from .families import enumerate_component_patterns, get_family
from .instance import Instance
from .oracle import verify_solution


def build_engine(inst: Instance) -> Engine:
    fam = get_family(inst.family)
    labels = fam.labels(inst.d)
    patterns = enumerate_component_patterns(labels, fam)
    td = inst.td if inst.td is not None else heuristic_td(inst.graph)
    ntd = to_nice(td, inst.graph)
    # the packing reads the instance's bound, not the label alphabet
    packing = pack_infeasible(inst.graph, ntd, inst.d, fam)
    return Engine("component", inst.graph, labels, inst.k, patterns, ntd, packing)


def solve_component(inst: Instance, witness: bool = False) -> SolveResult:
    """Decide the component variant; optionally recover a verified set."""
    if inst.mode != "component":
        raise InvalidInput("instance mode must be 'component'")
    result = build_engine(inst).run()
    if not witness:
        result.witness = None
    elif result.decision and not verify_solution(
        inst.graph, result.witness, inst.d, inst.family, "component"
    ):
        raise AssertionError("recovered witness failed verification")
    return result


__all__ = [
    "SolveResult",
    "build_engine",
    "solve_component",
]
