"""Bounded component vertex deletion: the per-component variant of the DP.

``build_engine`` runs the one engine of ``_dpcore`` in component mode,
which tracks one shape hypothesis per bag component where block mode
tracks one per non-trivial block; every transition is shared.
Components that sink together into one component below the bag are
tied to one pattern, which the engine realizes with single-pattern
slots.  As in block mode, the engine's label alphabet is
``PFamilySpec.labels(d)``, min(d, p) for members of at most p vertices,
and the witness check reads the instance's own d.
"""

from __future__ import annotations

from ._dpcore import Engine, SolveResult
from .decomposition import NiceTreeDecomposition, heuristic_td, to_nice, validate_nice
from .errors import InvalidInput
from .families import enumerate_component_patterns, get_family
from .instance import Instance
from .oracle import verify_solution


def build_engine(inst: Instance, ntd: NiceTreeDecomposition | None = None) -> Engine:
    fam = get_family(inst.family)
    labels = fam.labels(inst.d)
    patterns = enumerate_component_patterns(labels, fam)
    if ntd is None:
        td = inst.td if inst.td is not None else heuristic_td(inst.graph)
        ntd = to_nice(td, inst.graph)
    else:
        bad = validate_nice(inst.graph, ntd)
        if bad is not None:
            raise InvalidInput(f"invalid nice decomposition: {bad.condition}: {bad.detail}")
    return Engine("component", inst.graph, labels, inst.k, patterns, ntd)


def solve_component(
    inst: Instance,
    ntd: NiceTreeDecomposition | None = None,
    witness: bool = False,
) -> SolveResult:
    """Decide the component variant; optionally recover a verified set."""
    if inst.mode != "component":
        raise ValueError("instance mode must be 'component'")
    result = build_engine(inst, ntd).run()
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
