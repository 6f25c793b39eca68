"""Bounded component vertex deletion: the per-component variant of the DP.

``build_engine`` runs the one engine of ``_dpcore`` in component mode,
which tracks one shape hypothesis per bag component where block mode
tracks one per non-trivial block; every transition is shared.
Components that sink together into one component below the bag are
tied to one pattern, which the engine realizes with single-pattern
slots.
"""

from __future__ import annotations

from itertools import product
from typing import Mapping, Sequence

from ._dpcore import Engine, SolveResult
from .decomposition import NiceTreeDecomposition, heuristic_td, to_nice
from .families import Pattern, enumerate_component_patterns, get_family
from .graph import BoundariedGraph, induced_edges
from .instance import Instance
from .oracle import verify_solution


def build_engine(
    inst: Instance,
    ntd: NiceTreeDecomposition | None = None,
    witness: bool = False,
) -> Engine:
    fam = get_family(inst.family)
    patterns = enumerate_component_patterns(inst.d, fam)
    if ntd is None:
        td = inst.td if inst.td is not None else heuristic_td(inst.graph)
        ntd = to_nice(td, inst.graph)
    return Engine("component", inst.graph, inst.d, inst.k, patterns, ntd, witness=witness)


def solve_component(
    inst: Instance,
    ntd: NiceTreeDecomposition | None = None,
    witness: bool = False,
) -> SolveResult:
    """Decide the component variant; optionally recover a verified set."""
    if inst.mode != "component":
        raise ValueError("instance mode must be 'component'")
    result = build_engine(inst, ntd, witness=witness).run()
    if witness and result.decision:
        if result.witness is None or not verify_solution(
            inst.graph, result.witness, inst.d, inst.family, "component"
        ):
            raise AssertionError("recovered witness failed verification")
    return result


def compute_component_characteristic(
    bg: BoundariedGraph,
    labels: Mapping[int, int],
    patterns: Sequence[Pattern],
) -> list[tuple[tuple[tuple[int, ...], Pattern, frozenset[int]], ...]]:
    """Admissible per-component characteristics of a labeled boundaried graph.

    Mirrors the block characteristic with components in place of blocks:
    the pattern of a boundary component must host its whole containing
    component, finished (non-boundary) vertices must see their full
    pattern neighborhood, and h collects the labels of the component's
    outside neighbors.  Returns the empty list when some component
    matches nothing.
    """
    bcomps = [tuple(sorted(c)) for c in bg.boundary_components()]
    if not bcomps:
        return [()]
    comps = bg.components()
    owner: dict[tuple[int, ...], frozenset[int]] = {}
    for c in bcomps:
        owner[c] = next(x for x in comps if set(c) <= x)

    def candidates(comp: frozenset[int]) -> list[Pattern]:
        labs = {v: labels[v] for v in comp}
        if len(set(labs.values())) != len(labs):
            return []
        mapped = frozenset(
            (min(labels[a], labels[b]), max(labels[a], labels[b]))
            for (a, b) in induced_edges(bg.host, comp)
        )
        out = []
        for q in patterns:
            if not set(labs.values()) <= q.labels or q.induced(set(labs.values())) != mapped:
                continue
            ok = True
            for w in comp:
                if w in bg.boundary:
                    continue
                closed = {labels[w]} | {
                    labels[u] for u in bg.host.neighbors(w) if u in comp
                }
                if closed != {labels[w]} | set(q.neighbors(labels[w])):
                    ok = False
                    break
            if ok:
                out.append(q)
        return out

    per_host: dict[frozenset[int], list[Pattern]] = {}
    for x in set(owner.values()):
        cands = candidates(x)
        if not cands:
            return []
        per_host[x] = cands

    hmap: dict[tuple[int, ...], frozenset[int]] = {}
    for c in bcomps:
        x = owner[c]
        nbrs = {
            u
            for v in c
            for u in bg.host.neighbors(v)
            if u in x and u not in set(c)
        }
        hmap[c] = frozenset(labels[u] for u in nbrs)

    hosts = sorted(per_host, key=lambda x: tuple(sorted(x)))
    out = []
    for combo in product(*(per_host[x] for x in hosts)):
        chosen = dict(zip(hosts, combo))
        out.append(
            tuple((c, chosen[owner[c]], hmap[c]) for c in sorted(bcomps))
        )
    return out


__all__ = [
    "SolveResult",
    "build_engine",
    "solve_component",
    "compute_component_characteristic",
]
