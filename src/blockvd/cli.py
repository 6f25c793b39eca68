"""Command-line interface.

Subcommands: ``solve`` (DP or oracle engines), ``gen`` (benchmark
instances with planted solutions), ``td`` (decomposition utilities),
``enum-ud`` (pattern universes), and ``selftest``.  Exit codes: 0 for
YES/success, 1 for NO (or a failed selftest), 2 for usage and
infeasibility errors.  All output is deterministic; timing is only
reported when explicitly requested.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__
from .decomposition import (
    exact_td_small,
    heuristic_td,
    read_td,
    to_nice,
    validate_td,
    write_td,
)
from .dp_block import solve_block
from .dp_component import solve_component
from .errors import BlockvdError, InvalidInput
from .families import enumerate_component_patterns, enumerate_ud, get_family
from .gadgets import (
    GridISInstance,
    gen_clique_instance,
    gen_fixed_d,
    gen_subgraph_iso_instance,
)
from .graph import parse_ints, read_gr, write_gr
from .instance import Instance
from .oracle import brute_force_solve, verify_solution

SCHEMA = "blockvd/1"


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1))
    else:
        for key in sorted(payload):
            print(f"{key}: {payload[key]}")


def _read_input(path: str) -> str:
    """The text of a --graph or --td file, which must be UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"{path}: {exc}") from None


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.engine == "oracle" and args.witness:
        raise InvalidInput("--witness needs --engine dp")
    g = read_gr(_read_input(args.graph))
    td = read_td(_read_input(args.td), g.n) if args.td else None
    inst = Instance(g, args.d, args.k, args.family, args.mode, td=td)
    t0 = time.perf_counter()
    payload: dict = {"schema": SCHEMA, "version": __version__, "mode": args.mode}
    if args.engine == "oracle":
        best = brute_force_solve(inst)
        decision = best is not None
        payload["stats"] = {"engine": "oracle", "minimum": best}
    else:
        res = (solve_block if args.mode == "block" else solve_component)(
            inst, witness=args.witness
        )
        decision = res.decision
        payload["stats"] = {
            "engine": "dp",
            "states": res.stats["states"],
            "retained": res.stats["retained"],
            "minimum": res.minimum,
        }
        if args.witness and res.witness is not None:
            payload["witness"] = sorted(res.witness)
    payload["decision"] = "YES" if decision else "NO"
    if args.timing:
        payload["stats"]["time"] = round(time.perf_counter() - t0, 3)
    _emit(payload, args.json)
    return 0 if decision else 1


def _planted(args: argparse.Namespace) -> list[int] | None:
    """The ``--planted`` list such as ``1,2,3``: one value per index 1..k."""
    if args.planted is None:
        return None
    planted = parse_ints(args.planted.split(","), args.planted)
    if len(planted) != args.k:
        raise InvalidInput(f"--planted needs {args.k} values, got {len(planted)}")
    return planted


def _edges(text: str) -> list[tuple[int, int]]:
    """A comma-separated edge list such as ``1-2,2-3``."""
    edges = []
    for e in text.split(","):
        ends = parse_ints(e.split("-"), e)
        if len(ends) != 2:
            raise InvalidInput(f"edge {e!r} is not of the form a-b")
        edges.append((ends[0], ends[1]))
    return edges


def _write_instance(gen, prefix: str) -> None:
    parent = Path(prefix).parent
    if parent and not parent.exists():
        parent.mkdir(parents=True)
    Path(prefix + ".gr").write_text(write_gr(gen.instance.graph))
    Path(prefix + ".td").write_text(write_td(gen.instance.td, gen.instance.graph.n))
    sidecar = {
        "schema": SCHEMA,
        "formulas": gen.meta,
        "planted": sorted(gen.planted) if gen.planted is not None else None,
        "solve": {
            "mode": gen.instance.mode,
            "family": gen.instance.family,
            "d": gen.instance.d,
            "k": gen.instance.k,
        },
    }
    Path(prefix + ".json").write_text(
        json.dumps(sidecar, sort_keys=True, separators=(",", ": "), indent=1) + "\n"
    )
    print(f"wrote {prefix}.gr {prefix}.td {prefix}.json")


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.generator == "perm-is":
        grid = GridISInstance.minimal(args.k)
        gen = gen_fixed_d(grid, args.d, args.variant, planted=_planted(args))
    elif args.generator == "clique":
        import random

        rng = random.Random(args.seed)
        k, t, p = args.k, args.t, args.edges_per_pair
        planted = _planted(args)
        if p is None:
            p = min(t * t, max(2, t))
        edges_by_pair = {}
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                pairs = set()
                if planted is not None:
                    pairs.add((planted[i - 1], planted[j - 1]))
                universe = [(a, b) for a in range(1, t + 1) for b in range(1, t + 1)]
                rng.shuffle(universe)
                for cand in universe:
                    if len(pairs) >= p:
                        break
                    pairs.add(cand)
                if len(pairs) != p:
                    raise BlockvdError("cannot reach the requested edge count")
                edges_by_pair[(i, j)] = sorted(pairs)
        gen = gen_clique_instance(k, t, edges_by_pair, planted=planted)
    else:  # subgraph-iso
        pattern = _edges(args.pattern_edges)
        host = _edges(args.host_edges)
        gen = gen_subgraph_iso_instance(
            host_edges=host,
            host_size=args.t,
            pattern_edges=pattern,
            pattern_size=args.k,
            planted=_planted(args),
        )
    if gen.planted is not None and not verify_solution(
        gen.instance.graph,
        gen.planted,
        gen.instance.d,
        gen.instance.family,
        gen.instance.mode,
    ):
        raise BlockvdError("planted solution failed verification")
    _write_instance(gen, args.output)
    return 0


def _cmd_td(args: argparse.Namespace) -> int:
    g = read_gr(_read_input(args.graph))
    if args.action == "validate":
        if args.td is None:
            raise InvalidInput("td validate needs --td")
        td = read_td(_read_input(args.td), g.n)
        bad = validate_td(g, td)
        if bad is None:
            print(f"ok: {td.num_nodes} bags, width {td.width}")
            return 0
        print(f"violation: {bad.condition}: {bad.detail}")
        return 1
    if args.action == "heuristic":
        td = heuristic_td(g)
    elif args.action == "exact":
        td = exact_td_small(g)
    else:  # nice
        base = read_td(_read_input(args.td), g.n) if args.td else heuristic_td(g)
        ntd = to_nice(base, g)
        print(
            f"nice decomposition: {ntd.num_nodes} nodes, width {ntd.width}, "
            f"kinds: "
            + " ".join(
                f"{kind}={sum(1 for x in ntd.kinds if x == kind)}"
                for kind in ("leaf", "introduce", "forget", "join")
            )
        )
        td = ntd.to_tree_decomposition()
    out = write_td(td, g.n)
    if args.output:
        Path(args.output).write_text(out)
        print(f"wrote {args.output} (width {td.width})")
    else:
        sys.stdout.write(out)
    return 0


def _cmd_enum_ud(args: argparse.Namespace) -> int:
    # the universe a solve at this d runs on, over the family's labels
    fam = get_family(args.family)
    enumerate_patterns = enumerate_component_patterns if args.connected else enumerate_ud
    pats = enumerate_patterns(fam.labels(args.d), fam)
    for p in pats:
        print(p)
    print(f"total: {len(pats)}")
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .selfcheck import run_selftest

    ok = run_selftest(args.trials)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="blockvd",
        description="Bounded block/component vertex deletion: solvers and generators",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="decide an instance")
    s.add_argument("--mode", choices=["block", "component"], required=True)
    s.add_argument("--engine", choices=["dp", "oracle"], default="dp")
    s.add_argument("--family", required=True)
    s.add_argument("-d", type=int, required=True)
    s.add_argument("-k", type=int, required=True)
    s.add_argument("--graph", required=True)
    s.add_argument("--td", default=None)
    s.add_argument("--witness", action="store_true")
    s.add_argument("--json", action="store_true")
    s.add_argument("--timing", action="store_true")
    s.set_defaults(func=_cmd_solve)

    gsub = sub.add_parser("gen", help="generate a benchmark instance")
    gg = gsub.add_subparsers(dest="generator", required=True)
    p1 = gg.add_parser("perm-is", help="grid independent-set construction")
    p1.add_argument("-k", type=int, required=True)
    p1.add_argument("-d", type=int, required=True)
    p1.add_argument("--variant", choices=["component", "block"], default="component")
    p1.add_argument("--planted", default=None, help="columns j1,...,jk")
    p1.add_argument("-o", "--output", required=True)
    p1.set_defaults(func=_cmd_gen)
    p2 = gg.add_parser("clique", help="multicolored-clique construction")
    p2.add_argument("-k", type=int, required=True)
    p2.add_argument("-t", type=int, required=True)
    p2.add_argument("--planted", default=None, help="members g1,...,gk")
    p2.add_argument("--edges-per-pair", type=int, default=None)
    p2.add_argument("--seed", type=int, default=0)
    p2.add_argument("-o", "--output", required=True)
    p2.set_defaults(func=_cmd_gen)
    p3 = gg.add_parser("subgraph-iso", help="subgraph-isomorphism construction")
    p3.add_argument("-k", type=int, required=True, help="pattern vertex count")
    p3.add_argument("-t", type=int, required=True, help="host vertex count")
    p3.add_argument("--pattern-edges", required=True, help="e.g. 1-2,2-3")
    p3.add_argument("--host-edges", required=True)
    p3.add_argument("--planted", default=None)
    p3.add_argument("-o", "--output", required=True)
    p3.set_defaults(func=_cmd_gen)

    tsub = sub.add_parser("td", help="tree decomposition utilities")
    tsub.add_argument("action", choices=["validate", "heuristic", "exact", "nice"])
    tsub.add_argument("--graph", required=True)
    tsub.add_argument("--td", default=None)
    tsub.add_argument("-o", "--output", default=None)
    tsub.set_defaults(func=_cmd_td)

    e = sub.add_parser("enum-ud", help="list the pattern universe")
    e.add_argument("-d", type=int, required=True)
    e.add_argument("--family", required=True)
    e.add_argument(
        "--connected",
        action="store_true",
        help="connected patterns (component variant) instead of biconnected",
    )
    e.set_defaults(func=_cmd_enum_ud)

    st = sub.add_parser("selftest", help="run the built-in property checks")
    st.add_argument("--trials", type=int, default=25)
    st.set_defaults(func=_cmd_selftest)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (BlockvdError, OSError) as exc:
        message = str(exc)
    except MemoryError:
        # reported once the handler has released the failed frames
        message = "out of memory"
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
