"""Benchmark-instance generators for the two hardness constructions.

Both constructions plant a solution whose size matches a closed form and
emit a path decomposition realizing the intended width bound, so the
instances double as correctness fixtures: the planted set must verify,
and the decomposition must validate within its bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .decomposition import TreeDecomposition
from .errors import BadSequence, InvalidInput, NotAClique, NotAnIS
from .graph import Graph
from .instance import Instance


# ----------------------------------------------------------------------
# fixed-d construction: grid independent set -> component/block deletion


@dataclass(frozen=True)
class GridISInstance:
    """A k-by-k grid graph for the permutation independent-set problem.

    Vertices are (row, column) pairs over [1..k]^2; the edge set must
    contain every same-row and same-column pair (adding them changes no
    answers and normalizes the problem).
    """

    k: int
    edges: frozenset[frozenset[tuple[int, int]]]

    def __post_init__(self) -> None:
        if self.k < 2:
            raise InvalidInput("grid instances need k >= 2")
        cells = [(i, j) for i in range(1, self.k + 1) for j in range(1, self.k + 1)]
        for e in self.edges:
            if len(e) != 2 or not all(c in cells for c in e):
                raise InvalidInput(f"bad grid edge {sorted(e)}")
        for a in cells:
            for b in cells:
                if a < b and (a[0] == b[0] or a[1] == b[1]):
                    if frozenset((a, b)) not in self.edges:
                        raise InvalidInput(
                            f"missing same-row/column pair {a}-{b}"
                        )

    @classmethod
    def minimal(cls, k: int, extra: Iterable[frozenset] = ()) -> "GridISInstance":
        cells = [(i, j) for i in range(1, k + 1) for j in range(1, k + 1)]
        edges = {
            frozenset((a, b))
            for a in cells
            for b in cells
            if a < b and (a[0] == b[0] or a[1] == b[1])
        }
        edges.update(frozenset(e) for e in extra)
        return cls(k, frozenset(edges))

    def ordered_edges(self) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        return sorted(tuple(sorted(e)) for e in self.edges)

    def is_permutation_independent_set(self, columns: Sequence[int]) -> bool:
        if sorted(columns) != list(range(1, self.k + 1)):
            return False
        chosen = [(i + 1, columns[i]) for i in range(self.k)]
        for a in chosen:
            for b in chosen:
                if a < b and frozenset((a, b)) in self.edges:
                    return False
        return True


@dataclass(frozen=True)
class GeneratedInstance:
    instance: Instance
    planted: frozenset[int] | None
    meta: dict


def gen_fixed_d(
    grid: GridISInstance,
    d: int,
    variant: str,
    planted: Sequence[int] | None = None,
) -> GeneratedInstance:
    """Materialize the fixed-d reduction from a grid instance.

    Per grid edge e there is one copy block: a gadget of 3d-2 vertices
    per grid cell (a path on d-3 vertices, an isolated vertex, and two
    d-cycles) plus 2k selector vertices.  The component variant asks for
    all remaining components to be d-cycles; the block variant chains
    the column selectors so remaining blocks are d-cycles or edges.
    """
    if d < 4:
        raise InvalidInput("the construction needs d >= 4")
    if variant not in ("component", "block"):
        raise InvalidInput(f"bad variant {variant!r}")
    k = grid.k
    edges_seq = grid.ordered_edges()
    m = len(edges_seq)
    cell_size = 3 * d - 2
    block_size = cell_size * k * k + 2 * k
    n = block_size * m

    cells = [(i, j) for i in range(1, k + 1) for j in range(1, k + 1)]
    cell_index = {c: idx for idx, c in enumerate(cells)}

    def r_id(h: int, i: int) -> int:
        return h * block_size + (i - 1)

    def c_id(h: int, j: int) -> int:
        return h * block_size + k + (j - 1)

    def cell_base(h: int, cell: tuple[int, int]) -> int:
        return h * block_size + 2 * k + cell_index[cell] * cell_size

    # within a cell gadget: path on d-3 vertices, then v_plus, then two d-cycles
    path_len = d - 3

    def path_ids(h: int, cell) -> list[int]:
        b = cell_base(h, cell)
        return [b + t for t in range(path_len)]

    def plus_id(h: int, cell) -> int:
        return cell_base(h, cell) + path_len

    def cycle_ids(h: int, cell, which: int) -> list[int]:
        b = cell_base(h, cell) + path_len + 1 + which * d
        return [b + t for t in range(d)]

    def cell_ids(h: int, cell) -> list[int]:
        b = cell_base(h, cell)
        return list(range(b, b + cell_size))

    edges: set[tuple[int, int]] = set()

    def add(u: int, v: int) -> None:
        edges.add((min(u, v), max(u, v)))

    for h in range(m):
        for cell in cells:
            p = path_ids(h, cell)
            for a, b in zip(p, p[1:]):
                add(a, b)
            for which in range(2):
                cyc = cycle_ids(h, cell, which)
                for t in range(d):
                    add(cyc[t], cyc[(t + 1) % d])
            # selector links: path endpoints to the row and column selectors
            i, j = cell
            add(p[0], r_id(h, i))
            add(p[-1], c_id(h, j))
            # wrap links: the isolated vertex to the next copy's selectors
            nxt = (h + 1) % m
            add(plus_id(h, cell), r_id(nxt, i))
            add(plus_id(h, cell), c_id(nxt, j))
        # same-row full joins
        for i in range(1, k + 1):
            row = [(i, j) for j in range(1, k + 1)]
            for a in range(k):
                for b in range(a + 1, k):
                    for u in cell_ids(h, row[a]):
                        for w in cell_ids(h, row[b]):
                            add(u, w)
        # the encoded edge's full join
        ea, eb = edges_seq[h]
        for u in cell_ids(h, ea):
            for w in cell_ids(h, eb):
                add(u, w)
        if variant == "block":
            for j in range(1, k):
                add(c_id(h, j), c_id(h, j + 1))

    g = Graph(n, sorted(edges))

    # path decomposition: per copy h and row i one bag with the shared
    # selectors, the encoded edge's two cell gadgets, and the row's cells
    bags: list[frozenset[int]] = []
    for h in range(m):
        sel: set[int] = set()
        for idx in (0, h, (h + 1) % m):
            for i in range(1, k + 1):
                sel.add(r_id(idx, i))
                sel.add(c_id(idx, i))
        ea, eb = edges_seq[h]
        he = set(cell_ids(h, ea)) | set(cell_ids(h, eb))
        for i in range(1, k + 1):
            bag = set(sel) | he
            for j in range(1, k + 1):
                bag.update(cell_ids(h, (i, j)))
            bags.append(frozenset(bag))
    td = TreeDecomposition(
        tuple(bags), tuple((t, t + 1) for t in range(len(bags) - 1))
    )

    s = (3 * d - 2) * k * (k - 1) * m
    planted_set: frozenset[int] | None = None
    if planted is not None:
        if not grid.is_permutation_independent_set(planted):
            raise NotAnIS(f"columns {list(planted)} are not a permutation IS")
        dele: set[int] = set()
        for h in range(m):
            for i in range(1, k + 1):
                keep = (i, planted[i - 1])
                for j in range(1, k + 1):
                    if (i, j) != keep:
                        dele.update(cell_ids(h, (i, j)))
        assert len(dele) == s
        planted_set = frozenset(dele)

    family = "cycles"
    mode = "component" if variant == "component" else "block"
    inst = Instance(g, d, s, family, mode, td=td)
    meta = {
        "construction": "grid-independent-set",
        "variant": variant,
        "k": k,
        "d": d,
        "m": m,
        "vertices": n,
        "budget": s,
        "bag_bound": (3 * d + 4) * k + 6 * d - 4,
    }
    return GeneratedInstance(inst, planted_set, meta)


# ----------------------------------------------------------------------
# chain gadgets for the unbounded-d construction


def phi(a: int, b: int, t: int) -> int:
    """Injective encoding of an ordered pair into {3, 6, ..., 3t^2}."""
    if not (1 <= a <= t and 1 <= b <= t):
        raise InvalidInput(f"pair ({a},{b}) outside [1..{t}]^2")
    return 3 * t * (a - 1) + 3 * b


@dataclass(frozen=True)
class GadgetChain:
    """A thickened-path gadget encoding an increasing integer sequence.

    Deleting the q-th selector vertex splits the chain into a left part
    of size x_{q-1} and a right part of size x_z - x_{q-1}.
    """

    xs: tuple[int, ...]
    n: int
    edges: frozenset[tuple[int, int]]
    b_vertices: tuple[int, int, int]
    d_vertices: tuple[int, int, int]
    selectors: tuple[int, ...]  # u_1 .. u_z
    left_sizes: tuple[int, ...]  # size of the left part after deleting u_q
    segments: tuple[tuple[int, ...], ...]  # vertex lists of P_0 .. P_z


def gadget_chain(xs: Sequence[int]) -> GadgetChain:
    """Build the chain gadget for x_0 >= 3 and steps of at least 3."""
    xs = tuple(xs)
    if len(xs) < 2:
        raise BadSequence("need at least two sequence entries")
    if xs[0] < 3:
        raise BadSequence(f"x_0 = {xs[0]} < 3")
    for a, b in zip(xs, xs[1:]):
        if b - a < 3:
            raise BadSequence(f"step {b}-{a} < 3")
    z = len(xs) - 1
    ds = [xs[0]] + [b - a for a, b in zip(xs, xs[1:])]

    segments: list[list[int]] = []
    selectors: list[int] = []
    nid = 0
    edges: set[tuple[int, int]] = set()

    def add(u: int, v: int) -> None:
        edges.add((min(u, v), max(u, v)))

    for q in range(z + 1):
        size = ds[q] if q in (0, z) else ds[q] - 1
        reach = 3 if q in (0, z) else 2
        seg = list(range(nid, nid + size))
        nid += size
        for a in range(size):
            for b in range(a + 1, min(a + reach + 1, size)):
                add(seg[a], seg[b])
        segments.append(seg)
        if q >= 1:
            u = nid
            nid += 1
            selectors.append(u)
            add(u, segments[q - 1][0])
            add(u, segments[q - 1][1])
            add(u, seg[0])
            add(u, seg[1])

    assert nid == xs[-1] + 1
    left_sizes = tuple(xs[q] for q in range(z))
    return GadgetChain(
        xs=xs,
        n=nid,
        edges=frozenset(edges),
        b_vertices=tuple(segments[0][:3]),
        d_vertices=tuple(segments[z][:3]),
        selectors=tuple(selectors),
        left_sizes=left_sizes,
        segments=tuple(tuple(s) for s in segments),
    )


def chain_path_decomposition(chain: GadgetChain) -> list[frozenset[int]]:
    """Bags of size at most 4 covering a chain gadget.

    Layout: the head segment scanned tail-to-head; then per selector zone
    the selector rides the tail-to-head scan of its right segment until a
    handover bag introduces the next selector at the segment head; the
    tail segment is scanned head-to-tail at the end.
    """
    segs = chain.segments
    sel = chain.selectors
    z = len(segs) - 1
    bags: list[frozenset[int]] = []

    def windows(seg: Sequence[int], width: int, rider: int | None, reverse: bool) -> None:
        extra = frozenset(() if rider is None else (rider,))
        if len(seg) <= width:
            bags.append(frozenset(seg) | extra)
            return
        starts = range(len(seg) - width, -1, -1) if reverse else range(len(seg) - width + 1)
        for a in starts:
            bags.append(frozenset(seg[a : a + width]) | extra)

    windows(segs[0], 4, None, reverse=True)
    bags.append(frozenset((sel[0], segs[0][0], segs[0][1])))
    for q in range(1, z):
        windows(segs[q], 3, sel[q - 1], reverse=True)
        bags.append(frozenset((sel[q - 1], sel[q], segs[q][0], segs[q][1])))
    bags.append(frozenset((sel[z - 1], segs[z][0], segs[z][1])))
    windows(segs[z], 4, None, reverse=False)
    return bags


@dataclass(frozen=True)
class _Placed:
    """A chain gadget placed at a vertex-id offset."""

    chain: GadgetChain
    base: int
    name: tuple

    def b(self) -> tuple[int, ...]:
        return tuple(self.base + x for x in self.chain.b_vertices)

    def d(self) -> tuple[int, ...]:
        return tuple(self.base + x for x in self.chain.d_vertices)

    def selector(self, q: int) -> int:
        return self.base + self.chain.selectors[q - 1]

    def edges(self):
        for a, b in self.chain.edges:
            yield (self.base + a, self.base + b)

    def bags(self) -> list[frozenset[int]]:
        return [
            frozenset(self.base + x for x in bag)
            for bag in chain_path_decomposition(self.chain)
        ]


def _place(chains: list[_Placed], chain: GadgetChain, name: tuple) -> _Placed:
    base = chains[-1].base + chains[-1].chain.n if chains else 0
    placed = _Placed(chain, base, name)
    chains.append(placed)
    return placed


def gen_unbounded_d(
    k: int,
    t: int,
    edge_values: Mapping[tuple[int, int], Sequence[tuple[int, int]]],
    planted: Sequence[int] | None = None,
    si_pairs: Sequence[tuple[int, int]] | None = None,
) -> GeneratedInstance:
    """Assemble the chain-of-gadgets construction.

    ``edge_values[(i, j)]`` lists the encoded pairs (a, b) for each color
    pair i < j; the clique variant instantiates every pair, the subgraph
    variant (``si_pairs`` given) only the listed ones.  Diagonal gadgets
    carry the identity pairs and every gadget gets the sentinel value
    3t^2 + 3 appended so all gadgets share the size 3t^2 + 4.

    ``planted`` maps each color class to a selected member; it must pick
    an encoded pair on every instantiated edge gadget.
    """
    if k < 2 or t < 1:
        raise InvalidInput("need k >= 2 and t >= 1")
    d = 3 * t * t + 3 * t + 3
    sentinel = 3 * t * t + 3

    order: list[tuple[int, int]] = []
    for j in range(2, k + 1):
        order.append((1, j))
    for i in range(2, k):
        for j in range(i, k + 1):
            order.append((i, j))
    if si_pairs is not None:
        wanted = {(min(a, b), max(a, b)) for a, b in si_pairs}
        order = [(i, j) for (i, j) in order if i == j or (i, j) in wanted]
    for i, j in order:
        if i < j and not edge_values.get((i, j)):
            raise InvalidInput(f"no encoded pairs for color pair ({i},{j})")

    chains: list[_Placed] = []
    gadget_at: dict[tuple[int, int], _Placed] = {}
    gadget_pairs: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i, j in order:
        if i == j:
            pairs = [(a, a) for a in range(1, t + 1)]
        else:
            pairs = sorted(edge_values[(i, j)])
        values = [phi(a, b, t) for (a, b) in pairs]
        if sorted(set(values)) != values:
            raise InvalidInput(f"encoded pairs for ({i},{j}) are not distinct")
        gadget_pairs[(i, j)] = pairs
        gadget_at[(i, j)] = _place(
            chains, gadget_chain(values + [sentinel]), ("G", i, j)
        )

    def cyclic_next(idx: int, match) -> tuple[int, int]:
        for step in range(1, len(order) + 1):
            cand = order[(idx + step) % len(order)]
            if match(cand):
                return cand
        return order[idx]

    tilde_seq = [3 * t * q for q in range(1, t + 2)]
    h_seq = [3 * q for q in range(1, t + 2)]
    props: list[tuple[_Placed, tuple[int, int], tuple[int, int]]] = []
    out_links: dict[tuple[int, int], list[_Placed]] = {c: [] for c in order}
    in_links: dict[tuple[int, int], list[_Placed]] = {c: [] for c in order}
    for idx, (i, j) in enumerate(order):
        nxt = cyclic_next(idx, lambda c: c[0] == i)
        p = _place(chains, gadget_chain(tilde_seq), ("Ht", i, (i, j), nxt))
        props.append((p, (i, j), nxt))
        out_links[(i, j)].append(p)
        in_links[nxt].append(p)
        nxt = cyclic_next(idx, lambda c: c[1] == j)
        p = _place(chains, gadget_chain(h_seq), ("H", j, (i, j), nxt))
        props.append((p, (i, j), nxt))
        out_links[(i, j)].append(p)
        in_links[nxt].append(p)

    edges: set[tuple[int, int]] = set()
    for placed in chains:
        edges.update(placed.edges())
    for p, src, dst in props:
        for u in gadget_at[src].d():
            for w in p.b():
                edges.add((min(u, w), max(u, w)))
        for u in p.d():
            for w in gadget_at[dst].b():
                edges.add((min(u, w), max(u, w)))
    n = chains[-1].base + chains[-1].chain.n
    g = Graph(n, sorted(edges))

    # script-level bags over the edge gadgets, then expanded per gadget
    if si_pairs is not None or k <= 3:
        zs = [list(order)]
    else:
        groups: dict[int, list[tuple[int, int]]] = {}
        for c in order:
            groups.setdefault(c[0], []).append(c)
        zs = [
            groups[1] + groups[i] + groups[i + 1]
            for i in range(2, k - 1)
        ]

    def xset(c: tuple[int, int]) -> set[int]:
        out = set(gadget_at[c].b()) | set(gadget_at[c].d())
        for p in out_links[c]:
            out.update(p.b())
        for p in in_links[c]:
            out.update(p.d())
        return out

    home_gadget: dict[tuple[int, int], int] = {}
    for zi, z in enumerate(zs):
        for c in z:
            home_gadget.setdefault(c, zi)
    home_prop: list[int] = []
    for p, src, dst in props:
        zi = next(
            (zi for zi, z in enumerate(zs) if src in z and dst in z), None
        )
        if zi is None:
            raise InvalidInput("no script bag covers a propagator link")
        home_prop.append(zi)

    bags: list[frozenset[int]] = []
    for zi, z in enumerate(zs):
        q = set()
        for c in z:
            q |= xset(c)
        for c in z:
            if home_gadget[c] == zi:
                bags.extend(bag | q for bag in gadget_at[c].bags())
        for pidx, (p, src, dst) in enumerate(props):
            if home_prop[pidx] == zi:
                bd = set(p.b()) | set(p.d())
                bags.extend(bag | q | bd for bag in p.bags())
    td = TreeDecomposition(
        tuple(bags), tuple((a, a + 1) for a in range(len(bags) - 1))
    )

    budget = 3 * len(order)
    planted_set: frozenset[int] | None = None
    if planted is not None:
        gamma = tuple(planted)
        if len(gamma) != k or not all(1 <= a <= t for a in gamma):
            raise NotAClique(f"planted selection {list(planted)} is not in [1..{t}]^k")
        dele: set[int] = set()
        for i, j in order:
            pair = (gamma[i - 1], gamma[j - 1])
            pairs = gadget_pairs[(i, j)]
            if pair not in pairs:
                raise NotAClique(
                    f"selected pair {pair} is not encoded on gadget ({i},{j})"
                )
            dele.add(gadget_at[(i, j)].selector(pairs.index(pair) + 1))
        for p, src, dst in props:
            kind, color = p.name[0], p.name[1]
            dele.add(p.selector(gamma[color - 1]))
        assert len(dele) == budget
        planted_set = frozenset(dele)

    inst = Instance(g, d, budget, "chordal", "component", td=td)
    meta = {
        "construction": "multicolored-clique" if si_pairs is None else "subgraph-iso",
        "k": k,
        "t": t,
        "d": d,
        "vertices": n,
        "budget": budget,
        "gadgets": len(order),
        "width_bound": 54 * k - 69 if si_pairs is None and k > 3 else td.width,
    }
    return GeneratedInstance(inst, planted_set, meta)


@dataclass(frozen=True)
class ColoredGraph:
    """A k-partite graph with equal class sizes and balanced pair densities.

    Color classes are 1..k, members 1..t; edges join (class, member)
    pairs across classes, with the same number of edges between every
    pair of classes and none inside a class.
    """

    k: int
    t: int
    edges: frozenset[tuple[tuple[int, int], tuple[int, int]]]

    def __post_init__(self) -> None:
        if self.k < 2 or self.t < 1:
            raise InvalidInput("need k >= 2 and t >= 1")
        counts: dict[tuple[int, int], int] = {}
        for (i, a), (j, b) in self.edges:
            if not (1 <= i < j <= self.k):
                raise InvalidInput(f"edge classes ({i},{j}) must satisfy 1 <= i < j <= k")
            if not (1 <= a <= self.t and 1 <= b <= self.t):
                raise InvalidInput(f"edge members ({a},{b}) outside [1..{self.t}]")
            counts[(i, j)] = counts.get((i, j), 0) + 1
        if len(set(counts.values())) > 1 or (
            counts and len(counts) != self.k * (self.k - 1) // 2
        ):
            raise InvalidInput("all class pairs must carry the same number of edges")

    @classmethod
    def from_pair_lists(
        cls,
        k: int,
        t: int,
        edges_by_pair: Mapping[tuple[int, int], Sequence[tuple[int, int]]],
    ) -> "ColoredGraph":
        edges = set()
        for (i, j), pairs in edges_by_pair.items():
            for a, b in pairs:
                edges.add(((i, a), (j, b)))
        return cls(k, t, frozenset(edges))

    def pair_lists(self) -> dict[tuple[int, int], list[tuple[int, int]]]:
        out: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for (i, a), (j, b) in sorted(self.edges):
            out.setdefault((i, j), []).append((a, b))
        return out


def gen_clique_instance(
    k: int,
    t: int,
    edges_by_pair: Mapping[tuple[int, int], Sequence[tuple[int, int]]],
    planted: Sequence[int] | None = None,
) -> GeneratedInstance:
    """Clique-variant entry point: the colored graph with classes 1..k of
    members 1..t and the edges ``edges_by_pair[(i, j)]`` between classes
    i < j, which ``ColoredGraph`` validates."""
    colored = ColoredGraph.from_pair_lists(k, t, edges_by_pair)
    return gen_unbounded_d(k, t, colored.pair_lists(), planted=planted)


def gen_subgraph_iso_instance(
    host_edges: Sequence[tuple[int, int]],
    host_size: int,
    pattern_edges: Sequence[tuple[int, int]],
    pattern_size: int,
    planted: Sequence[int] | None = None,
) -> GeneratedInstance:
    """Subgraph-isomorphism variant: one edge gadget per pattern edge.

    Host vertices are [1..t], pattern vertices [1..k]; each pattern edge
    (i, j) gets the gadget encoding every ordered host pair (a, b) with
    a-b a host edge.
    """
    k, t = pattern_size, host_size
    for ends, size, kind in ((pattern_edges, k, "pattern"), (host_edges, t, "host")):
        for a, b in ends:
            if a == b or not (1 <= a <= size and 1 <= b <= size):
                raise InvalidInput(
                    f"{kind} edge {a}-{b} needs two distinct ends in 1..{size}"
                )
    hset = {(min(a, b), max(a, b)) for a, b in host_edges}
    vals = sorted(
        {(a, b) for (x, y) in hset for (a, b) in ((x, y), (y, x))}
    )
    edge_values = {
        (min(i, j), max(i, j)): vals
        for i, j in pattern_edges
    }
    if planted is not None:
        for i, j in pattern_edges:
            a, b = planted[i - 1], planted[j - 1]
            if (min(a, b), max(a, b)) not in hset:
                raise NotAClique(
                    f"planted map misses host edge for pattern edge ({i},{j})"
                )
    return gen_unbounded_d(
        k,
        t,
        edge_values,
        planted=planted,
        si_pairs=[(min(i, j), max(i, j)) for i, j in pattern_edges],
    )
