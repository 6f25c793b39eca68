"""Tree decompositions: validation, nice form, and small-scale construction."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvalidInput, TooLarge
from .graph import Graph, _bits, connected_components, parse_ints

# the most vertices ``exact_td_small`` takes
EXACT_TD_CAP = 14


@dataclass(frozen=True)
class TreeDecomposition:
    """A tree over decomposition nodes plus one bag per node."""

    bags: tuple[frozenset[int], ...]
    tree_edges: tuple[tuple[int, int], ...]

    @property
    def num_nodes(self) -> int:
        return len(self.bags)

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1

    def neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for a, b in self.tree_edges:
            adj[a].append(b)
            adj[b].append(a)
        for lst in adj:
            lst.sort()
        return adj


@dataclass(frozen=True)
class Violation:
    condition: str
    detail: str


def validate_td(g: Graph, td: TreeDecomposition) -> Violation | None:
    """Return None when valid, else a report naming the first broken condition."""
    nn = td.num_nodes
    if nn == 0:
        return Violation("shape", "decomposition has no nodes")
    for a, b in td.tree_edges:
        if not (0 <= a < nn and 0 <= b < nn):
            return Violation("shape", f"tree edge ({a},{b}) out of range")
    # the decomposition tree must be a tree
    if len(td.tree_edges) != nn - 1:
        return Violation("shape", "decomposition graph is not a tree (edge count)")
    adj = td.neighbors()
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != nn:
        return Violation("shape", "decomposition graph is not connected")

    # occ[v]: the nodes whose bags hold v
    occ: list[set[int]] = [set() for _ in range(g.n)]
    for t, bag in enumerate(td.bags):
        for v in bag:
            if not (0 <= v < g.n):
                return Violation("cover", f"bag vertex {v} outside the graph")
            occ[v].add(t)
    missing = [v for v in range(g.n) if not occ[v]]
    if missing:
        return Violation("cover", f"vertices {missing} appear in no bag")

    for u, v in sorted(g.edges()):
        if occ[u].isdisjoint(occ[v]):
            return Violation("edge", f"edge ({u},{v}) is in no bag")

    # In a tree, v's occurrence nodes induce a forest, which is connected
    # exactly when it has one edge fewer than it has nodes.
    inner = [0] * g.n
    for a, b in td.tree_edges:
        for v in td.bags[a] & td.bags[b]:
            inner[v] += 1
    for v in range(g.n):
        if inner[v] != len(occ[v]) - 1:
            return Violation(
                "connectivity", f"occurrence nodes of vertex {v} are disconnected"
            )
    return None


@dataclass(frozen=True)
class NiceTreeDecomposition:
    """Rooted decomposition with leaf/introduce/forget/join nodes only.

    Node 0..N-1 with per-node kind, acted vertex (introduce/forget),
    bag, and children; the root bag is empty.
    """

    kinds: tuple[str, ...]
    acted: tuple[int | None, ...]
    bags: tuple[tuple[int, ...], ...]
    children: tuple[tuple[int, ...], ...]
    root: int

    @property
    def num_nodes(self) -> int:
        return len(self.kinds)

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=1) - 1

    def postorder(self) -> list[int]:
        # a preorder that takes the children last to first, reversed: each
        # subtree's nodes stay together, children left to right before
        # their parent
        order: list[int] = []
        stack = [self.root]
        children = self.children
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(children[node])
        order.reverse()
        return order

    def to_tree_decomposition(self) -> TreeDecomposition:
        edges = []
        for u in range(self.num_nodes):
            for c in self.children[u]:
                edges.append((min(u, c), max(u, c)))
        return TreeDecomposition(
            tuple(frozenset(b) for b in self.bags), tuple(sorted(edges))
        )


class _NiceBuilder:
    def __init__(self) -> None:
        self.kinds: list[str] = []
        self.acted: list[int | None] = []
        self.bags: list[tuple[int, ...]] = []
        self.children: list[tuple[int, ...]] = []

    def add(
        self,
        kind: str,
        bag: Iterable[int],
        children: Sequence[int] = (),
        acted: int | None = None,
    ) -> int:
        self.kinds.append(kind)
        self.acted.append(acted)
        self.bags.append(tuple(sorted(bag)))
        self.children.append(tuple(children))
        return len(self.kinds) - 1

    def chain_to(self, node: int, have: set[int], want: set[int]) -> int:
        """Forget then introduce, one vertex at a time, from have to want."""
        cur = set(have)
        for v in sorted(have - want):
            cur.remove(v)
            node = self.add("forget", cur, (node,), acted=v)
        for v in sorted(want - have):
            cur.add(v)
            node = self.add("introduce", cur, (node,), acted=v)
        return node

    def fresh_leaf_chain(self, want: set[int]) -> int:
        node = self.add("leaf", ())
        return self.chain_to(node, set(), want)


def to_nice(td: TreeDecomposition, g: Graph) -> NiceTreeDecomposition:
    """Convert a valid decomposition to nice form with an empty root bag.

    Width is preserved; join nodes are created by binarizing children
    left-to-right in child-id order, and every original bag appears as
    the bag of its representative node.  Only the input is validated:
    the output is nice by construction.  Every node is reached once from
    the root, a leaf has an empty bag, an introduce or forget node adds
    or drops its acted vertex from its child's bag, and a join node has
    two children with its own bag.  ``assert_nice`` in
    ``tests/test_decomposition.py`` pins this on heuristic and hand-built
    decompositions.
    """
    bad = validate_td(g, td)
    if bad is not None:
        raise InvalidInput(f"invalid tree decomposition: {bad.condition}: {bad.detail}")

    b = _NiceBuilder()
    adj = td.neighbors()
    root = 0

    # Iterative post-order over the rooted decomposition tree.
    order: list[tuple[int, int | None]] = []
    stack: list[tuple[int, int | None]] = [(root, None)]
    while stack:
        node, parent = stack.pop()
        order.append((node, parent))
        for c in adj[node]:
            if c != parent:
                stack.append((c, node))
    rep: dict[int, int] = {}
    for node, parent in reversed(order):
        bag = set(td.bags[node])
        kids = [c for c in adj[node] if c != parent]
        if not kids:
            rep[node] = b.fresh_leaf_chain(bag)
            continue
        tops = [b.chain_to(rep[c], set(td.bags[c]), bag) for c in sorted(kids)]
        cur = tops[0]
        for nxt in tops[1:]:
            cur = b.add("join", bag, (cur, nxt))
        rep[node] = cur

    top = b.chain_to(rep[root], set(td.bags[root]), set())
    return NiceTreeDecomposition(
        tuple(b.kinds),
        tuple(b.acted),
        tuple(b.bags),
        tuple(b.children),
        root=top,
    )


def _bags_from_elimination(g: Graph, order: Sequence[int]) -> TreeDecomposition:
    """Standard fill-in bag construction along an elimination ordering.

    Node i holds the i-th eliminated vertex and its later neighbours, and
    its parent is the earliest of them.  The first nodes of the trees, one
    per component of g, are chained in elimination order."""
    n = g.n
    if n == 0:
        return TreeDecomposition((frozenset(),), ())
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    # neighbour masks over elimination positions, filled in as we go
    adj = [sum(1 << pos[w] for w in _bits(g.masks[v])) for v in order]
    bags: list[frozenset[int]] = []
    edges: list[tuple[int, int]] = []
    for i, v in enumerate(order):
        # neighbours eliminated after v; the bits at or below i, which the
        # fill-in below sets too, are never read again
        later = adj[i] >> i + 1 << i + 1
        ps = _bits(later)
        bags.append(frozenset([v] + [order[p] for p in ps]))
        if ps:
            edges.append((i, ps[0]))
        for p in ps:
            adj[p] |= later
    firsts = sorted(min(pos[v] for v in comp) for comp in connected_components(g))
    edges += zip(firsts, firsts[1:])
    return TreeDecomposition(tuple(bags), tuple(sorted(edges)))


def heuristic_td(g: Graph) -> TreeDecomposition:
    """Min-fill elimination ordering; ties broken by lowest vertex id."""
    # closed neighbourhoods in the graph filled in so far
    adj = [m | 1 << v for v, m in enumerate(g.masks)]
    remaining = (1 << g.n) - 1
    order: list[int] = []
    while remaining:
        best = None
        # walked by the lowest bit, not listed: on a sparse graph the scan
        # mostly stops at its first vertex
        rest = remaining
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            nb = adj[v] & remaining
            # twice the fill-in: a missing edge is counted from both ends
            fill = sum((nb & ~adj[w]).bit_count() for w in _bits(nb))
            if best is None or fill < best[0]:
                best = (fill, v, nb)
                if not fill:
                    break
        _, v, nb = best
        for w in _bits(nb):
            adj[w] |= nb
        remaining ^= 1 << v
        order.append(v)
    return _bags_from_elimination(g, order)


def exact_td_small(g: Graph) -> TreeDecomposition:
    """Minimum-width decomposition by DP over elimination orderings.

    Memoizes, for every vertex subset S, the best max-elimination-degree
    achievable when S is eliminated first.  Exponential in n; guarded
    by ``EXACT_TD_CAP``.
    """
    n = g.n
    if n > EXACT_TD_CAP:
        raise TooLarge(f"exact treewidth capped at {EXACT_TD_CAP} vertices, got {n}")

    full = (1 << n) - 1
    nbr_mask = g.masks

    def elim_degree(before: int, v: int) -> int:
        # vertices outside `before`+v reachable from v through `before`
        seen = 1 << v
        stack = [v]
        out = 0
        while stack:
            u = stack.pop()
            m = nbr_mask[u] & ~seen
            seen |= m
            while m:
                low = m & (-m)
                w = low.bit_length() - 1
                m ^= low
                if before >> w & 1:
                    stack.append(w)
                else:
                    out |= low
        return bin(out).count("1")

    best: dict[int, int] = {0: -1}
    choice: dict[int, int] = {}

    def solve(s: int) -> int:
        got = best.get(s)
        if got is not None:
            return got
        res = None
        pick = -1
        m = s
        while m:
            low = m & (-m)
            v = low.bit_length() - 1
            m ^= low
            sub = solve(s ^ low)
            deg = elim_degree(s ^ low, v)
            val = max(sub, deg)
            if res is None or val < res:
                res = val
                pick = v
        best[s] = res if res is not None else -1
        choice[s] = pick
        return best[s]

    solve(full)

    order: list[int] = []
    s = full
    while s:
        v = choice[s]
        order.append(v)
        s ^= 1 << v
    order.reverse()  # choices were recovered from the last prefix inward
    return _bags_from_elimination(g, order)


def read_td(text: str, n: int) -> TreeDecomposition:
    """Parse a PACE-style ``.td`` file (1-based bags and node ids) for a
    graph of n vertices.

    A line whose first token is exactly ``s`` is the solution line, one
    whose first token is exactly ``b`` a bag; every other line is a tree
    edge."""
    # (bag id, members, line) and (a, b, line) with the file's 1-based ids,
    # range-checked once the header is known
    bags: list[tuple[int, list[int], str]] = []
    edges: list[tuple[int, int, str]] = []
    headers: list[tuple[int, ...]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "s":
            if len(fields) != 5 or fields[1] != "td":
                raise InvalidInput(f"bad solution line: {line!r}")
            headers.append(tuple(parse_ints(fields[2:], line)))
            continue
        if fields[0] == "b":
            if len(fields) < 2:
                raise InvalidInput(f"bad bag line: {line!r}")
            bid, *members = parse_ints(fields[1:], line)
            if len(set(members)) != len(members):
                raise InvalidInput(f"bag {bid} repeats a vertex: {line!r}")
            bags.append((bid, members, line))
            continue
        if len(fields) != 2:
            raise InvalidInput(f"bad edge line: {line!r}")
        a, b = parse_ints(fields, line)
        edges.append((a, b, line))
    if not headers:
        raise InvalidInput("missing 's td' line")
    if len(headers) > 1:
        raise InvalidInput("more than one 's td' line")
    nbags, max_bag, nverts = headers[0]
    if nverts != n:
        raise InvalidInput(f"solution line says the graph has {nverts} vertices, not {n}")
    by_id: dict[int, frozenset[int]] = {}
    for bid, members, line in bags:
        if bid in by_id:
            raise InvalidInput(f"bag id {bid} appears more than once")
        if not all(1 <= x <= n for x in members):
            raise InvalidInput(f"bag line {line!r} names a vertex outside 1..{n}")
        by_id[bid] = frozenset(x - 1 for x in members)
    # checked without building 1..#bags, which the header may make huge
    if len(by_id) != nbags or not all(1 <= bid <= nbags for bid in by_id):
        raise InvalidInput("bag ids must be 1..#bags")
    for a, b, line in edges:
        if not (1 <= a <= nbags and 1 <= b <= nbags):
            raise InvalidInput(f"tree edge {line!r} names a bag outside 1..{nbags}")
    td = TreeDecomposition(
        tuple(by_id[i] for i in range(1, nbags + 1)),
        tuple((min(a, b) - 1, max(a, b) - 1) for a, b, _ in edges),
    )
    if max_bag != td.width + 1:
        raise InvalidInput(
            f"solution line says the largest bag has {max_bag} vertices, not {td.width + 1}"
        )
    return td


def write_td(td: TreeDecomposition, n: int) -> str:
    lines = [f"s td {td.num_nodes} {td.width + 1} {n}"]
    for i, bag in enumerate(td.bags):
        lines.append("b " + " ".join([str(i + 1)] + [str(v + 1) for v in sorted(bag)]))
    for a, b in sorted(td.tree_edges):
        lines.append(f"{a + 1} {b + 1}")
    return "\n".join(lines) + "\n"
