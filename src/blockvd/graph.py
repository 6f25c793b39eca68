"""Core graph representation and structural primitives.

Undirected simple graphs over dense vertex ids 0..n-1.  A graph keeps
one neighbour mask per vertex (``Graph.masks``, built on first read),
the adjacency that the components and blocks here, the pattern
enumeration, the elimination orderings and the engine's bag shapes all
read.  Most operations take an optional ``within`` vertex set and then
act on the induced subgraph without re-indexing, so callers can keep
host-graph ids throughout.  Only what a solve, the oracle or the file
formats read lives here; the boundaried graphs of the paper's gluing
lemmas, and the tests that only they read, are in ``characteristics``.
"""
from __future__ import annotations

from itertools import compress
from typing import Collection, Iterable, Sequence

from .errors import InvalidInput

_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


class Graph:
    """Immutable undirected simple graph with sorted adjacency lists and
    neighbour masks: bit w of ``masks[v]`` is set when vw is an edge."""

    __slots__ = ("n", "_adj", "_edges", "_masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise InvalidInput("vertex count must be non-negative")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidInput(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InvalidInput(f"self-loop at {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self._adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(s)) for s in adj)
        self._edges = frozenset(
            (u, v) for u in range(n) for v in self._adj[u] if u < v
        )
        self._masks: tuple[int, ...] | None = None

    @property
    def masks(self) -> tuple[int, ...]:
        """The neighbour masks, built on first read: a mask spans the
        vertex ids, so all of them take space quadratic in n, which a
        routine that never reads them (``validate_td``) should not pay."""
        if self._masks is None:
            self._masks = tuple(sum(1 << w for w in nb) for nb in self._adj)
        return self._masks

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    @property
    def m(self) -> int:
        return len(self._edges)

    def edges(self) -> frozenset[tuple[int, int]]:
        return self._edges

    def vertices(self) -> range:
        return range(self.n)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._edges == other._edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _check_range(g: Graph, verts: Collection[int]) -> None:
    """Raise InvalidInput unless every id in verts is a vertex of g.

    A negative id would otherwise index the adjacency from its end and
    silently stand for another vertex."""
    if verts and not (0 <= min(verts) and max(verts) < g.n):
        bad = sorted({v for v in verts if not 0 <= v < g.n})
        raise InvalidInput(f"vertices {bad} are outside 0..{g.n - 1}")


def induced_masks(g: Graph, verts: Sequence[int]) -> list[int]:
    """Neighbor masks of the subgraph induced by verts: bit j of entry i
    says that verts[i] and verts[j] are adjacent.  An id outside 0..n-1
    or a repeated one raises InvalidInput."""
    _check_range(g, verts)
    pos = {v: i for i, v in enumerate(verts)}
    if len(pos) != len(verts):
        repeated = next(v for i, v in enumerate(verts) if pos[v] != i)
        raise InvalidInput(f"vertex {repeated} is repeated")
    return [sum(1 << pos[w] for w in g.neighbors(v) if w in pos) for v in verts]


def _bits(mask: int) -> list[int]:
    """The set bits of mask in increasing order.

    Clearing the lowest bit copies the whole int, so walking the bits
    that way costs their number times the length of mask, while reading
    its binary digits, lowest first, costs a few passes over the length
    alone.  A mask with at most 8 set bits is walked: a vertex's
    neighbourhood in a long sparse graph then costs a handful of copies,
    not a pass over every vertex id.  Any other mask is read through its
    digits.
    """
    if mask.bit_count() <= 8:
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out
    digits = bin(mask)[:1:-1].encode().translate(_DIGIT_VALUES)
    return list(compress(range(len(digits)), digits))


def _mask_of(bits: Iterable[int], size: int) -> int:
    """The mask with the given bits set, all below size."""
    buf = bytearray((size + 7) >> 3)
    for q in bits:
        buf[q >> 3] |= 1 << (q & 7)
    return int.from_bytes(buf, "little")


def _vertex_mask(g: Graph, within: Iterable[int] | None) -> int:
    """The mask of the vertex set within (all of g by default)."""
    if within is None:
        return (1 << g.n) - 1
    verts = tuple(within)
    _check_range(g, verts)
    return _mask_of(verts, g.n)


def _component(masks: Sequence[int], alive: int) -> int:
    """The component of alive's lowest vertex in the subgraph induced by
    the vertex mask alive.  Each frontier is walked by its lowest bit,
    which beats ``_bits`` on the tiny graphs of the pattern enumeration."""
    seen = frontier = alive & -alive
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & alive & ~seen
        seen |= frontier
    return seen


def connected_components(
    g: Graph, within: Iterable[int] | None = None
) -> list[frozenset[int]]:
    """Connected components of the subgraph induced by within (all of g
    by default) as vertex sets, sorted by minimum element."""
    alive = _vertex_mask(g, within)
    comps: list[frozenset[int]] = []
    while alive:
        comp = _component(g.masks, alive)
        comps.append(frozenset(_bits(comp)))
        alive ^= comp
    return comps


def biconnected_blocks(
    g: Graph, within: Iterable[int] | None = None
) -> list[frozenset[int]]:
    """Blocks of the subgraph induced by within (all of g by default),
    by iterative low-point DFS; isolated vertices are K1 blocks.

    Blocks are returned sorted by their sorted vertex tuples, so the
    output is independent of traversal order.
    """
    alive = _vertex_mask(g, within)
    masks = g.masks
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    blocks: list[frozenset[int]] = []
    for root in _bits(alive):
        if root in disc:
            continue
        if not masks[root] & alive:
            blocks.append(frozenset((root,)))
            continue
        disc[root] = low[root] = len(disc)
        # the vertices found but not yet put in a block, in DFS order
        found = [root]
        # each frame is (vertex, its DFS parent, its neighbours left to scan)
        frames = [(root, -1, iter(_bits(masks[root] & alive)))]
        while frames:
            u, parent, it = frames[-1]
            for w in it:
                if w in disc:
                    # the parent counts too: the block test below only
                    # asks whether low[u] fell below disc[parent]
                    low[u] = min(low[u], disc[w])
                else:
                    disc[w] = low[w] = len(disc)
                    found.append(w)
                    frames.append((w, u, iter(_bits(masks[w] & alive))))
                    break
            else:
                frames.pop()
                if parent < 0:
                    continue
                low[parent] = min(low[parent], low[u])
                if low[u] >= disc[parent]:
                    # parent separates the subtree at u: one block is the
                    # parent and that subtree's vertices still unplaced
                    block = {parent}
                    while u not in block:
                        block.add(found.pop())
                    blocks.append(frozenset(block))
    blocks.sort(key=lambda b: tuple(sorted(b)))
    return blocks


def chordal_masks(adj: Sequence[int]) -> bool:
    """Chordality of the graph whose vertex i has neighbor mask adj[i].

    Strip simplicial vertices; the graph is chordal iff none is left.
    Vertex v is simplicial when every neighbor u sees all the others,
    i.e. nb & ~adj[u] is u's own bit.  Stripping one keeps chordality
    either way, and a chordless cycle's vertices are never simplicial.
    """
    alive = (1 << len(adj)) - 1
    stripped = True
    while alive and stripped:
        stripped = False
        for v, a in enumerate(adj):
            if not alive >> v & 1:
                continue
            nb = rest = a & alive
            while rest:
                low = rest & -rest
                if nb & ~adj[low.bit_length() - 1] != low:
                    break
                rest ^= low
            else:
                alive ^= 1 << v
                stripped = True
    return not alive


def parse_ints(fields: Sequence[str], line: str) -> list[int]:
    """The fields of one input line as integers, else InvalidInput."""
    try:
        return [int(f) for f in fields]
    except ValueError:
        raise InvalidInput(f"non-integer field in line: {line!r}") from None


def read_gr(text: str) -> Graph:
    """Parse a PACE-style ``.gr`` file (1-based vertices, ``c`` comments).

    A line whose first token is exactly ``p`` is the problem line; every
    other line is an edge."""
    n = None
    m_expected = None
    # (u, v, line) with the file's 1-based ids, range-checked once n is known
    edges: list[tuple[int, int, str]] = []
    seen: set[tuple[int, int]] = set()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise InvalidInput(f"second problem line: {line!r}")
            if len(fields) != 4 or fields[1] != "tw":
                raise InvalidInput(f"bad problem line: {line!r}")
            n, m_expected = parse_ints(fields[2:], line)
            continue
        if len(fields) != 2:
            raise InvalidInput(f"bad edge line: {line!r}")
        u, v = parse_ints(fields, line)
        if u == v:
            raise InvalidInput(f"self-loop: {line!r}")
        edge = (min(u, v), max(u, v))
        if edge in seen:
            raise InvalidInput(f"repeated edge: {line!r}")
        seen.add(edge)
        edges.append((u, v, line))
    if n is None:
        raise InvalidInput("missing 'p tw n m' line")
    for u, v, line in edges:
        if not (1 <= u <= n and 1 <= v <= n):
            raise InvalidInput(f"edge {line!r} names a vertex outside 1..{n}")
    if m_expected != len(edges):
        raise InvalidInput(
            f"edge count mismatch: header says {m_expected}, found {len(edges)}"
        )
    return Graph(n, [(u - 1, v - 1) for u, v, _ in edges])


def write_gr(g: Graph) -> str:
    lines = [f"p tw {g.n} {g.m}"]
    for u, v in sorted(g.edges()):
        lines.append(f"{u + 1} {v + 1}")
    return "\n".join(lines) + "\n"
