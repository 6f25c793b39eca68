"""Shared table-driven dynamic program over a nice tree decomposition.

One engine solves both deletion problems.  The component variant is the
block variant with connected components where the block variant has
blocks, so ``mode`` matters only in ``_shape_view``, which picks the
units of shape-tracking: the non-trivial blocks of the bag graph, or all
of its components.  Every transition is written for blocks and covers
components unchanged; a vertex may lie in several blocks but in exactly
one component.  A table entry is keyed by

    (X, L, gh)

where X is the deleted bag subset, L the labeling of the rest by labels
0..d, and gh[j] the hypothesis of unit j of ``view(bag - X)``: a set of
candidate final patterns plus the labels of outside neighbors already
attached, held as the pair (pattern mask, h mask).  A kept vertex carries
label 0 exactly when it lies in no unit (below), a label 1..d otherwise.
The units depend only on the bag and X, so no key stores them.  The
value is the family of partitions of the bag components realized by some
partial solution, each mapped to the least set of vertices deleted below
the bag by a partial solution realizing it; a set larger than the
state's budget (below) is dropped.  After every node each family is held
to the representative-set bound of m * 2^(m-1) partitions over m bag
components: the rank-based reduction runs only on a family above that
bound.  It is given the family in ascending set size, so its greedy
basis keeps, for every complement, a member of least size (the weighted
reduction of Bodlaender, Cygan, Kratsch and Nederlof).  Bell(m) <=
m * 2^(m-1) for every m <= 5, so on bags of width at most 4 no family
can exceed it: ``reduce_table`` returns there without scanning.  The
root's one state ((), (), ()) then holds a least deletion set.

The budget of a state is k less a lower bound on the deletions it has
made in the bag or must still make above it.  In component mode
``build_engine`` packs, once per solve, disjoint connected vertex sets
that each induce an infeasible graph: more than d vertices, or a
non-member of the family (``pack_infeasible``; ``_infeasible`` asks the
oracle's ``verify_solution`` with nothing deleted, so a piece is judged
feasible in one place).  The families are closed under connected
induced subgraphs, so a solution missing such a set U would leave G[U]
inside one feasible component, which it cannot be: every solution hits
every packed set.  At a node whose subtree forgets the vertices F, a
solution extending a state holds its set w and its deleted bag set X,
and the rest of the bag is kept.  A packed set avoiding F and X can
then be hit only outside F and the bag, one further vertex each, so a
set w with |w| + |X| plus the number of such packed sets above k
completes to no solution (``Engine._budget``).  The engine keeps per
node the packed sets avoiding F and per vertex the bit of its packed set
(``packed_masks``).  The budget reads only the state key, so of two
equal-size sets for one partition both stay or both go, and a least
solution's path is never cut: decisions and minima equal those of the
unbudgeted walk.  The walk checks it only where X or F grows, once per
distinct X in a transition: at the leaf (both empty), on the deleted
branch of an introduce (the only place X grows) and at a join.  A forget
needs no check: where v is deleted it moves from X to w, which leaves
|w| + |X| and F with X as they were, and where v survives F only grows.
An introduce's surviving branch keeps X and F.  Block mode passes no
packing, so a budget there is k - |X|: on the block workloads a packing
cut states by 2% at most, for more time than it saved.

Throughout this module d is the size of the engine's label alphabet, not
the instance's bound.  A label only has to be distinct inside one final
block (or component), so ``build_engine`` sets it to the smaller of
the bound and p, for a family whose members have at most p vertices
(``PFamilySpec.labels``): ``k1k2`` runs on two labels at every bound.
The bound itself reaches the engine only through the pattern universe,
whose members have no more vertices than it allows, and through the
component-mode packing behind the budgets.

Only the checks of a unit read labels, so a vertex is labeled only while
it lies in a unit: it takes a label when it enters one (introduce) and
label 0 when it leaves the last (forget).  In component mode every
vertex lies in its component's unit, so no key holds a 0; in block mode
label 0 marks the vertices isolated in G[bag - X].  A label need not
follow a vertex from one final block into the next: the final blocks
meet in a block-cut forest, two of them share at most one vertex, and
the patterns ask only for a labeling of each block on its own.  So a
vertex u in no unit may take a fresh label when it enters a unit with a
newly introduced neighbour v, as long as the final block B through u
and v has no forgotten vertex next to u, which would have read u's old
label.  It has none.  Say f were one.  The child's bag separates f,
forgotten, from v, not yet introduced, and every (f, v)-separator of B
holds u, as f-u-v is a path of B.  B is chordal (the DP takes only
families of chordal members) and 2-connected, so a minimal such
separator inside the bag is a clique of two or more vertices, which
gives u a neighbour in G[bag - X] and so a unit.  The final blocks that
did meet forgotten vertices at u were checked while u lay in their
units, and no open unit reads u's label.

Hypothesis slots hold pattern *sets* rather than single patterns: a
state with slot S stands for the union of the single-pattern states over
S, which all carry the same family until some transition distinguishes
them.  A slot is an int bitset over the pattern universe, bit q standing
for ``Engine.patterns[q]``, so every operation on it is mask arithmetic
against two universe tables: ``has[i]``, the patterns holding label
i + 1, and ``edge[i][j]``, the patterns with the edge between labels
i + 1 and j + 1.  Transitions intersect and filter the slots, split them
when an outcome (a propagated neighbor-label set) differs between
candidates, and collapse them to singletons where two units become tied
to one final shape (several blocks or components sinking together).  All
checks are per-unit and independent of the stored partitions, which is
what makes the representative-set reduction valid.

States are canonicalized under permutations of the label alphabet 1..d
at every d; label 0 is fixed by all of them.  A permutation acts on L,
patterns and h masks but never on partitions, and the canonical (L, gh)
is its least image over all d! permutations.  That image renumbers the
nonzero labels of L by first appearance, so only the images that do so
compete.  They are the orbit of one of them under the permutations of
the u+1..d labels absent from L, for u distinct nonzero labels in L,
walked through the adjacent transpositions (j j+1), u < j < d:
|orbit| * (d - u - 1) slot relabels instead of (d - u)!.  Component-mode
slots are mostly symmetric in the absent labels, so their orbits are
small.  A slot relabels only the patterns it holds, each through its
integer code (label bits, then label-pair bits).

``Engine._orbit`` walks each (L, gh) once and keeps one record of it
in the universe's memo: the least image, every image in orbit order with
its h signature, and the tied absent labels.  The h signature of gh is
one int holding unit j's h mask at bits j*d and up, so two hypotheses
attach a common label to some unit exactly when their signatures AND to
a nonzero value.  ``canon`` reads the least image.  The join reads every
image: each side was canonized on its own, so a left and a right state
with equal (X, L) may agree only after the left one's absent labels are
renamed, and pairing the canonical keys directly loses states.  It
indexes each left state once under its (X, L), with its images; the
first is its stored gh.  A pairing whose signatures meet is rejected
before any per-unit work.  A right state whose orbit has one image is
fixed by every permutation sigma of its absent labels, so a left image
sigma(l) pairs with it into sigma of l's pairing, whose canonical key and
family are those of l's own: such a right state pairs with each left
state's first image alone.

Introduce reads the tied labels.  A stored L numbers its u nonzero
labels 1..u, so labels u+1..d are absent.  When the swap (j j+1) of two
absent labels fixes gh, it fixes the whole state, and label j+1 is tied.
A run of labels each tied to the one below is permuted freely by the
swaps, so of the labelings of v and the vertices entering a unit with it
(v first), introduce tries only those that use the run's labels in
increasing order of first appearance (restricted growth): one of each
orbit, all of whose members give the same canonical key and the same
family.  For v alone that skips every tied label.  Without
canonization the record is (L, gh), its one image and no tied label, so
introduce guesses every labeling.

Deletion sets carry no labels, so canonization leaves them alone.
Every transition builds whole families, each partition with the least
set produced for it (of equal sizes the first), and merges them, not
single items: introduce moves a child state's family once for all of its
targets, forget builds one family for its deleted branch and one for its
surviving branch, and a join builds the joints of a left and a right
state once for every key their images reach (``Engine._joints``), paying
for the union of two sets only where it wins.  ``Engine._merge`` then
adds a family to the state of a canonical key.  A new key stores the
family object itself.  On a stored key a partition's set is replaced
only by a strictly smaller one, so of equal sizes the first set stays;
the stored family is copied before the first real change, and a merge
that changes nothing copies nothing.  No stored family is ever changed
in place, so one family object may sit under several keys of one table
and in several tables.  The leaf's one key ((), (), ()) is its own
canonical form, and the join canonizes each target key once.  The keys
an introduce or a forget produces from a child state read only the
step, the child's (L, gh) and the universe, not the graph, k or the
partitions, so each is computed once and read from the universe after
(``Engine._targets``); introduce drops the partitions that close a
cycle first, and skips the targets when none is left.  Where v is
deleted the child's (L, gh) stays, and a stored key is canonical
already: forget merges it with no canon, and introduce, where that key
is new to the parent's table, passes the child's family on as it is.

The pattern universe depends on d, the family and the mode, never on the
graph.  A process therefore builds each universe once (``_universe``,
keyed by d and the pattern tuple) and keeps with it every memo that reads
nothing else: the pattern codes and slot masks, the label-permutation
actions, label-orbit records, ``linked`` masks, the
joins of partition pairs (one row per left partition), and, in one
memo, the introduce and forget targets of each (step, L, gh).  Every
engine on that universe shares them, so these memos only grow with the
distinct states met over the process.

The bag views and the introduce/forget steps do not depend on the graph
either, only on the shape of the bag graph.  ``keep = bag - X`` is a
sorted tuple of t vertices, and its shape is the int whose bit b says
whether the b-th position pair (i, j), i < j, in lexicographic order, is
an edge.  ``_shape_view`` gives the components, units and unit edges of
a shape in positions 0..t-1.  An introduce and a forget of v relate the
same two bag graphs, the one with v (big) and the one without (small),
so one table serves both: ``_step`` pairs the two views, introduce reads
it from small to big and forget from big to small, and each transition
writes every hypothesis straight into its slot of the parent's unit
order.  A step keeps one memo of moved partitions per direction.  Views
are keyed by (t, shape, mode) and steps by (t, shape, position of v,
mode), both of the big graph; both are cached per process, so every
engine with a bag of that shape shares one object, and ``Engine.view``
is only the image of a view in vertex ids.  An introduce or a forget
computes the shape of its whole bag (v included) once per node and
reads the step of each deleted set X from a third process cache
(``_bag_step``), keyed by that shape, the mask of X's bag positions and
v's position, which drops X's positions to reach the kept graph.  The
transitions index labels by position, so the parent's label tuple is
the label map.  Mapping positions back through the sorted keep is
monotone, so every order the transitions rely on (components by least
vertex, units by their sorted tuples) is the same in positions as in
vertex ids.  An engine keeps to itself only its mode, graph, k,
decomposition, per-vertex neighbour masks (which give a bag its shape),
packed-set masks and canonization switch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .decomposition import NiceTreeDecomposition
from .errors import InvalidInput
from .families import Pattern, PFamilySpec, _enumerate_patterns
from .graph import Graph, _bits, _check_range, _mask_of, biconnected_blocks, connected_components
from .oracle import verify_solution
from .partitions import Partition, inc_is_forest, uplus
from .repset import rep_partitions

StateKey = tuple[tuple[int, ...], tuple[int, ...], tuple]
GhEntry = tuple[int, int]  # (pattern mask, h mask)
Witness = frozenset[int]

def _permute_bits(bits: Sequence[int], code: int) -> int:
    """The union of bits[i] over the set bits i of code."""
    out = 0
    while code:
        low = code & -code
        out |= bits[low.bit_length() - 1]
        code ^= low
    return out


@dataclass
class SolveResult:
    decision: bool
    witness: frozenset[int] | None
    stats: dict
    # the least deletion size, at most k; None when the answer is NO
    minimum: int | None = None


@dataclass(frozen=True)
class _View:
    """A bag graph's components and units; gh[j] is the hypothesis of units[j]."""
    keep: tuple[int, ...]
    comps: tuple[tuple[int, ...], ...]
    units: tuple[tuple[int, ...], ...]
    unit_edges: tuple[tuple[tuple[int, int], ...], ...]


def _pairs(t: int) -> list[tuple[int, int]]:
    """The position pairs (i, j), i < j < t, in lexicographic order: bit b
    of a shape stands for the b-th of them."""
    return [(i, j) for i in range(t) for j in range(i + 1, t)]


def _shape_of(nbr: Sequence[int], keep: Sequence[int]) -> int:
    """The shape of the graph induced by keep, in the order given: bit b
    is set when the b-th position pair (``_pairs``) is an edge, where bit
    w of nbr[v] says that w is a neighbour of v."""
    shape = 0
    bit = 1
    for i, a in enumerate(keep):
        na = nbr[a]
        for b in keep[i + 1 :]:
            if na >> b & 1:
                shape |= bit
            bit <<= 1
    return shape


def _shape_edges(t: int, shape: int) -> list[tuple[int, int]]:
    """The edges of a t-vertex shape, in lexicographic order."""
    return [pair for b, pair in enumerate(_pairs(t)) if shape >> b & 1]


def _drop_position(t: int, shape: int, p: int) -> int:
    """The shape of a t-vertex shape's graph without position p, the
    positions past p moved down by one."""
    edges = {
        (i - (i > p), j - (j > p)) for i, j in _shape_edges(t, shape) if p != i and p != j
    }
    return sum(1 << b for b, pair in enumerate(_pairs(t - 1)) if pair in edges)


@cache
def _shape_view(t: int, shape: int, mode: str) -> _View:
    """Components and units of a t-vertex bag graph of this shape, in
    positions 0..t-1.

    The units are the non-trivial blocks in block mode and the
    components in component mode, in sorted order either way:
    ``biconnected_blocks`` returns its list of blocks sorted by their
    sorted tuples, and ``connected_components`` orders components by
    their smallest vertex.
    """
    edges = _shape_edges(t, shape)
    g = Graph(t, edges)
    comps = tuple(tuple(sorted(c)) for c in connected_components(g))
    if mode == "block":
        units = tuple(tuple(sorted(b)) for b in biconnected_blocks(g) if len(b) >= 2)
    else:
        units = comps
    unit_edges = tuple(
        tuple((a, b) for a, b in edges if a in unit and b in unit) for unit in units
    )
    return _View(tuple(range(t)), comps, units, unit_edges)


@dataclass(frozen=True, eq=False)
class _Step:
    """A t-vertex bag graph with position vpos (big) and without it (small).

    Introduce reads a step from small to big, forget from big to small.
    Every small unit lies in exactly one big unit.  A big unit avoiding v
    is a small unit, and ``carried`` pairs their (big, small) indices; a
    big unit through v holds zero or more small units, and ``vunits``
    holds each as (big index, unit, edges, small indices inside), in big
    positions.  Each transition writes a hypothesis straight into its
    slot of the parent's unit order.
    """
    vpos: int
    big_m: int
    small_m: int
    comp_map: tuple[int, ...]  # small component -> big component
    vcomp: int  # v's big component
    split: tuple[tuple[int, ...], ...]  # big component -> its small ones
    carried: tuple[tuple[int, int], ...]
    vunits: tuple[tuple[int, tuple[int, ...], tuple[tuple[int, int], ...], tuple[int, ...]], ...]
    small_units: tuple[tuple[int, ...], ...]  # in small positions
    # the big positions other than vpos in a unit through v and in no small
    # unit, which carry label 0 in the small graph only: in block mode the
    # neighbours of v isolated in the small graph, in component mode none
    fresh: tuple[int, ...]
    # moved partitions, one memo per direction: with equal component
    # counts one partition can key both, with different images
    intro_memo: dict = field(default_factory=dict)
    forget_memo: dict = field(default_factory=dict)


@cache
def _step(t: int, shape: int, vpos: int, mode: str) -> _Step:
    """The step between a t-vertex bag graph of this shape and its graph
    without position vpos, shared by every engine in the process."""
    big = _shape_view(t, shape, mode)
    small = _shape_view(t - 1, _drop_position(t, shape, vpos), mode)
    up = [i + (i >= vpos) for i in range(t - 1)]  # small -> big position
    comp_of = {p: ci for ci, c in enumerate(big.comps) for p in c}
    comp_map = tuple(comp_of[up[c[0]]] for c in small.comps)
    split = tuple(
        tuple(si for si, b in enumerate(comp_map) if b == bi) for bi in range(len(big.comps))
    )
    lifted = [tuple(up[i] for i in unit) for unit in small.units]
    small_index = {unit: si for si, unit in enumerate(lifted)}
    covered = {p for unit in lifted for p in unit}
    carried = []
    vunits = []
    for bi, (unit, edges) in enumerate(zip(big.units, big.unit_edges)):
        if vpos in unit:
            uset = set(unit)
            inside = tuple(si for si, su in enumerate(lifted) if uset.issuperset(su))
            vunits.append((bi, unit, edges, inside))
        else:
            carried.append((bi, small_index[unit]))
    fresh = {p for _, unit, _, _ in vunits for p in unit} - covered - {vpos}
    return _Step(
        vpos, len(big.comps), len(small.comps), comp_map, comp_of[vpos],
        split, tuple(carried), tuple(vunits), small.units, tuple(sorted(fresh)),
    )


@cache
def _bag_step(t: int, shape: int, xmask: int, vpos: int, mode: str) -> _Step:
    """The step of a t-vertex bag graph of this shape, less the positions
    in xmask (the deleted bag vertices X), for v at bag position vpos.

    A transition computes its bag's shape once and reads the step of
    each X here: dropping X's positions, highest first, gives the shape
    of the kept graph, and v moves down by the positions of X below it.
    Shared by every engine in the process, like ``_step``, whose object
    it returns.
    """
    for p in reversed(_bits(xmask)):
        shape = _drop_position(t, shape, p)
        t -= 1
    return _step(t, shape, vpos - (xmask & ((1 << vpos) - 1)).bit_count(), mode)


@cache
def _fresh_labelings(d: int, count: int, tied: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The labelings of count fresh vertices of an introduce, v's label
    first, one of each orbit under the permutations that fix the child
    state, in lexicographic order.

    Label l is tied when the swap of l - 1 and l fixes the child state
    (``_orbit``), so the swaps permute a run of labels each tied to the
    one below freely.  A labeling takes a tied label l only after an
    earlier fresh vertex took l - 1: it takes each run's labels in
    increasing order of first appearance (restricted growth), and so
    holds one labeling of each orbit.  A fresh vertex shares a unit with
    v, so none but v takes v's label.
    """
    out: list[tuple[int, ...]] = [(l,) for l in range(1, d + 1) if l not in tied]
    for _ in range(count - 1):
        out = [
            ls + (l,)
            for ls in out
            for l in range(1, d + 1)
            if l != ls[0] and (l not in tied or l - 1 in ls)
        ]
    return tuple(out)


def _move_family(
    move: Callable[[_Step, Partition], Partition | None], step: _Step, fam: dict
) -> dict[Partition, Witness]:
    """A family's partitions moved through a step, each with its least
    deletion set: two partitions may move to one, and of equal sizes the
    first set stays.  A partition that move sends to None is dropped."""
    moved: dict[Partition, Witness] = {}
    for p, w in fam.items():
        q = move(step, p)
        if q is not None:
            cur = moved.get(q)
            if cur is None or len(w) < len(cur):
                moved[q] = w
    return moved


@cache
def _infeasible(t: int, shape: int, d: int, family: PFamilySpec) -> bool:
    """Does a t-vertex graph of this shape have a component that no
    solution keeps: one of more than d vertices, or one the family
    rejects?"""
    return not verify_solution(Graph(t, _shape_edges(t, shape)), (), d, family, "component")


def pack_infeasible(
    g: Graph, ntd: NiceTreeDecomposition, d: int, family: PFamilySpec
) -> tuple[int, ...]:
    """Vertex-disjoint connected sets, as vertex masks, that each induce
    a graph of more than d vertices or outside the family.  For a family
    closed under connected induced subgraphs every component-mode
    solution hits each of them.

    Greedy.  The vertices are visited by their forget nodes in postorder,
    the last forgotten first, and from each one not yet packed a set
    grows among the unpacked vertices, one neighbour at a time: one that
    makes the set infeasible if any does, else the one forgotten last.
    The set is packed as soon as it is infeasible, at d + 1 vertices at
    the latest; a set that runs out of neighbours first is dropped.  Sets
    of vertices forgotten late avoid the forgotten vertices of most
    nodes, where they tighten the budget (``Engine._budget``).

    The sets are worked on in forget ranks (the last forgotten vertex has
    rank 0), so the latest forgotten vertex of a mask is its lowest bit.
    """
    order = [ntd.acted[node] for node in reversed(ntd.postorder()) if ntd.kinds[node] == "forget"]
    rank = [0] * g.n
    for r, v in enumerate(order):
        rank[v] = r
    nbr = [sum(1 << rank[w] for w in g.neighbors(v)) for v in order]
    unpacked = (1 << len(order)) - 1
    packing = []
    for r in range(len(order)):
        if not unpacked >> r & 1:
            continue
        members = [r]
        mask = 1 << r
        frontier = nbr[r] & unpacked
        # one vertex is a member of every family
        bad = False
        while not bad and frontier:
            pick = frontier & -frontier
            if len(members) < d:
                rest = frontier
                while rest:
                    low = rest & -rest
                    grown = members + [low.bit_length() - 1]
                    if _infeasible(len(grown), _shape_of(nbr, grown), d, family):
                        pick = low
                        bad = True
                        break
                    rest ^= low
            else:
                # d + 1 connected vertices form no feasible component
                bad = True
            members.append(pick.bit_length() - 1)
            mask |= pick
            frontier = (frontier | nbr[members[-1]]) & unpacked & ~mask
        if bad:
            unpacked &= ~mask
            packing.append(sum(1 << order[i] for i in members))
    return tuple(packing)


def packed_masks(
    ntd: NiceTreeDecomposition, n: int, packing: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per node, the mask of the packed sets that avoid every vertex
    forgotten below it; per vertex, the bit of its packed set (0 if none).

    Bit i stands for ``packing[i]``.  ``Engine._budget`` reads both.
    """
    set_bit = [0] * n
    for i, u in enumerate(packing):
        for v in _bits(u):
            set_bit[v] = 1 << i
    if not packing:
        return (0,) * ntd.num_nodes, tuple(set_bit)
    every = (1 << len(packing)) - 1
    # bit i of hit[node] is set when packed set i holds a vertex forgotten
    # below the node
    hit = [0] * ntd.num_nodes
    for node in ntd.postorder():
        h = 0
        for child in ntd.children[node]:
            h |= hit[child]
        if ntd.kinds[node] == "forget":
            h |= set_bit[ntd.acted[node]]
        hit[node] = h
    return tuple(every & ~h for h in hit), tuple(set_bit)


class _Universe:
    """A pattern universe with its graph-independent tables and memos.

    Everything here reads only d and the patterns, so every engine on the
    same (d, patterns) shares one instance (``_universe``).  The memos
    grow with the distinct keys looked up over all of those engines.
    """

    def __init__(self, d: int, patterns: tuple[Pattern, ...]):
        self.patterns = patterns
        # integer codes: bit l-1 for label l, bit d + j for the j-th label
        # pair (a, b), a < b, in lexicographic order
        self.pair_bit = {
            pair: d + j
            for j, pair in enumerate(
                (a, b) for a in range(1, d + 1) for b in range(a + 1, d + 1)
            )
        }
        # slot masks over the universe, indexed like h masks (position l - 1
        # for label l): has[i] holds the patterns with label i + 1 and
        # edge[i][j] those with the edge between labels i + 1 and j + 1
        has: list[list[int]] = [[] for _ in range(d)]
        edge: list[list[list[int]]] = [[[] for _ in range(d)] for _ in range(d)]
        codes = []
        for q, p in enumerate(patterns):
            code = 0
            for l in p.labels:
                has[l - 1].append(q)
                code |= 1 << (l - 1)
            for a, b in p.edges:
                edge[a - 1][b - 1].append(q)
                edge[b - 1][a - 1].append(q)
                code |= 1 << self.pair_bit[(a, b)]
            codes.append(code)
        size = len(patterns)
        self.full = (1 << size) - 1
        self.has = [_mask_of(qs, size) for qs in has]
        self.edge = [[_mask_of(qs, size) for qs in row] for row in edge]
        self.codes = tuple(codes)
        self.code_index = {code: q for q, code in enumerate(codes)}

        # label permutations sigma (sigma[l - 1] is the image of label l):
        # the adjacent transpositions (j j+1), and the bit map of each sigma
        # on pattern codes with its action on hypothesis slots, built on
        # first use
        self.swaps = [
            tuple(range(1, j)) + (j + 1, j) + tuple(range(j + 2, d + 1))
            for j in range(1, d)
        ]
        self.action_of: dict[tuple[int, ...], tuple[list[int], dict, dict]] = {}
        self.canon_memo: dict[tuple, tuple] = {}
        self.linked_memo: dict[tuple[int, int], int] = {}
        # p1 -> p2 -> uplus(p1, p2), or False when their joint has a cycle;
        # read by identity, as the partition of no components is falsy
        self.join_memo: dict[Partition, dict[Partition, Partition | bool]] = {}
        # (step, L, gh) -> the canonical (L, gh) targets of a child state
        # under introduce or forget.  For one step an introduce's child L
        # has one label fewer than a forget's, so the two never share a
        # key.  Kept here, not on the step, because every universe shares
        # the steps
        self.target_memo: dict[tuple, tuple] = {}


@cache
def _universe(d: int, patterns: tuple[Pattern, ...]) -> _Universe:
    """The one universe of (d, patterns) in this process."""
    return _Universe(d, patterns)


class Engine:
    def __init__(
        self,
        mode: str,
        g: Graph,
        d: int,
        k: int,
        patterns: Sequence[Pattern],
        ntd: NiceTreeDecomposition,
        packing: Sequence[int] = (),
    ):
        if mode not in ("block", "component"):
            raise InvalidInput(f"bad mode {mode!r}")
        self.mode = mode  # read only by _shape_view
        self.g = g
        self.d = d
        self.k = k
        self.ntd = ntd
        # plain assignments: copying a __dict__ in would stop CPython from
        # specializing the attribute loads of the hot paths
        u = _universe(d, tuple(patterns))
        self.patterns = u.patterns
        self._pair_bit = u.pair_bit
        self.full = u.full
        self.has = u.has
        self.edge = u.edge
        self._codes = u.codes
        self._code_index = u.code_index
        self._swaps = u.swaps
        self._action_of = u.action_of
        self._canon_memo = u.canon_memo
        self._linked_memo = u.linked_memo
        self._join_memo = u.join_memo
        self._target_memo = u.target_memo

        # the graph's own neighbour masks (``Graph.masks``): bit w of
        # _nbr[v] is set when w is a neighbour of v
        self._nbr = g.masks
        # per node, the packed sets that avoid the vertices forgotten below
        # it, and per vertex, the bit of its packed set: with k they give
        # each (node, X) its budget (``_budget``)
        self._avoid, self._set_bit = packed_masks(ntd, g.n, packing)

        # reference path: tests switch canonization off to compare against
        self.canonize = True

    # ------------------------------------------------------------------
    # small helpers

    def _shape(self, keep: tuple[int, ...]) -> int:
        """The shape of the graph induced by the sorted keep."""
        return _shape_of(self._nbr, keep)

    def view(self, keep: Iterable[int]) -> _View:
        """Components and units of the graph induced by the set keep, in
        vertex ids: the image of its shape's view through the sorted keep.
        An id outside 0..n-1 raises InvalidInput."""
        key = tuple(sorted(set(keep)))
        _check_range(self.g, key)
        sv = _shape_view(len(key), self._shape(key), self.mode)
        return _View(
            key,
            tuple(tuple(key[p] for p in c) for c in sv.comps),
            tuple(tuple(key[p] for p in unit) for unit in sv.units),
            tuple(tuple((key[a], key[b]) for a, b in es) for es in sv.unit_edges),
        )

    def compat_set(
        self,
        unit: tuple[int, ...],
        edges: Sequence[tuple[int, int]],
        lab: Mapping[int, int] | Sequence[int],
    ) -> int:
        """Mask of the patterns hosting the unit's labeled shape (0 if none).

        lab maps each vertex of the unit to its label; the transitions pass
        the parent's label tuple, indexed by bag position.
        """
        labs = sorted(lab[u] for u in unit)
        if len(set(labs)) != len(labs):
            return 0
        mapped = {(min(lab[a], lab[b]), max(lab[a], lab[b])) for a, b in edges}
        got = self.full
        for j, a in enumerate(labs):
            got &= self.has[a - 1]
            row = self.edge[a - 1]
            for b in labs[j + 1 :]:
                got &= row[b - 1] if (a, b) in mapped else ~row[b - 1]
        return got

    def _budget(self, avoid: int, xk: tuple[int, ...]) -> int:
        """The most vertices a state with deleted bag set xk may delete
        below the bag, at a node whose packed sets avoiding the forgotten
        vertices F are avoid: k less |X| less the packed sets that avoid X
        too, each of which a solution must hit outside F and the bag.
        Without a packing (block mode) it is k - |X|.
        """
        budget = self.k - len(xk)
        if avoid:
            set_bit = self._set_bit
            for u in xk:
                avoid &= ~set_bit[u]
            budget -= avoid.bit_count()
        return budget

    def linked(self, amask: int, bmask: int) -> int:
        """Mask of the patterns with an edge between a label in amask and
        a label in bmask."""
        key = (amask, bmask)
        got = self._linked_memo.get(key)
        if got is None:
            got = 0
            for i in _bits(amask):
                row = self.edge[i]
                for j in _bits(bmask):
                    got |= row[j]
            self._linked_memo[key] = got
        return got

    # ------------------------------------------------------------------
    # canonization

    def _sigma_action(self, sigma: tuple[int, ...]) -> tuple[list[int], dict, dict]:
        """Where sigma sends each bit of a pattern code or h mask, with its
        memos on pattern indices and on hypothesis slots."""
        got = self._action_of.get(sigma)
        if got is None:
            bits = [1 << (s - 1) for s in sigma]
            for a, b in self._pair_bit:
                sa, sb = sigma[a - 1], sigma[b - 1]
                bits.append(1 << self._pair_bit[(sa, sb) if sa < sb else (sb, sa)])
            got = self._action_of[sigma] = (bits, {}, {})
        return got

    def _sigma_gh(self, sigma: tuple[int, ...], gh: tuple[GhEntry, ...]) -> tuple[GhEntry, ...]:
        """Hypotheses under sigma; each slot relabels only the patterns it holds."""
        bits, pat_memo, slot_memo = self._sigma_action(sigma)
        out = []
        for entry in gh:
            got = slot_memo.get(entry)
            if got is None:
                image = []
                for q in _bits(entry[0]):
                    r = pat_memo.get(q)
                    if r is None:
                        r = pat_memo[q] = self._code_index[_permute_bits(bits, self._codes[q])]
                    image.append(r)
                got = (_mask_of(image, len(self.patterns)), _permute_bits(bits, entry[1]))
                slot_memo[entry] = got
            out.append(got)
        return tuple(out)

    def _signature(self, gh: tuple[GhEntry, ...]) -> int:
        """The h signature of gh: unit j's h mask at bits j*d and up.

        Two hypotheses attach a common label to some unit exactly when
        their signatures share a bit."""
        d = self.d
        sig = shift = 0
        for _, hm in gh:
            sig |= hm << shift
            shift += d
        return sig

    def _orbit(
        self, lkey: tuple[int, ...], gh: tuple[GhEntry, ...]
    ) -> tuple[tuple, dict[tuple, int], tuple[int, ...]]:
        """The record of the label orbit of (L, gh): (least image, images,
        tied labels).

        Label 0, of the positions in no unit, is fixed by every
        permutation.  The renumbering sigma0 sends the u distinct nonzero
        labels of L to 1..u by first appearance and the absent labels, in
        increasing order, to u+1..d.  The images are the orbit of
        sigma0(gh) under the permutations of u+1..d, walked through their
        generators (j j+1), u < j < d; label j + 1 is tied when (j j+1)
        fixes sigma0(gh).  They map each (L, gh) image, in orbit order, to
        the h signature of its gh (``_signature``).  Without canonization
        the record is built afresh and not stored, as the memo is shared
        with canonizing engines.
        """
        if not self.canonize:
            pair = (lkey, gh)
            return pair, {pair: self._signature(gh)}, ()
        memo_key = (lkey, gh)
        got = self._canon_memo.get(memo_key)
        if got is not None:
            return got
        image = {0: 0}
        for l in lkey:
            if l not in image:
                image[l] = len(image)
        u = len(image) - 1
        absent = [l for l in range(1, self.d + 1) if l not in image]
        image.update(zip(absent, range(u + 1, self.d + 1)))
        sigma0 = tuple(image[l] for l in range(1, self.d + 1))
        lc = tuple(image[l] for l in lkey)
        # lc == lkey when L is renumbered already, as in every stored
        # state; sigma0 is then the identity
        first = gh if lc == lkey else self._sigma_gh(sigma0, gh)
        orbit = [first]
        seen = {first}
        tied = []
        for gh2 in orbit:
            # swap t exchanges labels lv - 1 and lv
            for lv, t in enumerate(self._swaps[u:], u + 2):
                gh3 = self._sigma_gh(t, gh2)
                if gh3 not in seen:
                    seen.add(gh3)
                    orbit.append(gh3)
                elif gh2 is first and gh3 == first:
                    tied.append(lv)
        images = {(lc, gh2): self._signature(gh2) for gh2 in orbit}
        got = self._canon_memo[memo_key] = (min(images), images, tuple(tied))
        return got

    def canon(
        self, lkey: tuple[int, ...], gh: tuple[GhEntry, ...]
    ) -> tuple[tuple[int, ...], tuple[GhEntry, ...]]:
        """Canonical (L, gh): the least image under label permutations."""
        return self._orbit(lkey, gh)[0]

    # ------------------------------------------------------------------
    # table plumbing

    def _merge(self, table: dict, key: StateKey, fam: dict[Partition, Witness]) -> None:
        """Merge a family into the state of a canonical key.

        fam maps each partition to one deletion set, the least of those
        the transition produced for it (of equal sizes the first).  A new
        key stores fam itself, unless it is empty: no empty family is
        stored.  On a stored key a partition's set is replaced only by a
        strictly smaller one, so of equal sizes the first stays; the
        stored family is copied before the first such change, and a merge
        that changes nothing copies nothing.  No stored family is ever
        changed in place, so one family object may sit under several keys
        and in several tables.
        """
        if not fam:
            return
        old = table.setdefault(key, fam)
        if old is fam:
            return
        new = None
        for part, wit in fam.items():
            cur = old.get(part)
            if cur is not None and len(cur) <= len(wit):
                continue
            if new is None:
                new = table[key] = old.copy()
            new[part] = wit

    def reduce_table(self, table: dict) -> None:
        # every key covers the one bag; on at most 5 bag vertices there are
        # m <= 5 components, and no family can exceed Bell(m) <= m * 2^(m-1)
        key = next(iter(table), None)
        if key is None or len(key[0]) + len(key[1]) <= 5:
            return
        for key, fam in table.items():
            if len(fam) <= 1:
                continue
            m = next(iter(fam)).m
            # a family within the representative-set bound already meets it
            if len(fam) <= m << (m - 1):
                continue
            # ascending set size, stable: the greedy basis keeps for every
            # complement a member of least size
            kept = rep_partitions(m, sorted(fam, key=lambda p: len(fam[p])))
            if len(kept) != len(fam):
                table[key] = {p: fam[p] for p in kept}

    # ------------------------------------------------------------------
    # main loop

    def walk(self) -> Iterator[tuple[int, dict]]:
        """Build the reduced table of every node in postorder.

        Yields (node, table) as each table is finished.  A child's table
        is dropped once its parent's is built, so only the tables of the
        open subtrees are held unless the caller keeps them.
        """
        ntd = self.ntd
        avoid = self._avoid
        tables: dict[int, dict] = {}
        for node in ntd.postorder():
            kind = ntd.kinds[node]
            bag = ntd.bags[node]
            # a forget leaves |w| + |X| and F with X as they were where v
            # is deleted, and only grows F where v survives: it needs no
            # budget check
            if kind == "leaf":
                table = self._leaf_table(avoid[node])
            elif kind == "introduce":
                (child,) = ntd.children[node]
                table = self._introduce(bag, ntd.acted[node], tables.pop(child), avoid[node])
            elif kind == "forget":
                (child,) = ntd.children[node]
                table = self._forget(bag, ntd.acted[node], tables.pop(child))
            elif kind == "join":
                c1, c2 = ntd.children[node]
                table = self._join(bag, tables.pop(c1), tables.pop(c2), avoid[node])
            else:  # pragma: no cover
                raise AssertionError(kind)
            self.reduce_table(table)
            tables[node] = table
            yield node, table

    def run(self) -> SolveResult:
        states = retained = 0
        table: dict = {}
        for _, table in self.walk():
            states += len(table)
            retained += sum(map(len, table.values()))
        # the last table walked is the root's; its one state holds the
        # one partition of no bag components
        stats = {"states": states, "retained": retained}
        fam = table.get(((), (), ()))
        if not fam:
            return SolveResult(False, None, stats)
        (wit,) = fam.values()
        return SolveResult(True, wit, stats, len(wit))

    # ------------------------------------------------------------------
    # leaf

    def _leaf_table(self, avoid: int) -> dict:
        """The empty partial solution, unless the packed sets alone need
        more than k deletions: then no state survives, and the walk
        decides NO at the leaf."""
        if self._budget(avoid, ()) < 0:
            return {}
        # ((), ()) is its own canonical (L, gh)
        return {((), (), ()): {Partition(()): frozenset()}}

    # ------------------------------------------------------------------
    # introduce and forget

    def _introduce(self, bag: tuple[int, ...], v: int, child: dict, avoid: int) -> dict:
        table: dict = {}
        t = len(bag)
        shape = self._shape(bag)
        vpos = bag.index(v)
        # per child X: the step, X + v and the budget of X + v
        steps: dict[tuple[int, ...], tuple[_Step, tuple[int, ...], int]] = {}
        for (xk, lk, gh), fam in child.items():
            got = steps.get(xk)
            if got is None:
                xmask = sum(1 << bag.index(u) for u in xk)
                xv = tuple(sorted(xk + (v,)))
                got = steps[xk] = (
                    _bag_step(t, shape, xmask, vpos, self.mode), xv, self._budget(avoid, xv)
                )
            step, xv, budget = got
            # v joins the deleted set: nothing else changes, and the
            # stored (L, gh) is canonical already.  The key is new here (no
            # surviving-branch key holds v in X), so the family passes on
            # as it is, less the sets over the budget of X + v; no merge
            # targets it later
            kept = fam
            for w in fam.values():
                if len(w) > budget:
                    kept = {p: w for p, w in fam.items() if len(w) <= budget}
                    break
            if kept:
                table[(xv, lk, gh)] = kept
            # v survives with some label; the family moves the same way
            # whatever the label, and X and F stay as they were, so one
            # moved family serves every target
            moved = _move_family(self._intro_partition, step, fam)
            if moved:
                for target in self._targets(self._introduce_targets, step, lk, gh):
                    self._merge(table, (xk,) + target, moved)
        return table

    def _targets(self, compute: Callable, step: _Step, lk: tuple, gh: tuple) -> tuple:
        """The canonical (L, gh) targets of a child state under one step,
        by compute: ``_introduce_targets`` or ``_forget_targets``.

        They read only the step, the child's (L, gh) and the universe, so
        each universe keeps them, for both directions, in one memo.
        Without canonization they are computed afresh and not stored, as
        the memo is shared with canonizing engines.
        """
        if not self.canonize:
            return compute(step, lk, gh)
        key = (step, lk, gh)
        memo = self._target_memo
        got = memo.get(key)
        if got is None:
            got = memo[key] = compute(step, lk, gh)
        return got

    def _intro_partition(self, step: _Step, part: Partition) -> Partition | None:
        """Push a child partition through the introduce; None when v
        closes a cycle.  The step's memo keeps both outcomes."""
        memo = step.intro_memo
        try:
            return memo[part]
        except KeyError:
            pass
        comp_map = step.comp_map
        vcomp = step.vcomp
        new_parts: list[set[int]] = []
        merged: set[int] = {vcomp}
        for p in part:
            hits = sum(1 for o in p if comp_map[o] == vcomp)
            if hits > 1:
                # v touches two components already linked below: a cycle
                memo[part] = None
                return None
            images = {comp_map[o] for o in p}
            if hits == 1:
                merged |= images
            else:
                new_parts.append(images)
        new_parts.append(merged)
        res = Partition.from_parts(step.big_m, new_parts)
        memo[part] = res
        return res

    def _introduce_targets(self, step: _Step, lk: tuple[int, ...], gh: tuple) -> tuple:
        """The canonical (L, gh) of each labeling of v, surviving, and the
        vertices entering a unit with it, up to the symmetry of the child
        state, in labeling order and each once.

        A vertex in no unit carries label 0.  Where v lands in no unit it
        takes 0, nothing else changes, and there is one target.  Otherwise
        v and the fresh vertices of the step, which had label 0 and enter
        a unit through v, are labeled, v first (``_fresh_labelings``).  A
        unit through v keeps the candidate patterns common to the child
        units it absorbs and inherits their attached labels.  Its labels
        must be distinct and none of them attached already; its patterns
        must host its labeled shape and keep v apart from the attached
        labels.  A fresh vertex (block mode only) is a neighbour of v
        alone in the bag graph, so its unit is the edge to v and absorbs no
        child unit.

        An absent label whose swap with the label below it fixes gh is
        tied (``_orbit``), and the labelings take the tied labels of each
        run in increasing order of first appearance only.  A permutation
        of the run fixes L and gh, the checks above and
        ``compat_set``/``linked`` commute with it, and the moved family
        does not depend on the labels, so a labeling and its image put the
        same partitions under the same canonical key.  A repeated target
        is dropped: merging the same family into the same state again
        changes nothing.
        """
        vpos = step.vpos
        # the parent's unit order: carried slots are filled once, and each
        # labeling overwrites the slots of the units through v
        slots = [None] * (len(step.carried) + len(step.vunits))
        for bi, si in step.carried:
            slots[bi] = gh[si]
        lkey = lk[:vpos] + (0,) + lk[vpos:]
        if not step.vunits:
            return (self.canon(lkey, tuple(slots)),)
        inherited = []
        for bi, unit, edges, inside in step.vunits:
            hm = 0
            allowed = self.full
            for si in inside:
                pats, shm = gh[si]
                hm |= shm
                allowed &= pats
            inherited.append((bi, unit, edges, hm, allowed))
        fresh = (vpos,) + step.fresh
        labeled = list(lkey)
        targets = []
        for labels in _fresh_labelings(self.d, len(fresh), self._orbit(lk, gh)[2]):
            for p, l in zip(fresh, labels):
                labeled[p] = l
            # units hold parent positions, so the parent's labels index them
            lkey_p = tuple(labeled)
            lv = labels[0]
            for bi, unit, edges, hm, allowed in inherited:
                unit_mask = 0
                for u in unit:
                    unit_mask |= 1 << (lkey_p[u] - 1)
                if unit_mask.bit_count() < len(unit) or hm & unit_mask:
                    break
                pats = self.compat_set(unit, edges, lkey_p) & allowed
                if hm:
                    pats &= ~self.linked(1 << (lv - 1), hm)
                if not pats:
                    break
                slots[bi] = (pats, hm)
            else:
                targets.append(self.canon(lkey_p, tuple(slots)))
        return tuple(dict.fromkeys(targets))

    def _forget(self, bag: tuple[int, ...], v: int, child: dict) -> dict:
        table: dict = {}
        big = tuple(sorted(bag + (v,)))
        t = len(big)
        shape = self._shape(big)
        vpos = big.index(v)
        steps: dict[tuple[int, ...], _Step] = {}
        for (xk, lk, gh), fam in child.items():
            if v in xk:
                # v is deleted below the parent: it moves from X to the
                # set, within the same budget; the stored (L, gh) is
                # canonical already
                moved = {p: w | {v} for p, w in fam.items()}
                self._merge(table, (tuple(u for u in xk if u != v), lk, gh), moved)
                continue
            step = steps.get(xk)
            if step is None:
                xmask = sum(1 << big.index(u) for u in xk)
                step = steps[xk] = _bag_step(t, shape, xmask, vpos, self.mode)
            moved = _move_family(self._forget_partition, step, fam)
            for target in self._targets(self._forget_targets, step, lk, gh):
                self._merge(table, (xk,) + target, moved)
        return table

    def _forget_partition(self, step: _Step, part: Partition) -> Partition:
        memo = step.forget_memo
        got = memo.get(part)
        if got is not None:
            return got
        split = step.split
        new_parts = []
        for p in part:
            np: list[int] = []
            for o in p:
                np.extend(split[o])
            if np:
                new_parts.append(np)
        res = Partition.from_parts(step.small_m, new_parts)
        memo[part] = res
        return res

    def _forget_targets(self, step: _Step, lk: tuple[int, ...], gh: tuple) -> tuple:
        """The canonical (L, gh) of each hypothesis branch for v's units,
        in branch order and each once.

        The branches are the product of the options of each unit through
        v, the first unit's varying slowest.  The order matters: of two
        equal-size sets for one partition, the first merged stays.  A
        repeated target is dropped: merging the same family into the same
        state again changes nothing.  The fresh vertices of the step lie
        in no unit once v is gone, and their labels are set to 0: no
        check reads them again.
        """
        vpos = step.vpos
        lv = lk[vpos]
        # units hold parent positions, so the parent's labels index them
        lkey_p = lk[:vpos] + lk[vpos + 1 :]
        if step.fresh:
            labeled = list(lkey_p)
            for p in step.fresh:
                labeled[p - (p > vpos)] = 0
            lkey_p = tuple(labeled)
        units = step.small_units
        slots = [None] * len(units)
        for bi, si in step.carried:
            slots[si] = gh[bi]
        pieces = []
        options = []
        for bi, _, _, inside in step.vunits:
            if inside:
                pats, hm = gh[bi]
                pieces.append(inside)
                options.append(
                    self._sink_unit_branches(pats, hm, lv, [units[si] for si in inside], lkey_p)
                )
        targets = []
        for branch in product(*options):
            for inside, entries in zip(pieces, branch):
                for si, entry in zip(inside, entries):
                    slots[si] = entry
            targets.append(self.canon(lkey_p, tuple(slots)))
        return tuple(dict.fromkeys(targets))

    def _sink_unit_branches(
        self,
        cands: int,
        hm: int,
        lv: int,
        pieces: Sequence[tuple[int, ...]],
        labs: Mapping[int, int] | Sequence[int],
    ) -> list[list[GhEntry]]:
        """Hypothesis branches for a unit losing v to the region below.

        Every remaining piece inherits the sunk unit's pattern and learns
        that a vertex labeled lv sits next to it, together with whichever
        previously attached labels its pattern keeps adjacent.  With one
        piece, candidate patterns inducing the same attached-label set
        can stay pooled; several pieces are tied to one final shape, so
        the pool must split into single-pattern branches.  Each branch
        holds one (pattern mask, h mask) entry per piece, in piece order.
        """
        lvbit = 1 << (lv - 1)
        # per piece: attached-label mask -> the candidates inducing it
        grouped = []
        for piece in pieces:
            amask = 0
            for u in piece:
                amask |= 1 << (labs[u] - 1)
            groups = {lvbit: cands}
            for j in _bits(hm & ~amask & ~lvbit):
                near = self.linked(amask, 1 << j)
                split = {}
                for hv, qs in groups.items():
                    inside, outside = qs & near, qs & ~near
                    if inside:
                        split[hv | 1 << j] = inside
                    if outside:
                        split[hv] = outside
                groups = split
            grouped.append(groups)
        if len(pieces) == 1:
            return [[(qs, hv)] for hv, qs in sorted(grouped[0].items())]
        hv_of = [{q: hv for hv, qs in groups.items() for q in _bits(qs)} for groups in grouped]
        return [[(1 << q, hvs[q]) for hvs in hv_of] for q in _bits(cands)]

    # ------------------------------------------------------------------
    # join

    def _join(self, bag: tuple[int, ...], left: dict, right: dict, avoid: int) -> dict:
        """Pair every right state with each image of each left state of
        its (X, L), combining their hypotheses unit by unit.

        A unit's pattern sets intersect, less the patterns linking a label
        attached on one side to one attached on the other, and its h masks
        must be disjoint: one AND of the two h signatures tests the last
        for every unit at once.  A right state whose orbit has one image
        is fixed by every permutation sigma of its absent labels, so a
        left image sigma(l) pairs with it into sigma of l's pairing: the
        same canonical key with the same family, a no-op merge.  Such a
        right state therefore pairs with each left state's first image
        alone, its stored gh.  The joints are held to the budget of the
        right state's X at this node, where F is the union of the
        children's.
        """
        table: dict = {}
        index = self._join_index(left)
        linked = self.linked
        budgets: dict[tuple[int, ...], int] = {}
        for (rxk, rlk, rgh), rfam in right.items():
            lefts = index.get((rxk, rlk))
            if lefts is None:
                continue
            budget = budgets.get(rxk)
            if budget is None:
                budget = budgets[rxk] = self._budget(avoid, rxk)
            rimages = self._orbit(rlk, rgh)[1]
            rsig = rimages[rlk, rgh]
            symmetric = len(rimages) == 1
            for lfam, limages in lefts:
                # the joints of one pair of states are the same family
                # under each key its images reach, so they are built once
                joints = None
                for (_, lgh), lsig in limages:
                    if not lsig & rsig:
                        entries = []
                        for (p1, h1), (p2, h2) in zip(lgh, rgh):
                            common = p1 & p2
                            if h1 and h2:
                                common &= ~linked(h1, h2)
                            if not common:
                                break
                            entries.append((common, h1 | h2))
                        else:
                            if joints is None:
                                joints = self._joints(lfam, rfam, budget)
                            if joints:
                                key = (rxk,) + self.canon(rlk, tuple(entries))
                                self._merge(table, key, joints)
                    if symmetric:
                        break
        return table

    def _join_index(self, left: dict) -> dict[tuple, list]:
        """Left states by (X, L), each once as its family and the items of
        its orbit record's images, ((L, gh), h signature) in orbit order:
        the first gh is the stored one."""
        index: dict[tuple, list[tuple[dict, Iterable]]] = {}
        for (xk, lk, gh), fam in left.items():
            index.setdefault((xk, lk), []).append((fam, self._orbit(lk, gh)[1].items()))
        return index

    def _joints(self, lfam: dict, rfam: dict, budget: int) -> dict[Partition, Witness]:
        """The acyclic joints of two families within the budget, as one
        family: each joint with the least union of two deletion sets that
        reach it, of equal sizes the first.

        The sets come from different subtrees below the bag, so they are
        disjoint and the union's size is the sum of theirs: a joint's
        union is built only when its size wins.
        """
        memo = self._join_memo
        joints: dict[Partition, Witness] = {}
        for p1, w1 in lfam.items():
            n1 = len(w1)
            row = memo.get(p1)
            if row is None:
                row = memo[p1] = {}
            for p2, w2 in rfam.items():
                size = n1 + len(w2)
                if size > budget:
                    continue
                joint = row.get(p2)
                if joint is None:
                    joint = row[p2] = (
                        uplus(p1, p2) if inc_is_forest(p1.m, (p1, p2)) else False
                    )
                if joint is not False:
                    cur = joints.get(joint)
                    if cur is None or size < len(cur):
                        joints[joint] = w1 | w2
        return joints


def clear_caches() -> None:
    """Drop every per-process memo: the pattern universes with their
    memos, the bag views, the steps, the fresh labelings and the
    infeasibility verdicts.

    A long-running caller can call it between solves to bound memory;
    the next solve rebuilds what it needs.
    """
    _enumerate_patterns.cache_clear()
    _universe.cache_clear()
    _shape_view.cache_clear()
    _step.cache_clear()
    _bag_step.cache_clear()
    _fresh_labelings.cache_clear()
    _infeasible.cache_clear()
