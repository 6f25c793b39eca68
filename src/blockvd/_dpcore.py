"""Shared table-driven dynamic program over a nice tree decomposition.

One engine solves both deletion problems.  The component variant is the
block variant with connected components where the block variant has
blocks, so ``mode`` matters only in ``Engine.view``, which picks the
units of shape-tracking: the non-trivial blocks of the bag graph, or all
of its components.  Every transition is written for blocks and covers
components unchanged; a vertex may lie in several blocks but in exactly
one component.  A table entry is keyed by

    (X, L, i, gh)

where X is the deleted bag subset, L the labeling of the rest, i the
number of vertices already deleted below the bag, and gh one hypothesis
per unit: a set of candidate final patterns plus the labels of outside
neighbors already attached.  The value is the family of partitions of
the bag components realized by some partial solution.  After every node
each family is held to the representative-set bound of m * 2^(m-1)
partitions over m bag components: the rank-based reduction runs only on
a family above that bound.  Bell(m) <= m * 2^(m-1) for every m <= 5, so
on bags of width at most 4 no family can exceed it and the reduction
never runs.

Hypothesis slots hold pattern *sets* rather than single patterns: a
state with slot S stands for the union of the single-pattern states over
S, which all carry the same family until some transition distinguishes
them.  Transitions intersect and filter the sets, split them when an
outcome (a propagated neighbor-label set) differs between candidates,
and collapse them to singletons where two units become tied to one
final shape (several blocks or components sinking together).  All
checks are per-unit and independent of the stored partitions, which is
what makes the representative-set reduction valid.

States are canonicalized under permutations of the label alphabet at
every d.  A permutation acts on L, patterns and h masks but never on
partitions, and the canonical (L, gh) is its least image over all d!
permutations.  That image renumbers L by first appearance, so only the
images that do so compete.  They are the orbit of one of them under the
permutations of the u+1..d labels absent from L, for u distinct labels
in L, and ``_images`` walks that orbit through the adjacent
transpositions (j j+1), u < j < d: |orbit| * (d - u - 1) slot relabels
instead of (d - u)!.  Component-mode slots are mostly symmetric in the
absent labels, so their orbits are small.  A slot relabels only the
patterns it holds, each through its integer code (label bits, then
label-pair bits).  The join still needs every image, not just the
least: each side was canonized on its own, so a left and a right state
with equal (X, L) may agree only after the left one's absent labels are
renamed.  The join therefore indexes each left state under every image
with its own L; pairing the canonical keys directly loses states.

A family maps each partition to its witness: the set of vertices deleted
below the bag by one partial solution realizing it, or None when
witnesses are off.  Witnesses carry no labels, so canonization leaves
them alone.  Every transition adds its produced states through
``Engine.emit``, which canonizes the target key once per state and keeps
the first witness of each partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .decomposition import NiceTreeDecomposition
from .families import Pattern
from .graph import Graph, biconnected_blocks, connected_components
from .partitions import Partition, inc_is_forest, uplus
from .repset import rep_partitions

StateKey = tuple[tuple[int, ...], tuple[int, ...], int, tuple]
GhEntry = tuple[tuple[int, ...], int, int]  # (unit vertices, pattern-set id, h mask)
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
    tables: list[dict] | None = None


@dataclass(frozen=True)
class _View:
    keep: tuple[int, ...]
    comps: tuple[tuple[int, ...], ...]
    comp_of: dict[int, int] = field(hash=False, compare=False)
    units: tuple[tuple[int, ...], ...] = ()
    unit_edges: tuple[tuple[tuple[int, int], ...], ...] = ()


class Engine:
    def __init__(
        self,
        mode: str,
        g: Graph,
        d: int,
        k: int,
        patterns: Sequence[Pattern],
        ntd: NiceTreeDecomposition,
        witness: bool = False,
    ):
        self.mode = mode  # "block" or "component"; read only by view
        self.g = g
        self.d = d
        self.k = k
        self.ntd = ntd
        self.track_witness = witness
        self.patterns = tuple(patterns)

        # per-pattern adjacency masks: bit l-1 stands for label l
        self.pat_adj: list[dict[int, int]] = []
        # integer codes: bit l-1 for label l, bit d + j for the j-th label
        # pair (a, b), a < b, in lexicographic order
        self._pair_bit = {
            pair: d + j
            for j, pair in enumerate(
                (a, b) for a in range(1, d + 1) for b in range(a + 1, d + 1)
            )
        }
        codes = []
        for p in self.patterns:
            adj = {l: 0 for l in p.labels}
            code = 0
            for l in p.labels:
                code |= 1 << (l - 1)
            for a, b in p.edges:
                adj[a] |= 1 << (b - 1)
                adj[b] |= 1 << (a - 1)
                code |= 1 << self._pair_bit[(a, b)]
            self.pat_adj.append(adj)
            codes.append(code)
        self._codes = tuple(codes)
        self._code_index = {code: q for q, code in enumerate(codes)}

        # interned pattern sets (hypothesis slots)
        self._sets: list[frozenset[int]] = []
        self._set_ids: dict[frozenset[int], int] = {}

        # reference path: tests switch canonization off to compare against
        self.canonize = True
        # label permutations sigma (sigma[l - 1] is the image of label l):
        # the adjacent transpositions (j j+1), the first-appearance
        # renumbering of each order of labels, the bit map of each sigma on
        # pattern codes and its action on hypothesis slots, built on first use
        self._swaps = [
            tuple(range(1, j)) + (j + 1, j) + tuple(range(j + 2, d + 1))
            for j in range(1, d)
        ]
        self._sigma0_of: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._action_of: dict[tuple[int, ...], tuple[list[int], dict, dict]] = {}
        self._canon_memo: dict[tuple, tuple] = {}
        self._compat_memo: dict[tuple, int] = {}
        self._view_memo: dict[tuple[int, ...], _View] = {}
        self._adjset_memo: dict[tuple[int, int], int] = {}
        # (p1, p2) -> uplus(p1, p2), or False when their joint has a cycle
        self._join_memo: dict[tuple[Partition, Partition], Partition | bool] = {}
        self.stats = {"states": 0, "retained": 0, "nodes": ntd.num_nodes}

    # ------------------------------------------------------------------
    # pattern-set interning

    def intern(self, pats: Iterable[int]) -> int:
        fs = frozenset(pats)
        got = self._set_ids.get(fs)
        if got is not None:
            return got
        sid = len(self._sets)
        self._sets.append(fs)
        self._set_ids[fs] = sid
        return sid

    def set_of(self, sid: int) -> frozenset[int]:
        return self._sets[sid]

    # ------------------------------------------------------------------
    # small helpers

    def view(self, keep: Iterable[int]) -> _View:
        """Components and units of the graph induced by keep.

        The units are the non-trivial blocks in block mode and the
        components in component mode.
        """
        key = tuple(sorted(keep))
        got = self._view_memo.get(key)
        if got is not None:
            return got
        comps = tuple(tuple(sorted(c)) for c in connected_components(self.g, key))
        comp_of: dict[int, int] = {}
        for ci, c in enumerate(comps):
            for v in c:
                comp_of[v] = ci
        if self.mode == "block":
            units = tuple(
                tuple(sorted(b))
                for b in biconnected_blocks(self.g, key).blocks
                if len(b) >= 2
            )
        elif self.mode == "component":
            units = comps
        else:
            raise ValueError(f"bad mode {self.mode!r}")
        unit_edges = tuple(
            tuple(
                (u, w)
                for u in unit
                for w in self.g.neighbors(u)
                if u < w and w in unit
            )
            for unit in units
        )
        view = _View(key, comps, comp_of, units, unit_edges)
        self._view_memo[key] = view
        return view

    def compat_set(
        self,
        unit: tuple[int, ...],
        edges: Sequence[tuple[int, int]],
        lab: Mapping[int, int],
    ) -> int | None:
        """Interned set of patterns hosting the unit's labeled shape, or None."""
        labs = tuple(lab[u] for u in unit)
        if len(set(labs)) != len(labs):
            return None
        mapped = frozenset((min(lab[a], lab[b]), max(lab[a], lab[b])) for a, b in edges)
        key = (frozenset(labs), mapped)
        got = self._compat_memo.get(key)
        if got is not None:
            return got if got >= 0 else None
        labset = set(labs)
        out = [
            pi
            for pi, p in enumerate(self.patterns)
            if labset <= p.labels and p.induced(labset) == mapped
        ]
        if not out:
            self._compat_memo[key] = -1
            return None
        sid = self.intern(out)
        self._compat_memo[key] = sid
        return sid

    def adj_union(self, q: int, mask: int) -> int:
        """Union of pattern neighborhoods over the labels in the mask."""
        got = self._adjset_memo.get((q, mask))
        if got is not None:
            return got
        out = 0
        m = mask
        adj = self.pat_adj[q]
        while m:
            low = m & (-m)
            out |= adj.get(low.bit_length(), 0)
            m ^= low
        self._adjset_memo[(q, mask)] = out
        return out

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
        for unit, sid, hm in gh:
            got = slot_memo.get((sid, hm))
            if got is None:
                pats = []
                for q in self._sets[sid]:
                    r = pat_memo.get(q)
                    if r is None:
                        r = pat_memo[q] = self._code_index[_permute_bits(bits, self._codes[q])]
                    pats.append(r)
                got = slot_memo[(sid, hm)] = (self.intern(pats), _permute_bits(bits, hm))
            out.append((unit, *got))
        return tuple(out)

    def _images(self, lkey: tuple[int, ...], gh: tuple[GhEntry, ...]) -> list[tuple]:
        """Distinct images of (L, gh) that renumber L by first appearance.

        The renumbering sigma0 sends the u distinct labels of L to 1..u by
        first appearance and the absent labels, in increasing order, to
        u+1..d.  The other permutations giving such an image differ from
        sigma0 by a permutation of u+1..d, so the images are the orbit of
        sigma0(gh) under that group, walked through its generators (j j+1)
        for u < j < d.  Without canonization the only image is (L, gh).
        """
        if not self.canonize:
            return [(lkey, gh)]
        order = tuple(dict.fromkeys(lkey))
        sigma0 = self._sigma0_of.get(order)
        if sigma0 is None:
            image = {l: new for new, l in enumerate(order, 1)}
            absent = [l for l in range(1, self.d + 1) if l not in image]
            image.update(zip(absent, range(len(order) + 1, self.d + 1)))
            sigma0 = self._sigma0_of[order] = tuple(image[l] for l in range(1, self.d + 1))
        lc = tuple(sigma0[l - 1] for l in lkey)
        swaps = self._swaps[len(order) :]
        # lc == lkey when L is renumbered already, as in every stored
        # state; sigma0 is then the identity
        orbit = [gh if lc == lkey else self._sigma_gh(sigma0, gh)]
        seen = set(orbit)
        for gh2 in orbit:
            for t in swaps:
                gh3 = self._sigma_gh(t, gh2)
                if gh3 not in seen:
                    seen.add(gh3)
                    orbit.append(gh3)
        return [(lc, gh2) for gh2 in orbit]

    def canon(
        self, lkey: tuple[int, ...], gh: tuple[GhEntry, ...]
    ) -> tuple[tuple[int, ...], tuple[GhEntry, ...]]:
        """Canonical (L, gh): the least image under label permutations."""
        if not self.canonize:
            return lkey, gh
        memo_key = (lkey, gh)
        got = self._canon_memo.get(memo_key)
        if got is None:
            got = min(self._images(lkey, gh))
            self._canon_memo[memo_key] = got
        return got

    # ------------------------------------------------------------------
    # table plumbing

    def emit(
        self,
        table: dict,
        xk: tuple[int, ...],
        lkey: tuple[int, ...],
        i: int,
        gh: tuple[GhEntry, ...],
        items: Iterable[tuple[Partition | None, Witness | None]],
    ) -> None:
        """Add (partition, witness) pairs to one produced state.

        The target key is canonized once.  A None partition was rejected
        by the transition and is skipped; so is a partition the family
        already holds, which keeps the first witness.  The family is
        created on its first new partition, so no empty family is stored.
        """
        lc, ghc = self.canon(lkey, gh)
        key = (xk, lc, i, ghc)
        fam = table.get(key)
        for part, wit in items:
            if part is None or (fam is not None and part in fam):
                continue
            if fam is None:
                fam = table[key] = {}
            fam[part] = wit

    @staticmethod
    def _state_order(key: StateKey):
        # deletion sets by increasing size, then lexicographic everything
        return (len(key[0]), key)

    def reduce_table(self, table: dict) -> None:
        for key, fam in table.items():
            if len(fam) <= 1:
                continue
            m = next(iter(fam)).m
            # a family within the representative-set bound already meets it
            if len(fam) <= m << (m - 1):
                continue
            kept = rep_partitions(m, list(fam))
            if len(kept) != len(fam):
                table[key] = {p: fam[p] for p in kept}
        self.stats["states"] += len(table)
        self.stats["retained"] += sum(len(f) for f in table.values())

    # ------------------------------------------------------------------
    # main loop

    _debug_keep_tables = False

    def run(self) -> SolveResult:
        ntd = self.ntd
        tables: dict[int, dict] = {}
        keep_tables = self._debug_keep_tables
        for node in ntd.postorder():
            kind = ntd.kinds[node]
            bag = ntd.bags[node]
            if kind == "leaf":
                table = self._leaf_table()
            elif kind == "introduce":
                (child,) = ntd.children[node]
                table = self._introduce(bag, ntd.acted[node], tables[child])
                if not keep_tables:
                    del tables[child]
            elif kind == "forget":
                (child,) = ntd.children[node]
                table = self._forget(bag, ntd.acted[node], tables[child])
                if not keep_tables:
                    del tables[child]
            elif kind == "join":
                c1, c2 = ntd.children[node]
                table = self._join(bag, tables[c1], tables[c2])
                if not keep_tables:
                    del tables[c1]
                    del tables[c2]
            else:  # pragma: no cover
                raise AssertionError(kind)
            self.reduce_table(table)
            tables[node] = table

        root_table = tables[self.ntd.root]
        decision = False
        wit: frozenset[int] | None = None
        for i in range(self.k + 1):
            fam = root_table.get(((), (), i, ()))
            if fam:
                decision = True
                if self.track_witness:
                    wit = next(iter(fam.values()))
                break
        return SolveResult(
            decision,
            wit,
            dict(self.stats),
            [tables[n] for n in self.ntd.postorder()] if keep_tables else None,
        )

    # ------------------------------------------------------------------
    # leaf

    def _leaf_table(self) -> dict:
        table: dict = {}
        wit: Witness | None = frozenset() if self.track_witness else None
        self.emit(table, (), (), 0, (), [(Partition(0, ()), wit)])
        return table

    # ------------------------------------------------------------------
    # introduce

    def _introduce(self, bag: tuple[int, ...], v: int, child: dict) -> dict:
        table: dict = {}
        ctx_cache: dict[tuple[int, ...], dict] = {}
        for key in sorted(child, key=self._state_order):
            xk, lk, i, gh = key
            fam = child[key]
            # v joins the deleted set: nothing else changes
            self.emit(table, tuple(sorted(xk + (v,))), lk, i, gh, fam.items())
            # v survives with some label; the family moves the same way
            # whatever the label
            ctx = ctx_cache.get(xk)
            if ctx is None:
                ctx = self._intro_ctx(bag, v, xk)
                ctx_cache[xk] = ctx
            moved = [(self._intro_partition(ctx, p), w) for p, w in fam.items()]
            self._introduce_state(table, ctx, key, moved)
        return table

    def _intro_ctx(self, bag: tuple[int, ...], v: int, xk: tuple[int, ...]) -> dict:
        xs = set(xk)
        keep_parent = tuple(u for u in bag if u not in xs)
        keep_child = tuple(u for u in keep_parent if u != v)
        pv = self.view(keep_parent)
        cv = self.view(keep_child)
        # a child state holds the hypothesis of unit j of the sorted child
        # units at position j of its gh; each parent unit through v absorbs
        # the child units it contains, and the other child units carry over
        child_units = sorted(cv.units)
        vunits = []
        absorbed: set[int] = set()
        for unit, edges in zip(pv.units, pv.unit_edges):
            if v in unit:
                uset = set(unit)
                subs = tuple(j for j, cu in enumerate(child_units) if uset.issuperset(cu))
                absorbed.update(subs)
                vunits.append((unit, edges, subs))
        return {
            "pv": pv,
            "vpos": pv.keep.index(v),
            "comp_map": tuple(pv.comp_of[c[0]] for c in cv.comps),
            "vnew": pv.comp_of[v],
            "vunits": vunits,
            "carried": tuple(j for j in range(len(child_units)) if j not in absorbed),
            "part_memo": {},
        }

    def _intro_partition(self, ctx: dict, part: Partition) -> Partition | None:
        """Push a child partition through the introduce; None when rejected."""
        memo = ctx["part_memo"]
        got = memo.get(part)
        if got is not None:
            return got if got is not False else None
        comp_map = ctx["comp_map"]
        vnew = ctx["vnew"]
        new_parts: list[set[int]] = []
        merged: set[int] = {vnew}
        ok = True
        for p in part.parts:
            hits = sum(1 for o in p if comp_map[o] == vnew)
            if hits > 1:
                # v touches two components already linked below: a cycle
                ok = False
                break
            images = {comp_map[o] for o in p}
            if hits == 1:
                merged |= images
            else:
                new_parts.append(set(images))
        if not ok:
            memo[part] = False
            return None
        new_parts.append(merged)
        res = Partition.from_parts(len(ctx["pv"].comps), new_parts)
        memo[part] = res
        return res

    def _introduce_state(self, table: dict, ctx: dict, key: StateKey, moved: list) -> None:
        """Emit the moved family once per label v can survive with.

        A unit through v keeps the candidate patterns common to the child
        units it absorbs and inherits their attached labels.  Its labels
        must be distinct and none of them attached already; its patterns
        must host its labeled shape and keep v apart from the attached
        labels.
        """
        xk, lk, i, gh = key
        pv: _View = ctx["pv"]
        vpos = ctx["vpos"]
        carried = [gh[j] for j in ctx["carried"]]
        inherited = []
        for unit, edges, subs in ctx["vunits"]:
            hm = 0
            allowed: frozenset[int] | None = None
            for j in subs:
                _, sid, shm = gh[j]
                hm |= shm
                cand = self.set_of(sid)
                allowed = cand if allowed is None else (allowed & cand)
            inherited.append((unit, edges, hm, allowed))
        for lv in range(1, self.d + 1):
            lkey_p = lk[:vpos] + (lv,) + lk[vpos:]
            labs = dict(zip(pv.keep, lkey_p))
            entries = list(carried)
            for unit, edges, hm, allowed in inherited:
                unit_mask = 0
                for u in unit:
                    unit_mask |= 1 << (labs[u] - 1)
                if unit_mask.bit_count() < len(unit) or hm & unit_mask:
                    break
                csid = self.compat_set(unit, edges, labs)
                if csid is None:
                    break
                pats = self.set_of(csid)
                if allowed is not None:
                    pats = pats & allowed
                if hm:
                    pats = {q for q in pats if not (hm & self.pat_adj[q].get(lv, 0))}
                if not pats:
                    break
                entries.append((unit, self.intern(pats), hm))
            else:
                self.emit(table, xk, lkey_p, i, tuple(sorted(entries)), moved)

    # ------------------------------------------------------------------
    # forget

    def _forget(self, bag: tuple[int, ...], v: int, child: dict) -> dict:
        table: dict = {}
        ctx_cache: dict[tuple[int, ...], dict] = {}
        for key in sorted(child, key=self._state_order):
            xk, lk, i, gh = key
            fam = child[key]
            if v in xk:
                if i + 1 <= self.k:
                    items: Iterable = fam.items()
                    if self.track_witness:
                        items = [(p, w | {v}) for p, w in items]
                    xk2 = tuple(u for u in xk if u != v)
                    self.emit(table, xk2, lk, i + 1, gh, items)
                continue
            ctx = ctx_cache.get(xk)
            if ctx is None:
                ctx = self._forget_ctx(bag, v, xk)
                ctx_cache[xk] = ctx
            moved = [(self._forget_partition(ctx, p), w) for p, w in fam.items()]
            self._forget_state(table, ctx, key, moved)
        return table

    def _forget_ctx(self, bag: tuple[int, ...], v: int, xk: tuple[int, ...]) -> dict:
        xs = set(xk)
        keep_parent = tuple(u for u in bag if u not in xs)
        keep_child = tuple(sorted(keep_parent + (v,)))
        cv = self.view(keep_child)
        pv = self.view(keep_parent)
        split: list[list[int]] = [[] for _ in cv.comps]
        for pidx, c in enumerate(pv.comps):
            split[cv.comp_of[c[0]]].append(pidx)
        # a child unit through v sinks whole or splits into the parent units
        # it contains; the child units avoiding v carry over
        carried = []
        pieces = []
        for j, unit in enumerate(sorted(cv.units)):
            if v not in unit:
                carried.append(j)
                continue
            uset = set(unit)
            inside = tuple(pu for pu in pv.units if uset.issuperset(pu))
            if inside:
                pieces.append((j, inside))
        return {
            "keep": cv.keep,
            "pv": pv,
            "vpos": cv.keep.index(v),
            "split": split,
            "carried": tuple(carried),
            "pieces": pieces,
            "part_memo": {},
        }

    def _forget_partition(self, ctx: dict, part: Partition) -> Partition:
        memo = ctx["part_memo"]
        got = memo.get(part)
        if got is not None:
            return got
        split = ctx["split"]
        new_parts = []
        for p in part.parts:
            np: list[int] = []
            for o in p:
                np.extend(split[o])
            if np:
                new_parts.append(np)
        res = Partition.from_parts(len(ctx["pv"].comps), new_parts)
        memo[part] = res
        return res

    def _forget_state(self, table: dict, ctx: dict, key: StateKey, moved: list) -> None:
        """Emit the moved family once per hypothesis branch for v's units."""
        xk, lk, i, gh = key
        vpos = ctx["vpos"]
        lv = lk[vpos]
        lkey_p = lk[:vpos] + lk[vpos + 1 :]
        labs = dict(zip(ctx["keep"], lk))
        branch_lists: list[list[GhEntry]] = [[gh[j] for j in ctx["carried"]]]
        for j, inside in ctx["pieces"]:
            unit, sid, hm = gh[j]
            options = self._sink_unit_branches(unit, sid, hm, lv, inside, labs)
            branch_lists = [b + o for b in branch_lists for o in options]
        for branch in branch_lists:
            self.emit(table, xk, lkey_p, i, tuple(sorted(branch)), moved)

    def _sink_unit_branches(
        self,
        unit: tuple[int, ...],
        sid: int,
        hm: int,
        lv: int,
        pieces: Sequence[tuple[int, ...]],
        labs: Mapping[int, int],
    ) -> list[list[GhEntry]] | None:
        """Hypothesis branches for a unit losing v to the region below.

        Every remaining piece inherits the sunk unit's pattern and learns
        that a vertex labeled lv sits next to it, together with whichever
        previously attached labels its pattern keeps adjacent.  With one
        piece, candidate patterns inducing the same attached-label set
        can stay pooled; several pieces are tied to one final shape, so
        the pool must split into single-pattern branches.
        """
        cands = self.set_of(sid)
        piece_masks = []
        for piece in pieces:
            amask = 0
            for u in piece:
                amask |= 1 << (labs[u] - 1)
            piece_masks.append(amask)
        lvbit = 1 << (lv - 1)
        if len(pieces) == 1:
            amask = piece_masks[0]
            groups: dict[int, list[int]] = {}
            for q in sorted(cands):
                hv = lvbit | (self.adj_union(q, amask) & ~amask & hm)
                groups.setdefault(hv, []).append(q)
            return [
                [(pieces[0], self.intern(qs), hv)] for hv, qs in sorted(groups.items())
            ]
        out = []
        for q in sorted(cands):
            opt: list[GhEntry] = []
            qid = self.intern((q,))
            for piece, amask in zip(pieces, piece_masks):
                hv = lvbit | (self.adj_union(q, amask) & ~amask & hm)
                opt.append((piece, qid, hv))
            out.append(opt)
        return out

    # ------------------------------------------------------------------
    # join

    def _join(self, bag: tuple[int, ...], left: dict, right: dict) -> dict:
        table: dict = {}
        index = self._join_index(left)
        for rkey in sorted(right, key=self._state_order):
            rxk, rlk, ri, rgh = rkey
            rfam = right[rkey]
            for lkey, lgh in index.get((rxk, rlk), ()):
                i = lkey[2] + ri
                if i > self.k:
                    continue
                gh_p = self._join_gh(lgh, rgh)
                if gh_p is not None:
                    self.emit(table, rxk, rlk, i, gh_p, self._joints(left[lkey], rfam))
        return table

    def _join_index(self, left: dict) -> dict[tuple, list]:
        """Left states by (X, L), each under every image with its own L."""
        index: dict[tuple, list[tuple[StateKey, tuple[GhEntry, ...]]]] = {}
        for key in sorted(left, key=self._state_order):
            xk, lk, i, gh = key
            for l2, gh2 in self._images(lk, gh):
                index.setdefault((xk, l2), []).append((key, gh2))
        return index

    def _join_gh(
        self, lgh: tuple[GhEntry, ...], rgh: tuple[GhEntry, ...]
    ) -> tuple[GhEntry, ...] | None:
        """Per-unit combination of two sides' hypotheses, or None when dead."""
        entries: list[GhEntry] = []
        for (u1, s1, h1), (u2, s2, h2) in zip(lgh, rgh):
            assert u1 == u2
            if h1 & h2:
                return None
            common = self.set_of(s1) & self.set_of(s2)
            if not common:
                return None
            if h1 and h2:
                common = {q for q in common if not (self.adj_union(q, h1) & h2)}
                if not common:
                    return None
            entries.append((u1, self.intern(common), h1 | h2))
        return tuple(entries)

    def _joints(
        self, lfam: dict, rfam: dict
    ) -> Iterator[tuple[Partition, Witness | None]]:
        """Acyclic joints of two families, each with the union witness."""
        memo = self._join_memo
        track = self.track_witness
        for p1, w1 in lfam.items():
            for p2, w2 in rfam.items():
                pair = (p1, p2)
                joint = memo.get(pair)
                if joint is None:
                    joint = uplus(p1, p2) if inc_is_forest(p1.m, pair) else False
                    memo[pair] = joint
                if joint is not False:
                    yield joint, (w1 | w2 if track else None)
