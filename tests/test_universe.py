"""Pattern universes shared across solves in one process.

``families._enumerate_patterns`` builds each universe once and
``_dpcore._universe`` keeps one set of graph-independent tables and memos
per (d, patterns), shared by every engine on it.  The bag views and the
introduce/forget steps (``_shape_view``, ``_step``) are shared the same
way, keyed by the shape of the bag graph.  Nothing a solve reads from
them may depend on the solves that filled them: each result must equal
the same instance solved with every cache cleared first.
"""

import random

import pytest

import blockvd
from blockvd import _dpcore, families
from blockvd._dpcore import Engine
from blockvd.decomposition import heuristic_td, to_nice
from blockvd.errors import CapExceeded, NonChordalFamily
from blockvd.families import UD_CAP, enumerate_component_patterns, enumerate_ud, get_family
from blockvd.graph import Graph
from blockvd.instance import Instance
from blockvd.oracle import brute_force_solve
from blockvd.partitions import Partition

from conftest import BUILD, SOLVE, clear_caches, cycle, random_chordal, random_graph

ENUMERATE = {"block": enumerate_ud, "component": enumerate_component_patterns}


def cases() -> list[tuple[Instance, bool]]:
    """Seeded instances over both modes, three families and d = 3, 4, 5,
    each with or without a witness, in an interleaved order."""
    rng = random.Random(17)
    out = []
    for i in range(36):
        n = rng.randint(6, 9)
        g = random_chordal(rng, n) if i % 3 == 0 else random_graph(rng, n, rng.randint(n, 2 * n))
        mode = ("block", "component")[i % 2]
        family = ("k1k2", "cliques", "chordal")[i // 2 % 3]
        d = (3, 4, 5)[i // 6 % 3]
        out.append((Instance(g, d, rng.randint(0, 3), family, mode), i // 18 == 1))
    rng.shuffle(out)
    return out


def outcome(inst: Instance, witness: bool) -> tuple:
    res = SOLVE[inst.mode](inst, witness=witness)
    return res.decision, res.minimum, res.stats, res.witness


def test_interleaved_solves_equal_solves_on_cleared_caches():
    clear_caches()
    todo = cases()
    # every instance solved back to back on warm, shared universes, twice
    warm = [outcome(inst, w) for inst, w in todo]
    again = [outcome(inst, w) for inst, w in todo]
    assert again == warm
    decisions = set()
    for (inst, w), got in zip(todo, warm):
        clear_caches()
        assert outcome(inst, w) == got, (inst.mode, inst.family, inst.d, inst.k, w)
        decisions.add(got[0])
    # both answers occur, and the witness runs recover sets
    assert decisions == {True, False}
    assert any(w and got[3] for (_, w), got in zip(todo, warm))


@pytest.mark.parametrize("mode", ["block", "component"])
def test_a_second_solve_reads_every_orbit_from_the_memo(mode, monkeypatch):
    """Every label orbit walked by a solve is kept in the universe's memo,
    so solving the same instance again relabels no hypothesis."""
    sigma_gh = Engine._sigma_gh
    calls = 0

    def counted(self, sigma, gh):
        nonlocal calls
        calls += 1
        return sigma_gh(self, sigma, gh)

    monkeypatch.setattr(Engine, "_sigma_gh", counted)
    rng = random.Random(23)
    for family in ("cliques", "chordal"):
        inst = Instance(random_graph(rng, 9, 13), 4, 2, family, mode)
        clear_caches()
        first = outcome(inst, True)
        assert calls > 0
        calls = 0
        assert outcome(inst, True) == first
        assert calls == 0


@pytest.mark.parametrize("mode", ["block", "component"])
def test_a_second_solve_computes_no_target_list(mode, monkeypatch):
    """The targets of every child state an introduce or a forget meets are
    kept in the universe's memo, so solving the same instance again
    computes none of them."""
    calls = {}
    for name in ("_introduce_targets", "_forget_targets"):

        def counted(self, step, lk, gh, name=name, compute=getattr(Engine, name)):
            calls[name] = calls.get(name, 0) + 1
            return compute(self, step, lk, gh)

        monkeypatch.setattr(Engine, name, counted)
    rng = random.Random(23)
    for family in ("cliques", "chordal"):
        inst = Instance(random_graph(rng, 9, 13), 4, 2, family, mode)
        clear_caches()
        first = outcome(inst, True)
        assert calls["_introduce_targets"] > 0 and calls["_forget_targets"] > 0
        calls.clear()
        assert outcome(inst, True) == first
        assert not calls


@pytest.mark.parametrize("mode", ["block", "component"])
def test_universes_sharing_steps_keep_their_own_targets(mode, monkeypatch):
    """k1k2 runs on a two-label universe and cliques on a four-label one,
    over the same bag steps.  Solved alternately on the same graphs in one
    process, each walks the tables it walks on cleared caches, node by
    node."""
    introduced = set()

    def recorded(self, step, lk, gh, compute=Engine._introduce_targets):
        introduced.add((step, lk, gh))
        return compute(self, step, lk, gh)

    monkeypatch.setattr(Engine, "_introduce_targets", recorded)
    rng = random.Random(29)
    graphs = [random_graph(rng, 8, 11) for _ in range(4)]
    insts = [Instance(g, 4, 2, family, mode) for g in graphs for family in ("k1k2", "cliques")]
    clear_caches()
    engines = [BUILD[mode](inst) for inst in insts]
    warm = [list(engine.walk()) for engine in engines]
    k1k2, cliques = engines[:2]
    assert (k1k2.d, cliques.d) == (2, 4)
    # the introduce keys of each universe's one target memo
    steps = [{step for step, _, _ in e._target_memo.keys() & introduced} for e in (k1k2, cliques)]
    assert steps[0] & steps[1]
    for inst, got in zip(insts, warm):
        clear_caches()
        want = list(BUILD[mode](inst).walk())
        assert [node for node, _ in got] == [node for node, _ in want]
        for (node, table), (_, expected) in zip(got, want):
            assert table == expected, (inst.family, node)


@pytest.mark.parametrize("mode", ["block", "component"])
def test_introduce_and_forget_never_look_up_one_target_key(mode, monkeypatch):
    """Introduce and forget share one target memo per universe: for one
    step an introduce's child L has one label fewer than a forget's, so
    no (step, L, gh) is looked up by both.  The lookups are recorded in
    ``_targets``, where a key met by both directions would show even when
    the second one reads it from the memo."""
    looked_up = {"_introduce_targets": set(), "_forget_targets": set()}
    targets = Engine._targets

    def recorded(self, compute, step, lk, gh):
        looked_up[compute.__name__].add((step, lk, gh))
        return targets(self, compute, step, lk, gh)

    monkeypatch.setattr(Engine, "_targets", recorded)
    rng = random.Random(31)
    clear_caches()
    engines = []
    for family in ("k1k2", "cliques", "chordal"):
        for d in (3, 4):
            engines.append(BUILD[mode](Instance(random_graph(rng, 9, 13), d, 2, family, mode)))
            engines[-1].run()
    introduced, forgotten = looked_up.values()
    assert introduced and forgotten
    assert not introduced & forgotten
    # the memos hold exactly the keys looked up
    assert set().union(*(e._target_memo.keys() for e in engines)) == introduced | forgotten


@pytest.mark.parametrize("mode", ["block", "component"])
def test_canonization_off_after_canonized_solves_counts_as_on_cleared_caches(mode):
    """An engine without canonization neither reads nor writes the target
    memos, so its counts do not depend on the canonized solves before it."""
    rng = random.Random(31)
    graphs = [random_graph(rng, 8, 11) for _ in range(6)]

    def run(g, canonize: bool):
        engine = BUILD[mode](Instance(g, 4, 2, "chordal", mode))
        engine.canonize = canonize
        res = engine.run()
        return res.decision, res.minimum, res.stats, res.witness

    fewer = 0
    for g in graphs[3:]:
        clear_caches()
        want = run(g, False)
        clear_caches()
        for h in graphs[:3] + [g]:
            canonized = run(h, True)
        assert run(g, False) == want
        fewer += canonized[2]["states"] < want[2]["states"]
    # canonization merges states, so reading its targets would show
    assert fewer > 0


@pytest.mark.parametrize("mode", ["block", "component"])
def test_canonization_off_after_canonized_engines_matches_the_oracle(mode):
    rng = random.Random(5)
    graphs = [random_graph(rng, 8, 11) for _ in range(8)]
    # fill the shared memos with canonized runs first
    for g in graphs[:4]:
        BUILD[mode](Instance(g, 4, 2, "chordal", mode)).run()
    for g in graphs[4:]:
        inst = Instance(g, 4, 2, "chordal", mode)
        engine = BUILD[mode](inst)
        assert engine._canon_memo
        engine.canonize = False
        res = engine.run()
        assert res.minimum == brute_force_solve(inst)
        assert res.decision == (res.minimum is not None)


@pytest.mark.parametrize("mode", ["block", "component"])
def test_repeat_enumeration_returns_the_same_tuple(mode):
    fam = get_family("chordal")
    first = ENUMERATE[mode](4, fam)
    assert type(first) is tuple
    assert ENUMERATE[mode](4, fam) is first


@pytest.mark.parametrize("mode", ["block", "component"])
def test_failed_enumerations_raise_on_every_call(mode):
    for _ in range(2):
        with pytest.raises(CapExceeded):
            ENUMERATE[mode](UD_CAP + 1, get_family("k1k2"))
        with pytest.raises(NonChordalFamily):
            ENUMERATE[mode](4, get_family("cycles"))


def test_engines_on_equal_patterns_share_one_universe():
    g = cycle(5)
    ntd = to_nice(heuristic_td(g), g)
    patterns = enumerate_ud(4, get_family("cliques"))
    a = Engine("block", g, 4, 1, patterns, ntd)
    b = Engine("block", g, 4, 1, list(patterns), ntd)
    assert b.patterns is a.patterns
    assert b._canon_memo is a._canon_memo and b._join_memo is a._join_memo
    assert b.has is a.has and b.edge is a.edge
    # a different d or pattern tuple gets its own universe
    other = Engine("block", g, 5, 1, patterns, ntd)
    assert other._canon_memo is not a._canon_memo
    # only the mode, graph, k, decomposition, neighbour masks and packed
    # set masks are per engine; the canonization switch is the same True in every engine
    h = cycle(6)
    c = Engine("component", h, 4, 2, patterns, to_nice(heuristic_td(h), h))
    own = {name for name, value in vars(c).items() if value is not vars(a)[name]}
    assert own == {"mode", "g", "k", "ntd", "_nbr", "_avoid", "_set_bit"}
    assert c._nbr != a._nbr


@pytest.mark.parametrize("mode, size", [("block", 1), ("component", 3)])
def test_k1k2_engines_share_one_two_label_universe(mode, size):
    # a k1k2 member has at most two vertices, so two labels serve every d:
    # the edge 1-2 in block mode, and 1, 2 and 1-2 in component mode
    g = cycle(5)
    first, *rest = (BUILD[mode](Instance(g, d, 1, "k1k2", mode)) for d in (3, 4, 5))
    assert first.d == 2 and len(first.patterns) == size
    for engine in rest:
        assert engine.d == 2
        assert engine.patterns is first.patterns
        assert engine._canon_memo is first._canon_memo


@pytest.mark.parametrize("mode", ["block", "component"])
@pytest.mark.parametrize("family", ["cliques", "chordal"])
def test_unbounded_families_keep_d_labels(mode, family):
    for d in (3, 4, 5):
        assert BUILD[mode](Instance(cycle(5), d, 1, family, mode)).d == d


def test_bags_of_one_shape_share_one_context():
    # the path 0-1-2 and the path 2-4-5 inside another graph: both bags
    # have the shape of a path through their middle position
    clear_caches()
    g1 = Graph(3, [(0, 1), (1, 2)])
    g2 = Graph(6, [(0, 5), (1, 3), (2, 4), (4, 5)])
    patterns = enumerate_ud(3, get_family("k1k2"))
    a, b = (Engine("block", g, 3, 1, patterns, to_nice(heuristic_td(g), g)) for g in (g1, g2))
    assert a._shape((0, 1, 2)) == b._shape((2, 4, 5)) == 0b101
    step = _dpcore._step(3, a._shape((0, 1, 2)), 1, "block")
    assert _dpcore._step(3, b._shape((2, 4, 5)), 1, "block") is step
    assert not step.intro_memo
    # introducing the middle vertex moves the child partition through the
    # shared step; the other engine finds the move in its memo
    for engine in (a, b):
        engine.canonize = False
    child: dict = {}
    a._merge(child, ((),) + a.canon((1, 2), ()), [(Partition.singletons(2), frozenset())])
    kept = {key: fam for key, fam in a._introduce((0, 1, 2), 1, child, 0).items() if not key[0]}
    assert Partition.singletons(2) in step.intro_memo
    assert not step.forget_memo
    # the states where the vertex survives carry no vertex ids
    assert {key: fam for key, fam in b._introduce((2, 4, 5), 4, child, 0).items() if not key[0]} == kept
    # the forget from that shape reads the very step the introduce into it read
    assert _dpcore._step(3, 0b101, 1, "block") is step
    assert b._step_of((2, 4, 5), 4) is step
    b._forget((2, 5), 4, b._introduce((2, 4, 5), 4, child, 0))
    assert step.forget_memo


def test_clear_caches_empties_every_process_cache():
    # the package's one way to drop the per-process memos, which the
    # tests read through conftest
    assert clear_caches is blockvd.clear_caches
    for mode in ("block", "component"):
        SOLVE[mode](Instance(cycle(5), 3, 1, "chordal", mode))
    cached = {
        name: obj
        for module in (_dpcore, families)
        for name, obj in vars(module).items()
        if callable(getattr(obj, "cache_clear", None))
    }
    assert set(cached) >= {"_enumerate_patterns", "_universe", "_shape_view", "_step", "_infeasible"}
    assert all(fn.cache_info().currsize for fn in cached.values())
    clear_caches()
    assert {name: fn.cache_info().currsize for name, fn in cached.items()} == dict.fromkeys(cached, 0)
