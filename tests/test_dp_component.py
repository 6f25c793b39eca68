from blockvd.dp_component import solve_component
from blockvd.instance import Instance
from blockvd.oracle import brute_force_solve, verify_solution

from conftest import complete, cycle, path, random_chordal, random_graph


class TestSpecExamples:
    def test_k3_fits(self):
        assert solve_component(Instance(complete(3), 3, 0, "chordal", "component")).decision

    def test_p5_middle_deletion(self):
        assert solve_component(Instance(path(5), 2, 1, "chordal", "component")).decision
        assert not solve_component(
            Instance(path(5), 2, 0, "chordal", "component")
        ).decision

    def test_d_at_least_n_chordal_sanity(self, rng):
        # stays under the default pattern-universe cap of d <= 6
        for _ in range(8):
            g = random_chordal(rng, rng.randint(1, 6))
            inst = Instance(g, g.n if g.n else 1, 0, "chordal", "component")
            assert solve_component(inst).decision

    def test_nonchordal_needs_deletions(self):
        inst = Instance(cycle(4), 4, 0, "chordal", "component")
        assert not solve_component(inst).decision
        inst = Instance(cycle(4), 4, 1, "chordal", "component")
        assert solve_component(inst).decision


def oracle_mismatches(rng, trials: int = 40) -> list[tuple]:
    """The oracle differential: seeded random instances whose decision,
    minimum or witness size differs from the brute-force oracle's, each
    as (trial, n, d, k, family, edges)."""
    bad = []
    for trial in range(trials):
        n = rng.randint(4, 10)
        g = random_graph(rng, n, rng.randint(n - 1, int(n * 1.6)))
        d = rng.choice([2, 3, 4])
        k = rng.randint(0, 4)
        fam = rng.choice(["k1k2", "cliques", "chordal"])
        inst = Instance(g, d, k, fam, "component")
        want = brute_force_solve(inst)
        res, tracked = solve_component(inst), solve_component(inst, witness=True)
        if (
            res.decision != (want is not None)
            or not res.minimum == tracked.minimum == want
            or (want is not None and len(tracked.witness) != want)
        ):
            bad.append((trial, n, d, k, fam, sorted(g.edges())))
    return bad


class TestOracleAgreement:
    def test_random_batch(self, rng):
        assert oracle_mismatches(rng) == []

    def test_witness_verifies(self, rng):
        for _ in range(10):
            g = random_graph(rng, 9, 11)
            inst = Instance(g, 3, 3, "chordal", "component")
            res = solve_component(inst, witness=True)
            if res.decision:
                assert verify_solution(g, res.witness, 3, "chordal", "component")
