import random

import pytest

from blockvd import oracle
from blockvd.errors import InvalidInput, TooLarge
from blockvd.graph import Graph
from blockvd.instance import Instance
from blockvd.oracle import brute_force_solve, verify_solution

from conftest import complete, cycle, random_graph


class TestVerify:
    def test_c5_one_deletion_breaks_cycle(self):
        assert verify_solution(cycle(5), {0}, 3, "k1k2", "block")

    def test_c5_without_deletion_fails(self):
        assert not verify_solution(cycle(5), set(), 3, "k1k2", "block")
        assert not verify_solution(cycle(5), set(), 3, "cliques", "block")

    def test_component_size_cap(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert verify_solution(g, set(), 3, "chordal", "component")
        assert not verify_solution(g, set(), 2, "chordal", "component")

    def test_bad_mode_is_invalid_input(self):
        with pytest.raises(InvalidInput, match="bad mode 'blk'"):
            verify_solution(Graph(3), [], 3, "chordal", "blk")

    def test_cycles_family(self):
        assert verify_solution(cycle(4), set(), 4, "cycles", "component")
        assert not verify_solution(cycle(4), set(), 4, "chordal", "component")

    def test_one_shot_iterable(self):
        # the deleted set is read once, so a generator counts like a list
        assert verify_solution(complete(3), [1], 2, "k1k2", "block")
        assert verify_solution(complete(3), (v for v in [1]), 2, "k1k2", "block")

    @pytest.mark.parametrize("deleted", [[7], [2], [-1], [0, 5]])
    def test_vertex_outside_the_graph_rejected(self, deleted):
        # a 1-based set checked against a 0-based graph must not pass silently
        with pytest.raises(InvalidInput):
            verify_solution(Graph(2, [(0, 1)]), deleted, 2, "k1k2", "block")


class TestBruteForce:
    def test_c4_cycles_free(self):
        assert brute_force_solve(Instance(cycle(4), 4, 0, "cycles", "component")) == 0

    def test_c4_chordal_needs_one(self):
        assert brute_force_solve(Instance(cycle(4), 3, 1, "chordal", "block")) == 1

    def test_k5_k1k2_needs_three(self):
        assert brute_force_solve(Instance(complete(5), 2, 5, "k1k2", "block")) == 3

    def test_exceeding_budget_gives_none(self):
        assert brute_force_solve(Instance(complete(5), 2, 2, "k1k2", "block")) is None

    def test_guard(self):
        with pytest.raises(TooLarge):
            brute_force_solve(Instance(Graph(40, []), 2, 20, "k1k2", "block"))

    def test_k_above_n_costs_what_k_equal_to_n_costs(self, monkeypatch):
        # no set has more than n vertices, so sizes past n are never counted
        sizes = []
        real = oracle.comb
        monkeypatch.setattr(oracle, "comb", lambda n, j: sizes.append(j) or real(n, j))
        g = complete(3)
        assert brute_force_solve(Instance(g, 2, 10**6, "k1k2", "block")) == 1
        assert len(sizes) <= g.n + 1

    def test_monotone_supersets(self):
        rng = random.Random(0)
        for _ in range(20):
            g = random_graph(rng, 7, rng.randint(5, 12))
            for mode in ("block", "component"):
                base = brute_force_solve(Instance(g, 3, 7, "chordal", mode))
                assert base is not None
                sols = [
                    s
                    for s in range(base, 8)
                ]
                # any superset of a solution stays one for hereditary families
                import itertools

                for size in range(base, 7):
                    found = [
                        set(s)
                        for s in itertools.combinations(range(7), size)
                        if verify_solution(g, s, 3, "chordal", mode)
                    ]
                    for s in found[:3]:
                        for extra in range(7):
                            assert verify_solution(
                                g, s | {extra}, 3, "chordal", mode
                            )
                    break
