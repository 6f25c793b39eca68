"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 1 and 2 share a seeded corpus of 300 random graphs with
treewidth at most 4.
"""

import json
import random
import subprocess
import sys
import time

import pytest

from blockvd.characteristics import (
    all_partitions,
    chordal_sum_agrees,
    induced_edges,
    is_chordal,
    verify_representative,
)
from blockvd.decomposition import exact_td_small, validate_td
from blockvd.dp_block import solve_block
from blockvd.dp_component import solve_component
from blockvd.gadgets import GridISInstance, gen_clique_instance, gen_fixed_d
from blockvd.graph import Graph, biconnected_blocks, connected_components
from blockvd.instance import Instance
from blockvd.oracle import brute_force_solve, verify_solution
from blockvd.repset import rep_partitions

from conftest import child_env, random_graph


def _report(line: str) -> None:
    print(f"\n[acceptance] {line}")


@pytest.fixture(scope="module")
def corpus():
    """300 seeded random graphs, n <= 12, treewidth <= 4, with parameters."""
    rng = random.Random(20260810)
    out = []
    while len(out) < 300:
        n = rng.randint(6, 12)
        g = random_graph(rng, n, rng.randint(n - 1, int(n * 1.7)))
        td = exact_td_small(g)
        if td.width > 4:
            continue
        idx = len(out)
        d = (2, 3, 4)[idx % 3]
        k = idx % 5
        fam = ("k1k2", "cliques", "chordal")[(idx // 3) % 3]
        out.append((g, td, d, k, fam))
    return out


class TestCriterion1BlockOracleEquivalence:
    def test_block_agreement(self, corpus):
        t0 = time.time()
        agree = 0
        for g, td, d, k, fam in corpus:
            inst = Instance(g, d, k, fam, "block", td=td)
            want = brute_force_solve(inst)
            res = solve_block(inst)
            case = (g.n, d, k, fam, sorted(g.edges()))
            assert res.decision == (want is not None), case
            assert res.minimum == want, case
            agree += 1
        dt = time.time() - t0
        assert dt < 600
        _report(
            f"criterion 1 PASS: block DP = oracle on {agree}/300 instances "
            f"({dt:.1f}s)"
        )


class TestCriterion2ComponentOracleEquivalence:
    def test_component_agreement(self, corpus):
        t0 = time.time()
        agree = 0
        for g, td, d, k, fam in corpus:
            inst = Instance(g, d, k, fam, "component", td=td)
            want = brute_force_solve(inst)
            res = solve_component(inst)
            case = (g.n, d, k, fam, sorted(g.edges()))
            assert res.decision == (want is not None), case
            assert res.minimum == want, case
            agree += 1
        dt = time.time() - t0
        assert dt < 600
        _report(
            f"criterion 2 PASS: component DP = oracle on {agree}/300 instances "
            f"({dt:.1f}s)"
        )


class TestCriterion3FvsCrossCheck:
    @staticmethod
    def _fvs_brute(g: Graph, k: int) -> bool:
        """Textbook feedback vertex set check: G - S acyclic (by edge count)."""
        from itertools import combinations

        def acyclic(rem):
            comps = connected_components(g, rem)
            edges = len(induced_edges(g, rem))
            return edges == len(rem) - len(comps)

        verts = list(range(g.n))
        for size in range(k + 1):
            for s in combinations(verts, size):
                if acyclic(set(verts) - set(s)):
                    return True
        return False

    def test_fvs_equivalence(self):
        rng = random.Random(99)
        for trial in range(100):
            n = rng.randint(4, 10)
            g = random_graph(rng, n, rng.randint(n - 1, int(n * 1.6)))
            k = rng.randint(0, 3)
            inst = Instance(g, 3, k, "k1k2", "block")
            assert solve_block(inst).decision == self._fvs_brute(g, k), (
                trial,
                sorted(g.edges()),
                k,
            )
        _report("criterion 3 PASS: block DP matches brute-force FVS on 100 graphs")


class TestCriterion4RepresentativeSets:
    def test_random_families(self):
        rng = random.Random(4)
        for trial in range(200):
            m = rng.randint(1, 6)
            univ = list(all_partitions(m))
            fam = [rng.choice(univ) for _ in range(rng.randint(1, 20))]
            out = rep_partitions(m, fam)
            assert set(out) <= set(fam)
            assert len(out) <= m * (1 << (m - 1))
            assert verify_representative(m, fam, out), (trial, m, fam)
        # per-bucket bound on full part-count buckets
        from blockvd.repset import reduce_connected

        for m in range(1, 7):
            univ = list(all_partitions(m))
            for i in range(1, m + 1):
                bucket = [p for p in univ if len(p) == i]
                assert len(reduce_connected(m, bucket, m + 1 - i)) <= 1 << (m - 1)
        _report(
            "criterion 4 PASS: 200 random families representative, size bounds exact"
        )


class TestCriterion5ChordalSumEquivalence:
    def test_equivalence(self):
        from blockvd.selfcheck import random_compatible_chordal_pair

        rng = random.Random(5)
        done = 0
        while done < 500:
            pair = random_compatible_chordal_pair(rng)
            if pair is None:
                continue
            agrees = chordal_sum_agrees(*pair)
            if agrees is None:
                continue
            done += 1
            assert agrees, pair
        _report(
            "criterion 5 PASS: chordality of 500 sums matches incidence acyclicity"
        )


class TestCriterion6CharacteristicEquivalence:
    def test_equivalence(self):
        from test_characteristics import run_equivalence_trials

        rng = random.Random(6)
        checked = run_equivalence_trials(rng, target=500)
        assert checked >= 500
        _report(
            f"criterion 6 PASS: {checked} characteristic-swap trials, "
            "zero counterexamples"
        )


class TestCriterion7FixedDGenerator:
    def test_generator(self):
        grid = GridISInstance.minimal(2)
        k, d, m = 2, 4, 4
        s = (3 * d - 2) * k * (k - 1) * m
        comp = gen_fixed_d(grid, d, "component", planted=[1, 2])
        blk = gen_fixed_d(grid, d, "block", planted=[1, 2])
        for gen in (comp, blk):
            g = gen.instance.graph
            assert g.n == ((3 * d - 2) * k * k + 2 * k) * m
            assert len(gen.planted) == s
            assert validate_td(g, gen.instance.td) is None
            assert max(len(b) for b in gen.instance.td.bags) <= (3 * d + 4) * k + 6 * d - 4
        g = comp.instance.graph
        rem = set(range(g.n)) - comp.planted
        assert verify_solution(g, comp.planted, d, "cycles", "component")
        for c in connected_components(g, rem):
            assert len(c) == d
            assert all(sum(1 for w in g.neighbors(u) if w in c) == 2 for u in c)
        g = blk.instance.graph
        rem = set(range(g.n)) - blk.planted
        assert verify_solution(g, blk.planted, d, "cycles", "block")
        for piece in biconnected_blocks(g, rem):
            ie = induced_edges(g, piece)
            assert (len(piece), len(ie)) in ((1, 0), (2, 1), (d, d))
        _report(
            f"criterion 7 PASS: grid generator exact (|S|={s}, bags within bound)"
        )


class TestCriterion8UnboundedDGenerator:
    def test_generator(self):
        k, t = 3, 2
        d = 3 * t * t + 3 * t + 3
        kp = 3 * ((k + 1) * k // 2) - 6
        ev = {
            (1, 2): [(1, 2), (2, 1)],
            (1, 3): [(1, 1), (2, 2)],
            (2, 3): [(2, 1), (1, 2)],
        }
        gen = gen_clique_instance(k, t, ev, planted=[1, 2, 1])
        g = gen.instance.graph
        assert d == 21 and kp == 12
        assert g.n == (2 * d + 3) * (((k + 1) * k // 2) - 2) == 180
        assert len(gen.planted) == kp
        rem = set(range(g.n)) - gen.planted
        comps = connected_components(g, rem)
        assert all(len(c) == d for c in comps)
        assert all(is_chordal(g, c) for c in comps)
        assert validate_td(g, gen.instance.td) is None
        assert gen.instance.td.width <= 54 * k - 69
        _report(
            "criterion 8 PASS: clique generator exact "
            f"(|V|={g.n}, d={d}, |S|={kp}, width {gen.instance.td.width} <= {54 * k - 69})"
        )


class TestCriterion9Determinism:
    def test_cli_byte_reproducible(self, tmp_path):
        (tmp_path / "c5.gr").write_text("p tw 5 5\n1 2\n2 3\n3 4\n4 5\n5 1\n")
        commands = [
            [
                "solve", "--mode", "block", "--family", "chordal",
                "-d", "3", "-k", "1", "--graph", "c5.gr", "--json", "--witness",
            ],
            [
                "solve", "--mode", "component", "--family", "k1k2",
                "-d", "2", "-k", "2", "--graph", "c5.gr", "--json",
            ],
            ["enum-ud", "-d", "4", "--family", "chordal"],
            ["gen", "clique", "-k", "3", "-t", "2", "--seed", "3", "-o", "cl"],
            ["gen", "perm-is", "-k", "2", "-d", "4", "--planted", "2,1", "-o", "pi"],
        ]
        outputs = []
        # output must not depend on the hash seed: the engine walks its
        # tables in insertion order
        for seed in ("0", "1"):
            run_bytes = []
            for cmd in commands:
                proc = subprocess.run(
                    [sys.executable, "-m", "blockvd.cli", *cmd],
                    capture_output=True,
                    cwd=tmp_path,
                    env=child_env(PYTHONHASHSEED=seed),
                )
                assert proc.returncode == 0, (cmd, proc.stderr.decode())
                run_bytes.append((tuple(cmd), proc.returncode, proc.stdout))
            for name in ("cl.gr", "cl.td", "cl.json", "pi.gr", "pi.td", "pi.json"):
                run_bytes.append((name, 0, (tmp_path / name).read_bytes()))
            outputs.append(run_bytes)
        assert outputs[0] == outputs[1]
        _report("criterion 9 PASS: CLI byte-reproducible across runs and hash seeds")
