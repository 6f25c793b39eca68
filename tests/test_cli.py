import json
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from blockvd.cli import main
from conftest import capped_address_space, child_env


TRIANGLE = "p tw 3 3\n1 2\n2 3\n3 1\n"

# .td files for TRIANGLE whose ids fall outside the graph or the tree,
# each with the part of the error line that names the file's own ids
TD_OUT_OF_RANGE = [
    ("s td 1 3 3\nb 1 0 1 2\n", "bag line 'b 1 0 1 2' names a vertex outside 1..3"),
    ("s td 2 3 3\nb 1 1 2 3\nb 2 1\n1 3\n", "tree edge '1 3' names a bag outside 1..2"),
    ("s td 1 3 5\nb 1 1 2 3\n", "graph has 5 vertices, not 3"),
]
TD_OUT_OF_RANGE_IDS = ["td-vertex-out-of-range", "td-edge-out-of-range", "td-vertex-count"]


def run_cli(args, cwd, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "blockvd.cli", *args],
        capture_output=True,
        cwd=cwd,
        env=child_env(),
        text=True,
        **kwargs,
    )


@pytest.fixture
def c5(tmp_path):
    p = tmp_path / "c5.gr"
    p.write_text("p tw 5 5\n1 2\n2 3\n3 4\n4 5\n5 1\n")
    return p


class TestSolve:
    def test_yes_exit_zero(self, c5, capsys):
        code = main(
            [
                "solve", "--mode", "block", "--family", "k1k2",
                "-d", "3", "-k", "1", "--graph", str(c5), "--json",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["decision"] == "YES"

    def test_no_exit_one(self, c5, capsys):
        code = main(
            [
                "solve", "--mode", "block", "--family", "k1k2",
                "-d", "3", "-k", "0", "--graph", str(c5),
            ]
        )
        capsys.readouterr()
        assert code == 1

    def test_witness_reported(self, c5, capsys):
        code = main(
            [
                "solve", "--mode", "block", "--family", "k1k2",
                "-d", "3", "-k", "2", "--graph", str(c5), "--json", "--witness",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and len(out["witness"]) <= 2

    def test_oracle_engine(self, c5, capsys):
        code = main(
            [
                "solve", "--mode", "component", "--engine", "oracle",
                "--family", "cycles", "-d", "5", "-k", "0", "--graph", str(c5),
            ]
        )
        capsys.readouterr()
        assert code == 0

    @pytest.mark.parametrize("mode", ["block", "component"])
    def test_dp_and_oracle_print_the_same_minimum(self, c5, capsys, mode):
        """On YES both engines put the least deletion size in ``stats``;
        on NO both print it as null, and neither engine's ``stats`` keys
        depend on the answer."""
        args = [
            "solve", "--mode", mode, "--family", "k1k2",
            "-d", "3", "--graph", str(c5), "--json",
        ]
        stats = {}
        for k, want in (("2", "YES"), ("0", "NO")):
            for engine in ("dp", "oracle"):
                code = main([*args, "-k", k, "--engine", engine])
                out = json.loads(capsys.readouterr().out)
                assert (code, out["decision"]) == ((0, "YES") if want == "YES" else (1, "NO"))
                stats[want, engine] = out["stats"]
        assert stats["YES", "dp"]["minimum"] == stats["YES", "oracle"]["minimum"] is not None
        assert stats["NO", "dp"]["minimum"] is None and stats["NO", "oracle"]["minimum"] is None
        for engine in ("dp", "oracle"):
            assert stats["NO", engine].keys() == stats["YES", engine].keys()
        # the oracle prints no DP counters; every key it prints, the DP prints
        assert stats["NO", "oracle"].keys() <= stats["NO", "dp"].keys()

    @pytest.mark.parametrize("mode", ["block", "component"])
    def test_k1k2_solves_above_the_universe_cap(self, c5, capsys, mode):
        """k1k2 needs two labels at every d, so d = 9 prints what d = 2 does."""
        for k in ("0", "1"):
            runs = []
            for d in ("9", "2"):
                code = main(
                    [
                        "solve", "--mode", mode, "--family", "k1k2", "-d", d,
                        "-k", k, "--graph", str(c5), "--json", "--witness",
                    ]
                )
                runs.append((code, capsys.readouterr().out))
            assert runs[0][0] in (0, 1)
            assert runs[0] == runs[1]

    def test_cliques_above_the_universe_cap_exit_two_one_line(self, c5, capsys):
        code = main(
            [
                "solve", "--mode", "block", "--family", "cliques",
                "-d", "7", "-k", "1", "--graph", str(c5),
            ]
        )
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1, err
        assert err.startswith("error:") and "cap of 6" in err

    def test_usage_error(self, tmp_path, capsys):
        code = main(
            [
                "solve", "--mode", "block", "--family", "nosuch",
                "-d", "3", "-k", "0", "--graph", str(tmp_path / "missing.gr"),
            ]
        )
        capsys.readouterr()
        assert code == 2


    def test_solve_imports_no_spec_code(self, c5):
        """Spec-level code stays off the solver path: solving in either mode,
        with or without a witness, imports neither module."""
        script = f"""
import sys
from blockvd.cli import main
for mode in ("block", "component"):
    for extra in ([], ["--witness"]):
        main(["solve", "--mode", mode, "--family", "chordal", "-d", "3",
              "-k", "2", "--graph", {str(c5)!r}, *extra])
print(sorted(m for m in ("blockvd.characteristics", "blockvd.selfcheck") if m in sys.modules))
"""
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, env=child_env(), text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"


class TestGenAndTd:
    def test_perm_is_roundtrip(self, tmp_path, capsys):
        prefix = str(tmp_path / "pi")
        assert (
            main(
                [
                    "gen", "perm-is", "-k", "2", "-d", "4",
                    "--variant", "block", "--planted", "2,1", "-o", prefix,
                ]
            )
            == 0
        )
        capsys.readouterr()
        sidecar = json.loads(Path(prefix + ".json").read_text())
        assert sidecar["formulas"]["budget"] == 80
        assert len(sidecar["planted"]) == 80
        assert (
            main(["td", "validate", "--graph", prefix + ".gr", "--td", prefix + ".td"])
            == 0
        )
        capsys.readouterr()

    def test_clique_gen(self, tmp_path, capsys):
        prefix = str(tmp_path / "cl")
        assert (
            main(
                ["gen", "clique", "-k", "3", "-t", "2", "--planted", "1,2,2", "-o", prefix]
            )
            == 0
        )
        capsys.readouterr()
        sidecar = json.loads(Path(prefix + ".json").read_text())
        assert sidecar["formulas"]["vertices"] == 180
        assert sidecar["formulas"]["budget"] == 12

    def test_td_heuristic_and_exact(self, c5, tmp_path, capsys):
        out = str(tmp_path / "c5.td")
        assert main(["td", "heuristic", "--graph", str(c5), "-o", out]) == 0
        assert main(["td", "validate", "--graph", str(c5), "--td", out]) == 0
        assert main(["td", "exact", "--graph", str(c5), "-o", out]) == 0
        assert main(["td", "nice", "--graph", str(c5), "-o", out]) == 0
        # the exact routine's vertex cap is fixed, not an option
        with pytest.raises(SystemExit) as exc:
            main(["td", "exact", "--graph", str(c5), "--limit", "14"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_td_validate_long_path_in_small_memory(self, tmp_path):
        # validation reads no neighbour masks, whose total size is
        # quadratic in n: about 225 MB for this path
        n = 60_000
        (tmp_path / "p.gr").write_text(
            f"p tw {n} {n - 1}\n" + "".join(f"{v} {v + 1}\n" for v in range(1, n))
        )
        (tmp_path / "p.td").write_text(
            f"s td {n - 1} 2 {n}\n"
            + "".join(f"b {v} {v} {v + 1}\n" for v in range(1, n))
            + "".join(f"{t} {t + 1}\n" for t in range(1, n - 1))
        )
        proc = run_cli(
            ["td", "validate", "--graph", "p.gr", "--td", "p.td"],
            tmp_path,
            preexec_fn=lambda: resource.setrlimit(
                resource.RLIMIT_AS, (256 << 20, 256 << 20)
            ),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"ok: {n - 1} bags, width 1\n"

    def test_td_heuristic_long_path_in_bounded_time(self, tmp_path):
        # min-fill stops each scan at its first zero-fill vertex, and a
        # sparse neighbourhood mask is read in its few set bits, not in
        # one pass over every vertex id: quadratic scans take minutes here
        n = 40_000
        (tmp_path / "p.gr").write_text(
            f"p tw {n} {n - 1}\n" + "".join(f"{v} {v + 1}\n" for v in range(1, n))
        )
        proc = run_cli(
            ["td", "heuristic", "--graph", "p.gr", "-o", "p.td"], tmp_path, timeout=30
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "wrote p.td (width 1)\n"

    def test_enum_ud(self, capsys):
        assert main(["enum-ud", "-d", "3", "--family", "cliques"]) == 0
        out = capsys.readouterr().out
        assert out.strip().splitlines()[-1] == "total: 4"

    @pytest.mark.parametrize("connected", [[], ["--connected"]], ids=["block", "component"])
    def test_enum_ud_lists_the_k1k2_universe_solve_runs_on(self, capsys, connected):
        """k1k2 needs two labels at every d, so d = 9 lists what d = 2 does."""
        runs = []
        for d in ("9", "2"):
            assert main(["enum-ud", "-d", d, "--family", "k1k2", *connected]) == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]
        assert runs[0].splitlines()[-1] == ("total: 3" if connected else "total: 1")

    def test_selftest_passes(self, capsys):
        assert main(["selftest", "--trials", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 3 and all(line.endswith(": ok") for line in out)


class TestDeterminism:
    def test_solve_byte_identical(self, tmp_path):
        c5 = tmp_path / "c5.gr"
        c5.write_text("p tw 5 5\n1 2\n2 3\n3 4\n4 5\n5 1\n")
        args = [
            "solve", "--mode", "block", "--family", "chordal",
            "-d", "3", "-k", "1", "--graph", "c5.gr", "--json", "--witness",
        ]
        a = run_cli(args, tmp_path)
        b = run_cli(args, tmp_path)
        assert a.returncode == 0, a.stderr
        assert b.returncode == 0, b.stderr
        assert a.stdout == b.stdout

    def test_gen_byte_identical(self, tmp_path):
        args = ["gen", "clique", "-k", "3", "-t", "2", "--seed", "7", "-o", "out"]
        a = run_cli(args, tmp_path)
        assert a.returncode == 0, a.stderr
        data_a = [
            (tmp_path / f"out.{ext}").read_bytes() for ext in ("gr", "td", "json")
        ]
        b = run_cli(args, tmp_path)
        assert b.returncode == 0, b.stderr
        data_b = [
            (tmp_path / f"out.{ext}").read_bytes() for ext in ("gr", "td", "json")
        ]
        assert data_a == data_b


class TestErrorPaths:
    def test_nonchordal_family_rejected_at_d4(self, c5, capsys):
        code = main(
            [
                "solve", "--mode", "block", "--family", "cycles",
                "-d", "4", "-k", "1", "--graph", str(c5),
            ]
        )
        capsys.readouterr()
        assert code == 2

    def test_cycles_family_accepted_at_d3(self, c5, capsys):
        code = main(
            [
                "solve", "--mode", "block", "--family", "cycles",
                "-d", "3", "-k", "0", "--graph", str(c5),
            ]
        )
        capsys.readouterr()
        assert code == 1  # C5 itself is not allowed when blocks are capped at 3

    def test_oracle_guard_maps_to_usage_error(self, tmp_path, capsys):
        big = tmp_path / "big.gr"
        big.write_text("p tw 40 0\n")
        code = main(
            [
                "solve", "--mode", "block", "--engine", "oracle",
                "--family", "chordal", "-d", "2", "-k", "20", "--graph", str(big),
            ]
        )
        capsys.readouterr()
        assert code == 2

    def test_bad_planted_exit_two(self, tmp_path, capsys):
        code = main(
            [
                "gen", "perm-is", "-k", "2", "-d", "4",
                "--planted", "1,1", "-o", str(tmp_path / "x"),
            ]
        )
        capsys.readouterr()
        assert code == 2


    def test_malformed_graph_exit_two_one_line(self, tmp_path):
        (tmp_path / "bad.gr").write_text("p tw 3 x\n")
        proc = run_cli(
            [
                "solve", "--mode", "block", "--family", "k1k2",
                "-d", "2", "-k", "1", "--graph", "bad.gr",
            ],
            tmp_path,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("error:")

    def test_out_of_memory_exit_two_one_line(self, tmp_path):
        # a valid header whose vertex count outgrows the capped memory
        (tmp_path / "huge.gr").write_text("p tw 300000000 0\n")
        proc = run_cli(
            ["td", "heuristic", "--graph", "huge.gr"],
            tmp_path,
            preexec_fn=capped_address_space,
            timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == "error: out of memory\n"

    @pytest.mark.parametrize(
        "graph, td, reason",
        [
            ("p tw 3 2\n1 2\n2 1\n", None, "repeated edge"),
            ("p tw 3 2\np tw 4 2\n1 2\n2 3\n", None, "second problem line"),
            (TRIANGLE, "s td 1 3 3\nb 1 1 2 3\nb 1 1 2\n", "bag id 1 appears"),
            (TRIANGLE, "s td 1 3 3\ns td 1 3 3\nb 1 1 2 3\n", "more than one 's td'"),
            (TRIANGLE, "s td 1 9 3\nb 1 1 2 3\n", "largest bag has 9"),
            ("p tw 3 1\n0 1\n", None, "edge '0 1' names a vertex outside 1..3"),
            (TRIANGLE, "s td 1 3 3\nb 1 1 2 3 3\n", "bag 1 repeats a vertex"),
            *((TRIANGLE, td, reason) for td, reason in TD_OUT_OF_RANGE),
            # a line is classified by its exact first token
            ("pq tw 3 1\n1 2\n", None, "bad edge line: 'pq tw 3 1'"),
            ("p tw 3 1 extra\n1 2\n", None, "bad problem line: 'p tw 3 1 extra'"),
            (TRIANGLE, "s td 1 3 3\nbag 1 1 2 3\n", "bad edge line: 'bag 1 1 2 3'"),
            (TRIANGLE, "s td 2 3 3\nb 1 1 2 3\nb1 2 3\n1 2\n", "bad edge line: 'b1 2 3'"),
            (TRIANGLE, "sx td 1 3 3\nb 1 1 2 3\n", "bad edge line: 'sx td 1 3 3'"),
        ],
        ids=["gr-repeated-edge", "gr-second-p-line", "td-repeated-bag",
             "td-second-s-line", "td-largest-bag-field", "gr-vertex-out-of-range",
             "td-repeated-member", *TD_OUT_OF_RANGE_IDS,
             "gr-p-prefix-token", "gr-problem-line-extra-field", "td-bag-word",
             "td-b-glued-to-id", "td-s-prefix-token"],
    )
    def test_inconsistent_file_exit_two_one_line(self, tmp_path, graph, td, reason):
        (tmp_path / "g.gr").write_text(graph)
        args = ["solve", "--mode", "block", "--family", "k1k2",
                "-d", "3", "-k", "1", "--graph", "g.gr"]
        if td is not None:
            (tmp_path / "g.td").write_text(td)
            args += ["--td", "g.td"]
        proc = run_cli(args, tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("error:") and reason in proc.stderr

    @pytest.mark.parametrize("action", ["validate", "nice"])
    @pytest.mark.parametrize("td, reason", TD_OUT_OF_RANGE, ids=TD_OUT_OF_RANGE_IDS)
    def test_td_commands_reject_out_of_range_ids(
        self, tmp_path, monkeypatch, capsys, action, td, reason
    ):
        (tmp_path / "g.gr").write_text(TRIANGLE)
        (tmp_path / "g.td").write_text(td)
        monkeypatch.chdir(tmp_path)
        code = main(["td", action, "--graph", "g.gr", "--td", "g.td"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1, err
        assert err.startswith("error:") and reason in err

    @pytest.mark.parametrize(
        "args",
        [
            ["solve", "--mode", "block", "--family", "k1k2",
             "-d", "0", "-k", "1", "--graph", "c5.gr"],
            ["solve", "--mode", "block", "--family", "k1k2",
             "-d", "3", "-k", "-1", "--graph", "c5.gr"],
            ["enum-ud", "-d", "-2", "--family", "k1k2"],
            ["gen", "subgraph-iso", "-k", "2", "-t", "2",
             "--pattern-edges", "1-x", "--host-edges", "1-2", "-o", "out"],
            ["gen", "subgraph-iso", "-k", "2", "-t", "2",
             "--pattern-edges", "1-5", "--host-edges", "1-2", "-o", "out"],
            ["gen", "clique", "-k", "3", "-t", "2", "--planted", "1,2", "-o", "out"],
            ["solve", "--mode", "block", "--family", "k1k2",
             "-d", "3", "-k", "1", "--graph", "."],
            ["td", "validate", "--graph", "c5.gr"],
            ["selftest", "--trials", "0"],
            ["selftest", "--trials", "-1"],
            ["solve", "--mode", "block", "--family", "k1k2",
             "-d", "3", "-k", "1", "--graph", "bin.gr"],
            ["solve", "--mode", "component", "--family", "k1k2",
             "-d", "3", "-k", "1", "--graph", "c5.gr", "--td", "bin.gr"],
            ["td", "heuristic", "--graph", "bin.gr"],
            ["td", "validate", "--graph", "c5.gr", "--td", "bin.gr"],
            ["solve", "--mode", "block", "--engine", "oracle", "--family", "k1k2",
             "-d", "3", "-k", "1", "--graph", "c5.gr", "--witness"],
        ],
        ids=["solve-d-zero", "solve-k-negative", "enum-ud-d-negative",
             "gen-edge-not-integer", "gen-edge-out-of-range", "gen-planted-short",
             "solve-graph-directory", "td-validate-without-td",
             "selftest-trials-zero", "selftest-trials-negative",
             "solve-graph-not-utf8", "solve-td-not-utf8",
             "td-graph-not-utf8", "td-td-not-utf8", "solve-oracle-witness"],
    )
    def test_bad_input_exit_two_one_line(self, args, c5, monkeypatch, capsys):
        # a UTF-16 byte-order mark is not valid UTF-8
        (c5.parent / "bin.gr").write_bytes(b"\xff\xfep tw 5 5\n1 2\n")
        monkeypatch.chdir(c5.parent)
        code = main(args)
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1, err
        assert err.startswith("error:")
        if "bin.gr" in args:
            # the line names the file that is not UTF-8
            assert "bin.gr" in err, err


class TestHashSeedIndependence:
    def test_solve_identical_across_hash_seeds(self, tmp_path):
        (tmp_path / "g.gr").write_text(
            "p tw 7 8\n1 2\n2 3\n3 4\n4 5\n5 1\n5 6\n6 7\n7 5\n"
        )
        args = [
            "solve", "--mode", "component", "--family", "chordal",
            "-d", "4", "-k", "2", "--graph", "g.gr", "--json", "--witness",
        ]
        outs = []
        for seed in ("1", "2024"):
            proc = subprocess.run(
                [sys.executable, "-m", "blockvd.cli", *args],
                capture_output=True,
                cwd=tmp_path,
                env=child_env(PYTHONHASHSEED=seed),
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outs.append(proc.stdout)
        assert outs[0]
        assert outs[0] == outs[1]
