import json
import subprocess
import sys
from pathlib import Path

import pytest

from blockvd.cli import main
from conftest import child_env


def run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "blockvd.cli", *args],
        capture_output=True,
        cwd=cwd,
        env=child_env(),
        text=True,
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

    def test_usage_error(self, tmp_path, capsys):
        code = main(
            [
                "solve", "--mode", "block", "--family", "nosuch",
                "-d", "3", "-k", "0", "--graph", str(tmp_path / "missing.gr"),
            ]
        )
        capsys.readouterr()
        assert code == 2


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
        capsys.readouterr()

    def test_enum_ud(self, capsys):
        assert main(["enum-ud", "-d", "3", "--family", "cliques"]) == 0
        out = capsys.readouterr().out
        assert out.strip().splitlines()[-1] == "total: 4"


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
        ],
        ids=["solve-d-zero", "solve-k-negative", "enum-ud-d-negative",
             "gen-edge-not-integer", "gen-edge-out-of-range", "gen-planted-short",
             "solve-graph-directory", "td-validate-without-td",
             "selftest-trials-zero", "selftest-trials-negative",
             "solve-graph-not-utf8", "solve-td-not-utf8",
             "td-graph-not-utf8", "td-td-not-utf8"],
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


    @pytest.mark.parametrize(
        "args",
        [
            ["solve", "--mode", "block", "--family", "k1k2",
             "-d", "3", "-k", "1", "--graph", "c5.gr"],
            ["enum-ud", "-d", "3", "--family", "k1k2"],
        ],
        ids=["solve", "enum-ud"],
    )
    def test_malformed_ud_cap_exit_two_one_line(self, args, c5, monkeypatch, capsys):
        monkeypatch.chdir(c5.parent)
        monkeypatch.setenv("BLOCKVD_UD_CAP", "x")
        code = main(args)
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1, err
        assert err.startswith("error:") and "BLOCKVD_UD_CAP" in err


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
