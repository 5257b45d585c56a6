"""End-to-end exercises of every subcommand through `main`."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from mprs import Profile, all_profiles, emit_game, is_nash, make_reachability, profile_to_json
from mprs.cli import main

from conftest import child_env, small_game


@pytest.fixture
def g1_file(tmp_path, g1, g1_hat):
    cycle = Profile({1: {"v1": "v2"}, 2: {"v2": "v1"}})
    path = tmp_path / "g1.json"
    path.write_text(emit_game(g1, {"hat": g1_hat, "cycle": cycle}), encoding="utf-8")
    return str(path)


@pytest.fixture
def g2_file(tmp_path, g2):
    path = tmp_path / "g2.json"
    path.write_text(emit_game(g2), encoding="utf-8")
    return str(path)


class TestValidate:
    def test_good_document(self, g1_file, capsys):
        assert main(["validate", g1_file]) == 0
        out = capsys.readouterr().out
        assert out == "valid: 3 vertices, 3 edges, 2 players, gamma=1/2\n"

    def test_invalid_document_lists_violations(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "players": [{"id": 1, "role": "reacher", "targets": ["a"]}],
                    "vertices": [{"id": "a", "owner": 1}],
                    "edges": [["a", "ghost"]],
                }
            ),
            encoding="utf-8",
        )
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "invalid game:" in err
        assert "ghost" in err

    def test_missing_file(self, capsys):
        assert main(["validate", "no/such/file.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_syntax_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_directory(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_undecodable_bytes(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"gamma": "½"}'.encode("latin-1"))
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path} is not UTF-8 text")


class TestSimulate:
    def test_play_outcome_payoffs(self, g1_file, capsys):
        assert main(["simulate", g1_file, "--profile", "hat", "--start", "v1"]) == 0
        assert capsys.readouterr().out == (
            "play: v1 -> v3 -> <terminal>\n"
            "outcome: target v3 hit at t=1\n"
            "payoffs: P1=+γ^1 P2=-γ^1\n"
        )

    def test_cycling_play(self, g1_file, capsys):
        assert main(["simulate", g1_file, "--profile", "cycle", "--start", "v1"]) == 0
        assert capsys.readouterr().out == (
            "play: v1 -> v2 -> v1\n"
            "outcome: no target is ever hit\n"
            "payoffs: P1=0 P2=0\n"
        )

    def test_unknown_start(self, g1_file, capsys):
        assert main(["simulate", g1_file, "--profile", "hat", "--start", "v9"]) == 1
        assert "unknown start" in capsys.readouterr().err

    def test_unknown_profile_name(self, g1_file, capsys):
        assert main(["simulate", g1_file, "--profile", "ghost", "--start", "v1"]) == 1
        assert "no profile named" in capsys.readouterr().err


class TestCheck:
    def test_equilibrium_yes(self, g1_file, capsys):
        assert main(["check", g1_file, "--profile", "hat"]) == 0
        assert capsys.readouterr().out == "equilibrium: yes\n"

    def test_equilibrium_no_names_the_deviation(self, g1_file, capsys):
        assert main(["check", g1_file, "--profile", "cycle"]) == 1
        assert capsys.readouterr().out == (
            "equilibrium: no\n"
            "  player 1 improves from v1: 0 -> +γ^1 via Move('v3')\n"
            "  player 1 improves from v2: 0 -> +γ^2\n"
        )

    def test_qualitative_flag(self, g1_file, capsys):
        assert main(["check", g1_file, "--profile", "cycle", "--qualitative"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("qualitative equilibrium: no\n")
        assert "player 1 improves from v1: 0 -> 1" in out


class TestSolve:
    def test_enum_default_first_equilibrium(self, g1_file, capsys):
        assert main(["solve", g1_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "count": 1,
            "equilibria": [{"1": {"v1": "v3"}, "2": {"v2": "v1"}}],
            "method": "enum",
        }

    def test_brd_converges_here(self, g1_file, capsys):
        assert main(["solve", g1_file, "--method", "brd"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["method"] == "brd"
        assert doc["equilibria"] == [{"1": {"v1": "v3"}, "2": {"v2": "v1"}}]

    def test_brd_out_of_rounds_falls_back_to_enumeration(self, g1_file, capsys):
        # The first-successor seed is no equilibrium, so one round cannot end
        # the dynamics.
        assert main(["solve", g1_file]) == 0
        enum = json.loads(capsys.readouterr().out)
        assert main(["solve", g1_file, "--method", "brd", "--max-rounds", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["method"] == "brd+enum"
        assert doc["equilibria"] == enum["equilibria"]

    def test_all_flag(self, g2_file, capsys):
        assert main(["solve", g2_file, "--all"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 1
        assert doc["equilibria"] == [{"1": {"w1": "w1"}}]

    def test_guard_from_environment(self, g1_file, capsys, monkeypatch):
        monkeypatch.setenv("MPRS_ENUM_GUARD", "1")
        assert main(["solve", g1_file]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("guard", ["abc", "0"])
    def test_malformed_guard_is_a_usage_error(self, g1_file, capsys, monkeypatch, guard):
        monkeypatch.setenv("MPRS_ENUM_GUARD", guard)
        assert main(["solve", g1_file]) == 2
        assert capsys.readouterr().err.startswith("error: MPRS_ENUM_GUARD")

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["--limit", "0"], id="0"),
            pytest.param(["--limit", "-1"], id="-1"),
            pytest.param(["--method", "brd", "--max-rounds", "0"], id="max-rounds-0"),
            pytest.param(["--method", "brd", "--max-rounds", "-5"], id="max-rounds--5"),
        ],
    )
    def test_limit_below_one_is_a_usage_error(self, g1_file, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["solve", g1_file, *argv])
        assert exc.value.code == 2
        assert f"argument {argv[-2]}: must be at least 1" in capsys.readouterr().err


class TestEnumerate:
    def test_lists_every_profile_in_order(self, g1_file, capsys):
        assert main(["enumerate", g1_file]) == 0
        lines = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
        assert lines == [
            {"is_ne": False, "profile": {"1": {"v1": "v2"}, "2": {"v2": "v1"}}},
            {"is_ne": True, "profile": {"1": {"v1": "v3"}, "2": {"v2": "v1"}}},
        ]

    def test_flags_are_the_verdict_of_each_profile(self, tmp_path, capsys):
        """Flags come from membership in the scan's equilibria; stdout is
        byte for byte what a flag from `is_nash` on each profile gives,
        on every acceptance game."""
        for seed in range(500):
            game = small_game(seed)
            path = tmp_path / f"game-{seed}.json"
            path.write_text(emit_game(game), encoding="utf-8")
            assert main(["enumerate", str(path)]) == 0, seed
            lines = (
                {"is_ne": is_nash(game, p).is_ne, "profile": profile_to_json(p)}
                for p in all_profiles(game)
            )
            expected = "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)
            assert capsys.readouterr().out == expected, seed

    def test_a_game_over_the_guard_prints_nothing(self, g1_file, capsys, monkeypatch):
        monkeypatch.setenv("MPRS_ENUM_GUARD", "1")
        assert main(["enumerate", g1_file]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")


class TestGen:
    def test_deterministic_stdout(self, capsys):
        argv = ["gen", "--seed", "11", "--vertices", "8", "--players", "2"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_output_file_parses_back(self, tmp_path, capsys):
        out = tmp_path / "game.json"
        argv = [
            "gen",
            "--seed", "3",
            "--vertices", "5",
            "--players", "2",
            "--density", "0.6",
            "-o", str(out),
        ]
        assert main(argv) == 0
        assert main(["validate", str(out)]) == 0
        assert "valid: 5 vertices" in capsys.readouterr().out

    def test_infeasible_parameters(self, capsys):
        argv = ["gen", "--seed", "0", "--vertices", "0", "--players", "1"]
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    def test_a_vertex_count_past_the_guard_is_refused(self, capsys, monkeypatch):
        monkeypatch.setenv("MPRS_ENUM_GUARD", "99")
        assert main(["gen", "--seed", "1", "--vertices", "10", "--players", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: search space of 100 candidates exceeds the guard")
        assert captured.out == ""

    def test_output_to_a_directory(self, tmp_path, capsys):
        argv = ["gen", "--seed", "3", "--vertices", "5", "--players", "2", "-o", str(tmp_path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""


class TestExportDot:
    def test_plain_graph(self, g1_file, capsys):
        assert main(["export-dot", g1_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph game {")
        assert '"v3" [label="v3\\nP2 avoider", shape=ellipse, peripheries=2];' in out

    def test_values_need_a_profile(self, g1_file, capsys):
        assert main(["export-dot", g1_file, "--values"]) == 2
        assert "--values needs --profile" in capsys.readouterr().err

    def test_highlight_and_values(self, g1_file, capsys):
        assert main(["export-dot", g1_file, "--profile", "hat", "--values"]) == 0
        assert capsys.readouterr().out == (
            "digraph game {\n"
            "  rankdir=LR;\n"
            '  "v1" [label="v1\\nP1 reacher\\nu1=+γ^1 u2=-γ^1", shape=box];\n'
            '  "v2" [label="v2\\nP2 avoider\\nu1=+γ^2 u2=-γ^2", shape=ellipse];\n'
            '  "v3" [label="v3\\nP2 avoider\\nu1=+1 u2=-1", shape=ellipse, peripheries=2];\n'
            '  "v1" -> "v2";\n'
            '  "v1" -> "v3" [penwidth=2.5, color="royalblue"];\n'
            '  "v2" -> "v1" [penwidth=2.5, color="royalblue"];\n'
            "}\n"
        )

    def test_write_to_file(self, g1_file, tmp_path):
        target = tmp_path / "g.dot"
        assert main(["export-dot", g1_file, "-o", str(target)]) == 0
        assert target.read_text(encoding="utf-8").startswith("digraph game {")

    @staticmethod
    def one_vertex_file(tmp_path, vid: str) -> str:
        doc = {
            "players": [{"id": 1, "role": "reacher", "targets": [vid]}],
            "vertices": [{"id": vid, "owner": 1}],
            "edges": [],
        }
        path = tmp_path / "one.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("out", [[], ["-o", "g.dot"]], ids=["stdout", "file"])
    def test_a_lone_surrogate_vertex_id_is_an_error(self, tmp_path, capsys, out, monkeypatch):
        # Valid JSON, yet no UTF-8 output can hold the id.
        monkeypatch.chdir(tmp_path)
        assert main(["export-dot", self.one_vertex_file(tmp_path, "\ud800"), *out]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: vertex id must be Unicode text, got '\\ud800'\n"
        assert captured.out == "" and not (tmp_path / "g.dot").exists()

    def test_output_the_terminal_cannot_encode_is_an_error(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "mprs", "export-dot", self.one_vertex_file(tmp_path, "é")],
            capture_output=True,
            encoding="utf-8",
            env=child_env(PYTHONIOENCODING="ascii"),
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: 'ascii' codec can't encode character '\\xe9'")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


class TestCrossCheck:
    def test_worked_game(self, g1_file, capsys):
        assert main(["cross-check", g1_file]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "attractor: ['v1', 'v2', 'v3']"
        assert out[1] == "equilibria checked: 1"
        assert out[2] == "cross-check: ok"

    def test_reports_each_mismatch(self, g3_arena, tmp_path, capsys, monkeypatch):
        # A broken attractor route must show up against the equilibria.
        path = tmp_path / "g3.json"
        path.write_text(emit_game(make_reachability(g3_arena)), encoding="utf-8")
        monkeypatch.setattr("mprs.classic.attractor", lambda arena: frozenset())
        assert main(["cross-check", str(path)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "attractor: []"
        assert "mismatch at v3: equilibrium says win=True, attractor says False" in out

    def test_needs_two_players(self, g2_file, tmp_path, capsys):
        # g2 has two players already, so build a three-player document
        text = json.dumps(
            {
                "players": [
                    {"id": 1, "role": "reacher", "targets": ["a"]},
                    {"id": 2, "role": "avoider", "targets": ["a"]},
                    {"id": 3, "role": "avoider", "targets": ["a"]},
                ],
                "vertices": [{"id": "a", "owner": 1}, {"id": "b", "owner": 2}],
                "edges": [["b", "a"]],
            }
        )
        path = tmp_path / "three.json"
        path.write_text(text, encoding="utf-8")
        assert main(["cross-check", str(path)]) == 1
        assert "two players" in capsys.readouterr().err

    def test_needs_opposed_roles(self, tmp_path, capsys):
        text = json.dumps(
            {
                "players": [
                    {"id": 1, "role": "reacher", "targets": ["a"]},
                    {"id": 2, "role": "reacher", "targets": ["a"]},
                ],
                "vertices": [{"id": "a", "owner": 1}, {"id": "b", "owner": 2}],
                "edges": [["b", "a"]],
            }
        )
        path = tmp_path / "same.json"
        path.write_text(text, encoding="utf-8")
        assert main(["cross-check", str(path)]) == 1
        assert "one reacher and one avoider" in capsys.readouterr().err

    def test_needs_shared_targets(self, tmp_path, capsys):
        text = json.dumps(
            {
                "players": [
                    {"id": 1, "role": "reacher", "targets": ["a"]},
                    {"id": 2, "role": "avoider", "targets": ["b"]},
                ],
                "vertices": [{"id": "a", "owner": 1}, {"id": "b", "owner": 2}],
                "edges": [["a", "b"], ["b", "a"]],
            }
        )
        path = tmp_path / "split.json"
        path.write_text(text, encoding="utf-8")
        assert main(["cross-check", str(path)]) == 1
        assert "shared target" in capsys.readouterr().err


class TestUsage:
    def test_no_arguments(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["conquer"])
        assert exc.value.code == 2

    def test_module_entry_point(self, g1_file):
        proc = subprocess.run(
            [sys.executable, "-m", "mprs", "validate", g1_file],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("valid: 3 vertices")
