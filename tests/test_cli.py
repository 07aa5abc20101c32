"""Tests for the ``python -m repro`` command-line front door."""

import pytest

from repro.__main__ import build_parser, main
from repro._version import __version__

#: Every option of every command.  A command missing here fails
#: ``test_inventory_covers_every_command``, so a new one cannot skip the
#: strict-parser guards below; an option missing here fails ``--help``.
OPTIONS = {
    "figure6": ["--json"],
    "table1": ["--small", "--json"],
    "ablations": ["--small"],
    "table2": ["--small"],
    "krylov": ["--small"],
    "verify": [],
    "codegen": ["--c"],
    "demo": ["--backend"],
    "explain": [
        "--backend", "--processors", "--schedule", "--chunk", "--telemetry",
        "--export", "--gantt", "--json",
    ],
    "lint": [
        "--json", "--schedule", "--chunk", "--processors", "--strip-block",
        "--backend", "--rules", "--strict", "--baseline", "--write-baseline",
        "--prune-baseline",
    ],
    "sanitize": [
        "--backend", "--processors", "--json", "--strict", "--mutants",
        "--min-kill",
    ],
    "version": [],
}
#: Commands that need a target before anything else is looked at.
TARGET = {"lint": ["chain"], "sanitize": ["chain"]}


def one_error_line(captured, command):
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"repro {command}: ")
    return line


class TestCli:
    def test_no_args_prints_usage(self, capsys):
        assert main([]) == 0
        assert "Commands" in capsys.readouterr().out

    def test_help(self, capsys):
        assert main(["--help"]) == 0
        assert "figure6" in capsys.readouterr().out

    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert __version__ in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro: ") and "'frobnicate'" in line

    def test_usage_is_generated_from_the_command_table(self, capsys):
        assert main([]) == 0
        out = " ".join(capsys.readouterr().out.split())
        commands = build_parser().commands
        assert len(commands) == 12
        for name, sub in commands.items():
            assert f" {name} " in out
            assert sub.description in out

    @pytest.mark.parametrize(
        "name", ["bench-vectorized", "perf", "profile", "doctor", "analyze"]
    )
    def test_removed_commands_are_unknown(self, capsys, name):
        assert main([name]) == 2
        assert f"invalid choice: {name!r}" in capsys.readouterr().err

    def test_inventory_covers_every_command(self):
        assert set(OPTIONS) == set(build_parser().commands)

    @pytest.mark.parametrize("command", OPTIONS)
    def test_unknown_option_exits_2_with_one_line(self, capsys, command):
        argv = [command, *TARGET.get(command, []), "--definitely-not-an-option"]
        assert main(argv) == 2
        line = one_error_line(capsys.readouterr(), command)
        assert "unrecognized arguments: --definitely-not-an-option" in line

    @pytest.mark.parametrize("command", OPTIONS)
    def test_help_exits_0_and_names_every_option(self, capsys, command):
        assert main([command, "--help"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert f"python -m repro {command}" in captured.out
        for option in OPTIONS[command]:
            assert option in captured.out

    @pytest.mark.parametrize(
        "argv",
        [
            ["explain", "--processors=x"],
            ["explain", "--backend=cuda"],
            ["explain", "bogus:n=3"],
            ["explain", "--frob"],
            ["verify", "abc"],
            ["figure6", "--bogus"],
            ["demo", "--backend=cuda"],
            # Accepted (or a traceback) while each command parsed its own
            # argv; rejected by construction now that one parser does.
            ["krylov", "--smal"],
            ["table1", "--small", "--bogus"],
            ["ablations", "--bogus"],
            ["explain", "chain:n=100,d=1", "chain:n=200,d=2"],
            ["verify", "10", "2", "3", "4"],
            ["verify", "-5"],
            ["figure6", "0"],
            ["figure6", "1500", "--json"],
            # Found before the sweep runs, not as a traceback after it.
            ["figure6", "1500", "--json", "/nonexistent-directory/rows.json"],
            ["table2", "--small", "0"],
            ["table2", "--small", "x"],
            ["sanitize", "chain", "--processors=0"],
            ["lint", "chain", "--schedule=bogus"],
            ["lint", "chain", "--chunk=0"],
            ["lint", "chain", "--processors=0"],
            ["explain", "--backend=nope"],
        ],
    )
    def test_malformed_argument_exits_2_with_one_line(self, capsys, argv):
        assert main(argv) == 2
        one_error_line(capsys.readouterr(), argv[0])

    def test_verify_command(self, capsys):
        assert main(["verify", "60", "3"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "preprocessed-doacross" in out

    def test_demo_command(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "staircase" in out
        assert "doconsider" in out
        assert "busy-wait" in out

    def test_figure6_command_small(self, capsys):
        assert main(["figure6", "1500"]) == 0
        assert "shape check: PASS" in capsys.readouterr().out

    def test_figure6_json_path_on_either_side_of_n(self, tmp_path, capsys):
        out = tmp_path / "rows.json"
        assert main(["figure6", "--json", str(out), "1500"]) == 0
        assert f"wrote {out}" in capsys.readouterr().out
        assert out.read_text().startswith("[")

    def test_table1_command_small(self, capsys):
        assert main(["table1", "--small"]) == 0
        assert "shape check: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "kind,marker",
        [
            ("irregular", "iter(a(i)) = i"),
            ("affine", "closed form"),
            ("chain", "a-priori dependence distance"),
            ("independent", "no synchronization"),
        ],
    )
    def test_codegen_command(self, capsys, kind, marker):
        assert main(["codegen", kind]) == 0
        assert marker in capsys.readouterr().out

    def test_codegen_unknown_kind(self, capsys):
        assert main(["codegen", "bogus"]) == 2

    def test_table2_command_small(self, capsys):
        assert main(["table2", "--small", "4"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_krylov_command_small(self, capsys):
        assert main(["krylov", "--small"]) == 0
        assert "Krylov motivation" in capsys.readouterr().out
