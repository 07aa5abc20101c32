"""Tests for the ``python -m repro`` command-line front door."""

import pytest

from repro.__main__ import COMMANDS, main
from repro._version import __version__


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
        assert "unknown command" in capsys.readouterr().out

    def test_usage_is_generated_from_the_command_table(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert len(COMMANDS) == 14
        for name, command in COMMANDS.items():
            assert f"  {name}" in out
            assert command.summary in out

    @pytest.mark.parametrize("name", ["bench-vectorized", "perf"])
    def test_removed_commands_are_unknown(self, capsys, name):
        assert main([name]) == 2
        assert "unknown command" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["doctor", "--processors=x"],
            ["doctor", "--backend=cuda"],
            ["doctor", "bogus:n=3"],
            ["doctor", "--frob"],
            ["verify", "abc"],
            ["figure6", "--bogus"],
            ["demo", "--backend=cuda"],
        ],
    )
    def test_malformed_argument_exits_2_with_one_line(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"repro {argv[0]}: ")

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
