"""Documentation-consistency tests: the docs must track the repository.

Stale docs are bugs too: these tests fail when an example, experiment
index row, or experiment command named in README/DESIGN/EXPERIMENTS stops
matching the code (or a new example is added without being documented).
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    return (ROOT / name).read_text()


class TestExamplesDocumented:
    def test_readme_lists_every_example(self):
        readme = read("README.md")
        examples = sorted(p.name for p in (ROOT / "examples").glob("*.py"))
        assert examples, "no examples found"
        for example in examples:
            assert example in readme, f"README does not mention {example}"

    def test_readme_mentions_no_phantom_examples(self):
        readme = read("README.md")
        mentioned = set(re.findall(r"examples/([a-z_]+\.py)", readme))
        existing = {p.name for p in (ROOT / "examples").glob("*.py")}
        assert mentioned <= existing, mentioned - existing


class TestDesignTargetsExist:
    def test_experiment_index_is_generated_from_the_table(self):
        """DESIGN.md §5 holds exactly what the experiment table renders
        (regenerate: ``python -c "from repro.bench.experiments import
        design_index; print(design_index())"``)."""
        from repro.bench.experiments import design_index

        section = read("DESIGN.md").split("## 5. Per-experiment index")[1]
        table = [
            line for line in section.split("\n## ")[0].splitlines()
            if line.startswith("|")
        ]
        assert table == design_index().splitlines()

    def test_module_paths_in_design_exist(self):
        design = read("DESIGN.md")
        for mod in set(re.findall(r"`src/repro/([a-z_]+)/`", design)):
            assert (ROOT / "src" / "repro" / mod).is_dir(), mod

    def test_named_module_files_exist(self):
        design = read("DESIGN.md")
        # `- `name.py` — ...` bullets under the inventory sections.
        current_pkg = None
        for line in design.splitlines():
            pkg = re.search(r"`src/repro/([a-z_]+)/`", line)
            if pkg:
                current_pkg = pkg.group(1)
                continue
            m = re.match(r"\s+- `([a-z_]+\.py)`", line)
            if m and current_pkg:
                path = ROOT / "src" / "repro" / current_pkg / m.group(1)
                assert path.exists(), f"{current_pkg}/{m.group(1)}"


DOCS_NAMING_COMMANDS = (
    "README.md", "EXPERIMENTS.md", "DESIGN.md", "docs/paper_mapping.md",
)


def commands_named(doc):
    """What follows each ``python -m repro `` in ``doc``: a command, or an
    ``a|b|c`` list of them."""
    text = " ".join(read(doc).split())  # commands wrap across lines
    return re.findall(r"python -m repro ([a-z0-9|-]+)", text)


#: Experiment module -> the sub-command that runs it.
EXPERIMENT_COMMANDS = {
    "repro.bench.figure6": "figure6",
    "repro.bench.table1": "table1",
    "repro.bench.ablations": "ablations",
    "repro.bench.amortized_table": "table2",
    "repro.bench.krylov_fraction": "krylov",
}


class TestExperimentCommandsRun:
    @pytest.mark.parametrize("module", EXPERIMENT_COMMANDS)
    def test_documented_commands_importable(self, module):
        """Every experiment module imports, and the command that runs it is
        a sub-command of the one parser that some doc names as ``python -m
        repro <command>`` (alone or in an ``a|b|c`` list)."""
        from repro.__main__ import build_parser

        __import__(module)
        command = EXPERIMENT_COMMANDS[module]
        assert command in build_parser().commands
        assert any(
            command in names.split("|")
            for doc in DOCS_NAMING_COMMANDS
            for names in commands_named(doc)
        ), f"python -m repro {command} not mentioned in any doc"

    def test_cli_help_lists_commands_that_exist(self):
        out = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
            cwd=ROOT,
        )
        assert out.returncode == 0
        for command in ("figure6", "table1", "ablations", "verify", "demo",
                        "codegen", "table2", "krylov"):
            assert command in out.stdout

    def test_docs_use_the_one_door(self):
        for doc in DOCS_NAMING_COMMANDS:
            assert "python -m repro." not in read(doc), doc

    def test_docs_name_only_commands_in_the_table(self):
        """Every ``python -m repro <command>`` a doc names (alternatives
        written ``a|b|c`` included) is a sub-command of the one parser."""
        from repro.__main__ import build_parser

        commands = build_parser().commands
        for doc in DOCS_NAMING_COMMANDS:
            for names in commands_named(doc):
                for name in names.split("|"):
                    assert name in commands, f"{doc} names {name!r}"


class TestExperimentsDocNumbers:
    def test_paper_table1_numbers_match_source(self):
        """EXPERIMENTS.md's 'Paper (ms)' table must agree with the
        PAPER_TABLE1 constants the bench uses."""
        from repro.bench.table1 import PAPER_TABLE1

        text = read("EXPERIMENTS.md")
        for name, (doacross, rearranged, seq) in PAPER_TABLE1.items():
            pattern = rf"\| {re.escape(name)} \| {doacross} \| {rearranged} \| {seq} \|"
            assert re.search(pattern, text), f"paper row for {name}"
