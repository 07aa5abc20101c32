"""The experiment table (``repro.bench.experiments.EXPERIMENTS``): every
record's shape check passes at reduced size and at full size, every check
can fail, and everything that enumerates experiments agrees with the table.
"""

import copy
import dataclasses

import pytest

from repro import __main__ as cli
from repro.bench.experiments import EXPERIMENTS
from repro.bench.harness import rows_of

every_experiment = pytest.mark.parametrize(
    "exp", EXPERIMENTS, ids=[exp.name for exp in EXPERIMENTS]
)


def metric(label, name, value):
    """Doctor a result: overwrite one metric of the row called ``label``."""

    def doctor(rows):
        next(r for r in rows if r.label == label).metrics[name] = value

    return doctor


def cycles(label, factor):
    """Doctor a result: scale the simulated time of the row ``label``."""

    def doctor(rows):
        result = next(r for r in rows if r.label == label).result
        result.total_cycles = int(result.total_cycles * factor)

    return doctor


#: Experiment -> a corruption of its reduced-size rows, and what the check
#: must say about it.
DOCTORED = {
    "figure6": (cycles("M=1,L=1", 5), "plateau"),
    "table1": (metric("SPE2", "reordered_cycles", 10**9), "slower"),
    "ablation-a": (cycles("cyclic/chunk=1", 100), "does not beat"),
    "ablation-b": (cycles("block=2000", 2), "smallest strip-mine block"),
    "ablation-c": (metric("M=1/linear", "inspector_cycles", 1), "inspector"),
    "ablation-d": (metric("P=1", "plain_speedup", 1.5), "one processor"),
    "ablation-e": (cycles("bus=4", 0), "monotone"),
    "ablation-f": (metric("block/miss=10", "misses", 999), "not far above"),
    "ablation-h": (cycles("L=4/P=16", 0.25), "still speeds up"),
    "ablation-g": (metric("instances=20", "gain_vs_full", 1.0), "monotone"),
    "model": (metric("chain d=1", "relative_error", 0.5), "off the simulator"),
    "table2": (metric("SPE2", "amort+reord", 1e12), "compose"),
    "krylov": (metric("SPE2", "precond_fraction_seq", 0.1), "large"),
}


class TestShape:
    @every_experiment
    def test_check_passes_reduced(self, measured, exp):
        exp.check(measured(exp, "reduced"))

    @pytest.mark.slow
    @every_experiment
    def test_check_passes_full(self, measured, exp):
        exp.check(measured(exp, "full"))

    @every_experiment
    def test_check_can_fail(self, measured, exp):
        doctor, message = DOCTORED[exp.name]
        result = copy.deepcopy(measured(exp, "reduced"))
        doctor(rows_of(result))
        with pytest.raises(AssertionError, match=message):
            exp.check(result)

    @every_experiment
    def test_report_has_a_line_per_row(self, measured, exp):
        result = measured(exp, "reduced")
        assert len(exp.report(result).splitlines()) > len(rows_of(result))


class TestOneEnumeration:
    def test_names_are_unique_and_all_doctored(self):
        names = [exp.name for exp in EXPERIMENTS]
        assert len(names) == len(set(names)) == 13
        assert set(DOCTORED) == set(names)

    def test_cli_experiment_commands_are_the_tables(self):
        parsers = cli.build_parser().commands
        routed = {
            name
            for name, sub in parsers.items()
            if sub.get_default("handler") is cli._experiment
        }
        assert routed == {exp.command for exp in EXPERIMENTS if exp.command}
        assert not hasattr(cli, "EXPERIMENTS")

    def test_ablations_expands_to_a_through_h(self):
        letters = sorted(
            exp.name[-1] for exp in EXPERIMENTS if exp.command == "ablations"
        )
        assert letters == list("abcdefgh")

    def test_options_are_parsed_by_the_command(self):
        """Every option a record's ``run`` takes is one its command parses
        and one ``run`` accepts."""
        parser = cli.build_parser()
        for exp in EXPERIMENTS:
            if exp.command:
                args = parser.parse_args([exp.command])
                assert all(hasattr(args, option) for option in exp.options)


class TestShapeCheckVerdict:
    """``python -m repro <command>`` ends each report with its check."""

    @pytest.fixture
    def rerun(self, monkeypatch, measured):
        """``rerun(doctor)``: the commands print the session's reduced-size
        results, ``doctor[name]`` applied to a copy, instead of measuring."""
        from repro.bench import experiments

        def install(doctor):
            def canned(exp):
                def run(**options):
                    result = copy.deepcopy(measured(exp, "reduced"))
                    doctor.get(exp.name, lambda rows: None)(rows_of(result))
                    return result

                return dataclasses.replace(exp, run=run)

            monkeypatch.setattr(
                experiments, "EXPERIMENTS", tuple(map(canned, EXPERIMENTS))
            )

        return install

    def test_failed_check_is_exit_1_after_the_report(self, capsys, rerun):
        rerun({"table1": DOCTORED["table1"][0]})
        assert cli.main(["table1", "--small"]) == 1
        captured = capsys.readouterr()
        assert "Table 1" in captured.out
        assert "shape check: PASS" not in captured.out
        (line,) = captured.err.splitlines()
        assert line.startswith("shape check: FAIL — SPE2: doconsider reordering")

    def test_ablations_end_each_table_with_its_check(self, capsys, rerun):
        rerun({})
        assert cli.main(["ablations", "--small"]) == 0
        out = capsys.readouterr().out
        assert out.count("shape check: PASS") == out.count("Ablation ") == 8

    def test_one_failed_ablation_does_not_hide_the_others(self, capsys, rerun):
        rerun({"ablation-e": DOCTORED["ablation-e"][0]})
        assert cli.main(["ablations"]) == 1
        captured = capsys.readouterr()
        assert captured.out.count("shape check: PASS") == 7
        assert captured.err.startswith("shape check: FAIL — total cycles by bus")
