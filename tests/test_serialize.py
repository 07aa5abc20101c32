"""Tests for run-result serialization."""

import json

from repro.core.doacross import PreprocessedDoacross
from repro.core.serialize import result_to_dict, result_to_json, results_to_csv
from repro.passes import PlanSpec
from repro.workloads.testloop import make_test_loop


def sample_results():
    runner = PreprocessedDoacross(processors=4)
    return [
        runner.run(make_test_loop(n=60, m=1, l=3)),
        runner.run(make_test_loop(n=60, m=2, l=4)),
    ]


class TestResultToDict:
    def test_roundtrips_through_json(self):
        result = sample_results()[0]
        record = json.loads(result_to_json(result))
        assert record["strategy"] == "preprocessed-doacross"
        assert record["processors"] == 4
        assert record["total_cycles"] == result.total_cycles
        assert record["efficiency"] == result.efficiency

    def test_phases_flattened(self):
        record = result_to_dict(sample_results()[0])
        assert set(record["phases"]) == {
            "inspector",
            "executor",
            "postprocessor",
        }
        assert record["phases"]["executor"]["iterations"] == 60

    def test_y_summarized_not_embedded(self):
        record = result_to_dict(sample_results()[0])
        assert record["y_len"] > 0
        assert len(record["y_checksum"]) == 16
        assert "y" not in record

    def test_checksum_distinguishes_values(self):
        a, b = sample_results()
        assert (
            result_to_dict(a)["y_checksum"] != result_to_dict(b)["y_checksum"]
        )

    def test_identical_runs_identical_records(self):
        runner = PreprocessedDoacross(processors=4)
        loop = make_test_loop(n=50, m=1, l=4)
        r1 = result_to_json(runner.run(loop))
        r2 = result_to_json(runner.run(loop))
        assert r1 == r2

    def test_extras_keep_json_safe_values_drop_the_rest(self):
        import numpy as np

        result = sample_results()[0]
        result.extras["array"] = [1, 2, 3]
        result.extras["note"] = "fine"
        result.extras["nested"] = {"ok": True, "trace": object()}
        result.extras["np"] = np.int64(7)
        result.extras["tracer"] = object()
        record = result_to_dict(result)
        # JSON-representable structures survive (the lint / race_check
        # reports ride through --json); unrepresentable leaves drop out.
        assert record["extras"]["array"] == [1, 2, 3]
        assert record["extras"]["note"] == "fine"
        assert record["extras"]["nested"] == {"ok": True}
        assert record["extras"]["np"] == 7
        assert "tracer" not in record["extras"]
        json.dumps(record)  # the whole record stays serializable


class TestWrapperCompositionExtras:
    """The validate and observe hooks must compose in either order, and
    their reports must survive into the serialized record (regression: the
    old scalar-only extras filter silently dropped both)."""

    def _check(self, runner, loop):
        import numpy as np

        result = runner.run(loop)
        assert np.array_equal(result.y, loop.run_sequential())
        assert result.telemetry is not None
        record = result_to_dict(result)
        assert record["extras"]["race_check"]["passed"] is True
        assert record["extras"]["race_check"]["checked_edges"] > 0
        assert isinstance(record["extras"]["lint"], list)
        json.dumps(record)

    def test_validate_then_observe(self):
        from repro.backends import make_runner

        loop = make_test_loop(n=60, m=2, l=8)
        spec = PlanSpec(backend="vectorized", validate="static", observe=True)
        self._check(make_runner(spec=spec), loop)

    def test_observe_then_validate(self):
        from repro.backends import HookedRunner, make_runner
        from repro.backends.hooks import Observe, StaticValidate

        loop = make_test_loop(n=60, m=2, l=8)
        inner = make_runner("vectorized")
        self._check(HookedRunner(inner, [Observe, StaticValidate]), loop)


class TestCsv:
    def test_header_and_rows(self):
        text = results_to_csv(sample_results())
        lines = text.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("loop,strategy,processors")
        assert "preprocessed-doacross" in lines[1]

    def test_commas_in_fields_quoted(self):
        results = sample_results()
        results[0].loop_name = "a,b"
        text = results_to_csv(results)
        assert '"a,b"' in text

    def test_empty_list(self):
        text = results_to_csv([])
        assert text.strip() == (
            "loop,strategy,processors,schedule,order,total_cycles,"
            "sequential_cycles,speedup,efficiency,wait_cycles,y_checksum"
        )
