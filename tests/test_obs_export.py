"""Telemetry exporters: Chrome trace-event JSON, JSONL spans, ASCII Gantt."""

import json

import pytest

from repro import PlanSpec
from repro.backends import make_runner
from repro.obs import (
    CLOCK_CYCLES,
    MetricsRegistry,
    Span,
    Telemetry,
    chrome_trace,
    gantt,
    spans_jsonl,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.obs.spans import CAT_COMPUTE, CAT_RUN, CAT_WAIT, WHOLE_RUN_LANE
from repro.workloads.testloop import make_test_loop


@pytest.fixture(scope="module")
def threaded_telemetry():
    loop = make_test_loop(n=300, m=2, l=8)
    runner = make_runner(spec=PlanSpec(backend="threaded", processors=4, observe=True))
    return runner.run(loop).telemetry


def synthetic_telemetry() -> Telemetry:
    spans = [
        Span("run", CAT_RUN, 0.0, 100.0, lane=WHOLE_RUN_LANE),
        Span("compute", CAT_COMPUTE, 0.0, 40.0, lane=0),
        Span("wait", CAT_WAIT, 40.0, 60.0, lane=0, attrs={"element": 7}),
        Span("compute", CAT_COMPUTE, 60.0, 100.0, lane=0),
        Span("compute", CAT_COMPUTE, 0.0, 100.0, lane=1),
    ]
    metrics = MetricsRegistry()
    metrics.count("busy_waits", 1)
    return Telemetry(backend="simulated", clock=CLOCK_CYCLES, spans=spans,
                     metrics=metrics)


class TestChromeTrace:
    def test_structure(self, threaded_telemetry):
        trace = chrome_trace(threaded_telemetry)
        events = trace["traceEvents"]
        assert events
        assert {e["ph"] for e in events} <= {"X", "M"}
        for e in events:
            if e["ph"] == "X":
                assert e["ts"] >= 0 and e["dur"] >= 0
                assert isinstance(e["name"], str)
        # One X event per span, metadata names each lane.
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == len(threaded_telemetry.spans)
        names = {
            e["args"]["name"] for e in events if e["name"] == "thread_name"
        }
        assert "construct" in names
        assert any(n.startswith("lane ") for n in names)
        json.dumps(trace)  # must be JSON-safe as-is

    def test_wall_clock_scaled_to_microseconds(self, threaded_telemetry):
        trace = chrome_trace(threaded_telemetry)
        span_total = threaded_telemetry.span_total()
        max_end = max(
            e["ts"] + e["dur"]
            for e in trace["traceEvents"]
            if e["ph"] == "X"
        )
        assert max_end == pytest.approx(span_total * 1e6, rel=1e-9)
        assert trace["otherData"]["time_unit"] == "microseconds"

    def test_cycle_clock_one_cycle_is_one_us(self):
        trace = chrome_trace(synthetic_telemetry())
        run = next(
            e for e in trace["traceEvents"]
            if e["ph"] == "X" and e["name"] == "run"
        )
        assert run["ts"] == 0.0 and run["dur"] == 100.0
        assert trace["otherData"]["time_unit"] == "cycles-as-us"

    def test_whole_run_lane_maps_to_tid_zero(self):
        trace = chrome_trace(synthetic_telemetry())
        run = next(
            e for e in trace["traceEvents"]
            if e["ph"] == "X" and e["name"] == "run"
        )
        assert run["tid"] == 0
        lane0 = [
            e for e in trace["traceEvents"]
            if e["ph"] == "X" and e["name"] == "wait"
        ]
        assert lane0[0]["tid"] == 1  # lane k -> tid k+1
        assert lane0[0]["args"] == {"element": 7}

    def test_write_round_trips(self, threaded_telemetry, tmp_path):
        path = write_chrome_trace(threaded_telemetry, tmp_path / "t.json")
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"]
        assert loaded["otherData"]["backend"] == "threaded"
        assert "metrics" in loaded["otherData"]


class TestSpansJsonl:
    def test_every_line_parses(self, threaded_telemetry):
        lines = spans_jsonl(threaded_telemetry).strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["record"] == "telemetry"
        assert records[0]["backend"] == "threaded"
        assert "metrics" in records[0]
        spans = [r for r in records if r["record"] == "span"]
        assert len(spans) == len(threaded_telemetry.spans)
        for r in spans:
            assert {"name", "cat", "start", "end", "lane", "attrs"} <= r.keys()

    def test_write(self, threaded_telemetry, tmp_path):
        path = write_spans_jsonl(threaded_telemetry, tmp_path / "s.jsonl")
        assert len(path.read_text().strip().splitlines()) == (
            len(threaded_telemetry.spans) + 1
        )


class TestGantt:
    def test_glyphs_and_rows(self):
        chart = gantt(synthetic_telemetry(), width=50)
        lines = chart.splitlines()
        assert "busy-wait" in lines[0]
        assert lines[1].startswith("p0  |")
        assert lines[2].startswith("p1  |")
        assert "." in lines[1]  # the wait span
        assert "#" in lines[1]
        assert set(lines[2]) <= {"p", "1", " ", "|", "#"}  # lane 1 never waits
        assert len(lines[1]) == len("p0  |") + 50 + 1

    def test_threaded_chart_renders(self, threaded_telemetry):
        chart = gantt(threaded_telemetry)
        assert chart.splitlines()[0].startswith("t = 0 ..")
        assert "ms" in chart.splitlines()[0]
        assert "#" in chart

    def test_empty_telemetry(self):
        empty = Telemetry(backend="threaded", clock=CLOCK_CYCLES)
        assert gantt(empty) == "(no activity spans to draw)"


class TestEdgeCases:
    """Exporter edge cases: empty recorders, single spans, round-trips."""

    def test_empty_recorder_normalizes_and_exports(self):
        from repro.obs import SpanRecorder

        recorder = SpanRecorder()
        assert recorder.normalized() == []
        telemetry = Telemetry(
            backend="threaded", clock=CLOCK_CYCLES, spans=recorder.normalized()
        )
        assert telemetry.spans == []
        assert gantt(telemetry) == "(no activity spans to draw)"
        trace = chrome_trace(telemetry)
        assert all(e["ph"] == "M" for e in trace["traceEvents"])
        lines = spans_jsonl(telemetry).strip().splitlines()
        assert len(lines) == 1  # header only
        assert json.loads(lines[0])["record"] == "telemetry"

    def test_single_span_gantt(self):
        only = Telemetry(
            backend="simulated",
            clock=CLOCK_CYCLES,
            spans=[Span("compute", CAT_COMPUTE, 0.0, 10.0, lane=0)],
        )
        lines = gantt(only, width=20).splitlines()
        assert lines[1].startswith("p0  |")
        assert "#" in lines[1]

    def test_zero_duration_single_span_does_not_crash(self):
        instant = Telemetry(
            backend="simulated",
            clock=CLOCK_CYCLES,
            spans=[Span("compute", CAT_COMPUTE, 5.0, 5.0, lane=0)],
        )
        assert isinstance(gantt(instant), str)

    def test_chrome_trace_events_are_pid_tagged(self, threaded_telemetry):
        trace = chrome_trace(threaded_telemetry)
        assert all("pid" in e and "tid" in e for e in trace["traceEvents"])
        # All lanes share one process; tids partition the spans by lane.
        assert {e["pid"] for e in trace["traceEvents"]} == {0}
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len({e["tid"] for e in xs}) > 1

    def test_jsonl_round_trip(self, threaded_telemetry, tmp_path):
        from repro.obs import read_spans_jsonl

        path = write_spans_jsonl(threaded_telemetry, tmp_path / "rt.jsonl")
        loaded = read_spans_jsonl(path)
        assert loaded.as_dict() == threaded_telemetry.as_dict()

    def test_jsonl_round_trip_from_raw_text(self):
        from repro.obs import read_spans_jsonl

        source = synthetic_telemetry()
        loaded = read_spans_jsonl(spans_jsonl(source))
        assert loaded.as_dict() == source.as_dict()

    def test_jsonl_read_rejects_missing_header(self):
        from repro.obs import read_spans_jsonl

        span_only = (
            '{"record": "span", "name": "c", "cat": "compute", '
            '"start": 0.0, "end": 1.0, "lane": 0, "attrs": {}}\n'
        )
        with pytest.raises(ValueError, match="header"):
            read_spans_jsonl(span_only)

    def test_jsonl_read_rejects_duplicate_header_and_unknown_kind(self):
        from repro.obs import read_spans_jsonl

        header = spans_jsonl(synthetic_telemetry()).strip().splitlines()[0]
        with pytest.raises(ValueError, match="duplicate"):
            read_spans_jsonl(header + "\n" + header + "\n")
        with pytest.raises(ValueError, match="unknown record kind"):
            read_spans_jsonl(header + '\n{"record": "mystery"}\n')
