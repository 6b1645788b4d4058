"""Chrome-trace export schema and the raw span dump."""

import json

from repro.telemetry import (
    Telemetry,
    Tracer,
    chrome_trace,
    spans_json,
    write_chrome_trace,
    write_spans_json,
)

from .test_spans import FakeClock


def _traced_telemetry() -> Telemetry:
    clock = FakeClock()
    tel = Telemetry(clock=clock)
    with tel.span("outer", task="lr") as outer:
        clock.advance(2.0)
        with tel.span("inner"):
            clock.advance(0.5)
        outer.add_sim_time(1.25)
    tel.count("sgd.epochs", 3)
    return tel


class TestChromeTraceSchema:
    def test_top_level_document(self):
        doc = chrome_trace(_traced_telemetry())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert doc["displayTimeUnit"] == "ms"
        json.dumps(doc)  # serialisable as-is

    def test_metadata_event_first(self):
        doc = chrome_trace(_traced_telemetry())
        meta = doc["traceEvents"][0]
        assert meta["ph"] == "M"
        assert meta["name"] == "process_name"
        assert meta["args"] == {"name": "repro"}

    def test_span_events_are_complete_events_in_microseconds(self):
        doc = chrome_trace(_traced_telemetry())
        spans = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        assert set(spans) == {"outer", "inner"}
        outer, inner = spans["outer"], spans["inner"]
        for ev in (outer, inner):
            assert {"name", "ph", "pid", "tid", "ts", "dur", "cat", "args"} <= set(ev)
            assert ev["cat"] == "repro"
        assert outer["ts"] == 0.0
        assert outer["dur"] == 2.5e6
        assert inner["ts"] == 2.0e6
        assert inner["dur"] == 0.5e6
        assert outer["args"]["task"] == "lr"
        assert outer["args"]["sim_seconds"] == 1.25
        # Child is contained in the parent on the timeline.
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]

    def test_counter_events_at_trace_end(self):
        doc = chrome_trace(_traced_telemetry())
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        (epochs,) = [e for e in counters if e["name"] == "sgd.epochs"]
        assert epochs["args"] == {"value": 3}
        assert epochs["ts"] == 2.5e6

    def test_bare_tracer_has_no_counter_events(self):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        doc = chrome_trace(tracer)
        assert [e["ph"] for e in doc["traceEvents"]] == ["M", "X"]

    def test_write_round_trips_through_json(self, tmp_path):
        tel = _traced_telemetry()
        path = write_chrome_trace(tel, tmp_path / "trace.json")
        assert json.loads(path.read_text()) == chrome_trace(tel)


class TestSpansJson:
    def test_dump_matches_records(self, tmp_path):
        tel = _traced_telemetry()
        dump = spans_json(tel.tracer)
        assert [d["name"] for d in dump] == ["inner", "outer"]
        assert all(
            {"name", "span_id", "parent_id", "thread_id", "start_s", "duration_s"}
            <= set(d)
            for d in dump
        )
        path = write_spans_json(tel.tracer, tmp_path / "missing" / "spans.json")
        assert json.loads(path.read_text()) == dump
