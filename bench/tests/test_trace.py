import json
import threading

import pytest

from bench.trace import Span, Tracer, covered, self_times


def test_covered_is_the_union_of_the_intervals():
    assert covered([]) == 0.0
    assert covered([(1, 3), (2, 5), (7, 8)]) == 5.0
    assert covered([(0, 10), (2, 3)]) == 10.0


def test_self_time_is_duration_minus_covered_children():
    spans = [
        Span(1, None, "window", "bench", 0.0, 10.0, 0),
        Span(2, 1, "call", "sgd", 1.0, 3.0, 0),
        Span(3, 1, "call", "sgd", 2.0, 5.0, 1),  # overlaps span 2 on another thread
        Span(4, 1, "call", "sgd", 7.0, 8.0, 0),
        Span(5, 4, "inner", "linalg", 7.25, 7.75, 0),
    ]
    # window: 10 - |[1,5] u [7,8]| = 5; sgd: 2 + 3 + (1 - 0.5); linalg: 0.5
    assert self_times(spans) == pytest.approx({"bench": 5.0, "sgd": 5.5, "linalg": 0.5})


def test_tracer_nests_spans_and_adopts_worker_thread_spans(tmp_path):
    tracer = Tracer("unit")
    with tracer.span("window", "bench"):
        with tracer.span("call", "sgd"):
            pass
        with tracer.span("call", "sgd"):
            pass

        def request():
            with tracer.span("request", "serving"):
                pass

        worker = threading.Thread(target=request)
        worker.start()
        worker.join()
    by_name = {s.name: s for s in tracer.spans}
    window = by_name["window"]
    assert window.parent is None
    assert all(s.parent == window.id for s in tracer.spans if s.name in ("call", "request"))
    assert set(tracer.self_times()) == {"bench", "sgd", "serving"}

    path = tmp_path / "trace.json"
    tracer.write_chrome(path)
    events = json.loads(path.read_text())["traceEvents"]
    assert len(events) == len(tracer.spans)
    assert {e["ph"] for e in events} == {"X"}
    assert all(e["args"]["workload"] == "unit" for e in events)
    assert len({e["tid"] for e in events}) == 2
