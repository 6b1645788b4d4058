"""Trace exporters: Chrome-trace (chrome://tracing / Perfetto) and JSON.

The Chrome trace event format is the de-facto interchange for
span-style profiles; a file produced here loads directly into
Perfetto's UI.  Spans become complete (``"ph": "X"``) events with
microsecond timestamps; the final counter totals are appended as one
counter (``"ph": "C"``) event per metric so the totals are visible on
the same timeline.  The plain-JSON exporter dumps the raw records for
programmatic consumers.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any

from .session import Telemetry
from .spans import SpanRecord, Tracer

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "spans_json",
    "write_spans_json",
    "write_text",
]

#: Synthetic pid for all events — there is one process per run.
_PID = 1


def _span_event(record: SpanRecord) -> dict[str, Any]:
    args: dict[str, Any] = dict(record.attributes)
    if record.sim_seconds is not None:
        args["sim_seconds"] = record.sim_seconds
    return {
        "name": record.name,
        "ph": "X",
        "pid": _PID,
        "tid": record.thread_id,
        "ts": record.start_s * 1e6,
        "dur": record.duration_s * 1e6,
        "cat": "repro",
        "args": args,
    }


def chrome_trace(telemetry: Telemetry | Tracer) -> dict[str, Any]:
    """Build the Chrome-trace document for a run.

    Accepts either a full :class:`Telemetry` (spans + final counter
    totals) or a bare :class:`Tracer` (spans only).
    """
    tracer = telemetry.tracer if isinstance(telemetry, Telemetry) else telemetry
    records = tracer.records()
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "tid": 0,
            "args": {"name": "repro"},
        }
    ]
    events.extend(_span_event(r) for r in records)
    if isinstance(telemetry, Telemetry):
        end_ts = max(
            (r.start_s + r.duration_s for r in records), default=0.0
        ) * 1e6
        for name, value in telemetry.counters().items():
            events.append(
                {
                    "name": name,
                    "ph": "C",
                    "pid": _PID,
                    "tid": 0,
                    "ts": end_ts,
                    "args": {"value": value},
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_text(path: str | pathlib.Path, text: str) -> pathlib.Path:
    """Write *text* to *path*, creating its directory, and return the path.

    Every ``--trace-out`` / ``--manifest-out`` file goes through here: a
    run that trained for minutes must not die on a missing directory.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def write_chrome_trace(
    telemetry: Telemetry | Tracer, path: str | pathlib.Path
) -> pathlib.Path:
    """Write the Chrome-trace JSON file and return its path."""
    return write_text(path, json.dumps(chrome_trace(telemetry), indent=2))


def spans_json(tracer: Tracer) -> list[dict[str, Any]]:
    """Raw span records as JSON-ready dicts."""
    return [r.to_dict() for r in tracer.records()]


def write_spans_json(tracer: Tracer, path: str | pathlib.Path) -> pathlib.Path:
    """Write the raw span dump and return its path."""
    return write_text(path, json.dumps(spans_json(tracer), indent=2))
