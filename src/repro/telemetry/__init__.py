"""repro.telemetry — tracing, counters and run manifests.

A zero-dependency observability layer for the whole training stack:

* :class:`Tracer` / :class:`Span` — nested spans with wall-clock
  duration *and* simulated-time attribution, collected thread-safely
  and exportable as Chrome-trace JSON (:func:`write_chrome_trace`);
* :class:`MetricsRegistry` with :class:`Counter` / :class:`Gauge` —
  event totals the runners, the asynchrony engine and the hardware
  models increment (see :mod:`repro.telemetry.keys` for the
  vocabulary);
* :class:`RunManifest` / :func:`build_manifest` — a reproducible JSON
  snapshot of one run: config, dataset statistics, seed, git SHA and
  final metrics;
* :class:`NullTelemetry` / :data:`NULL_TELEMETRY` — the no-op default,
  so instrumentation costs nothing when disabled.

Typical use::

    from repro.sgd import RunConfig, run
    from repro.telemetry import Telemetry, build_manifest, write_chrome_trace

    tel = Telemetry()
    config = RunConfig("lr", "w8a", strategy="asynchronous")
    result = run(config, telemetry=tel)
    write_chrome_trace(tel, "trace.json")
    build_manifest(result, tel, config).write("manifest.json")

See docs/OBSERVABILITY.md for the full story.
"""

from . import keys
from .counters import Counter, Gauge, MetricsRegistry
from .export import chrome_trace, spans_json, write_chrome_trace, write_spans_json
from .gitinfo import current_git_sha
from .manifest import (
    GRID_MANIFEST_SCHEMA,
    MANIFEST_SCHEMA,
    SERVE_MANIFEST_SCHEMA,
    RunManifest,
    build_grid_manifest,
    build_manifest,
    build_serve_manifest,
    load_manifest,
)
from .nulls import NULL_TELEMETRY, NullSpan, NullTelemetry
from .session import AnyTelemetry, Telemetry, ensure_telemetry
from .spans import Span, SpanRecord, Tracer

__all__ = [
    "keys",
    "Telemetry",
    "AnyTelemetry",
    "ensure_telemetry",
    "NullTelemetry",
    "NullSpan",
    "NULL_TELEMETRY",
    "Tracer",
    "Span",
    "SpanRecord",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "chrome_trace",
    "write_chrome_trace",
    "spans_json",
    "write_spans_json",
    "RunManifest",
    "MANIFEST_SCHEMA",
    "GRID_MANIFEST_SCHEMA",
    "SERVE_MANIFEST_SCHEMA",
    "build_manifest",
    "build_grid_manifest",
    "build_serve_manifest",
    "load_manifest",
    "current_git_sha",
]
