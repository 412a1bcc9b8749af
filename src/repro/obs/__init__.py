"""Task-lifecycle tracing and streaming metrics (observability layer).

End-of-run aggregates (percentiles, admission counters) say *whether* a
run missed its SLO; this package records *why*: when each task was
enqueued, how far it jumped in the queue, when it was dequeued, whether
its queuing deadline had already passed, and how the per-server queue
state evolved over time.  The design follows the telemetry surfaces of
production tail-latency schedulers (RackSched's per-request scheduling
traces, QWin's per-window queue observations): per-event records plus
sampled per-server time series.

Three pieces:

* :mod:`repro.obs.events` — the typed lifecycle event vocabulary and
  the compact :class:`~repro.obs.events.TraceEvent` record;
* :mod:`repro.obs.recorder` — :class:`~repro.obs.recorder.TraceRecorder`
  (collects events, counters, a log-scale latency histogram, and
  per-server time series) and the zero-overhead
  :class:`~repro.obs.recorder.NullRecorder`;
* :mod:`repro.obs.export` — JSONL and Chrome ``chrome://tracing`` /
  Perfetto trace-event exporters plus a human-readable text summary;
* :mod:`repro.obs.attribution` — critical-path latency attribution:
  the exact per-query additive breakdown of end-to-end latency into
  queueing / service / retry / hedge components, and the cluster-level
  tail attribution built on it;
* :mod:`repro.obs.slo` — per-class SLO error budgets with multi-window
  burn-rate accounting, fed from the same terminal events;
* :mod:`repro.obs.forensics` — the ``tailguard report`` document
  builder, text renderer, and a dependency-free JSON-schema checker.

The hot paths (:mod:`repro.cluster.simulation`,
:mod:`repro.core.server`) pay one ``is not None`` / ``enabled`` check
per instrumentation site when tracing is off.
"""

from repro.obs.events import (
    CDF_UPDATE,
    DEADLINE_MISS,
    EVENT_TYPES,
    QUERY_ARRIVE,
    QUERY_COMPLETE,
    QUERY_REJECTED,
    QUERY_TIMEOUT,
    SERVER_BUSY,
    SERVER_IDLE,
    TASK_COMPLETE,
    TASK_DEQUEUE,
    TASK_ENQUEUE,
    TraceEvent,
)
from repro.obs.metrics import LogHistogram, ServerSeries
from repro.obs.recorder import NullRecorder, TraceRecorder
from repro.obs.export import (
    chrome_trace_events,
    read_jsonl,
    recorder_from_jsonl,
    text_summary,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.attribution import (
    COMPONENTS,
    ClusterAttribution,
    QueryAttribution,
    attribute_queries,
)
from repro.obs.slo import ErrorBudget, SLOAccountant
from repro.obs.forensics import (
    render_report,
    tail_forensics_report,
    validate_report,
)

__all__ = [
    "CDF_UPDATE",
    "DEADLINE_MISS",
    "EVENT_TYPES",
    "QUERY_ARRIVE",
    "QUERY_COMPLETE",
    "QUERY_REJECTED",
    "QUERY_TIMEOUT",
    "SERVER_BUSY",
    "SERVER_IDLE",
    "TASK_COMPLETE",
    "TASK_DEQUEUE",
    "TASK_ENQUEUE",
    "TraceEvent",
    "LogHistogram",
    "ServerSeries",
    "NullRecorder",
    "TraceRecorder",
    "chrome_trace_events",
    "read_jsonl",
    "recorder_from_jsonl",
    "text_summary",
    "write_chrome_trace",
    "write_jsonl",
    "COMPONENTS",
    "ClusterAttribution",
    "QueryAttribution",
    "attribute_queries",
    "ErrorBudget",
    "SLOAccountant",
    "render_report",
    "tail_forensics_report",
    "validate_report",
]
