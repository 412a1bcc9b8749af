"""Trace exporters: JSONL, Chrome trace-event format, text summary.

The Chrome exporter emits the `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
consumed by ``chrome://tracing`` and `Perfetto <https://ui.perfetto.dev>`_:

* one *process* (pid 0) named ``tailguard``;
* *thread* 0 is the query handler; thread ``sid + 1`` is task server
  ``sid`` (``tid`` must be >= 0 and 0 is taken by the handler);
* each served task becomes a complete (``ph: "X"``) slice on its
  server's thread, paired from its ``TASK_DEQUEUE``/``TASK_COMPLETE``
  events;
* deadline misses, rejections, and arrivals become instant (``"i"``)
  events;
* queue lengths become counter (``"C"``) tracks per server.

Timestamps: the trace-event format counts microseconds; simulation time
is milliseconds, hence the ×1000.
"""

from __future__ import annotations

import json
import math
from typing import IO, Any, Dict, Iterator, List, Union

from repro.obs.events import (
    DEADLINE_MISS,
    QUERY_ARRIVE,
    QUERY_COMPLETE,
    QUERY_REJECTED,
    QUERY_TIMEOUT,
    TASK_COMPLETE,
    TASK_DEQUEUE,
    TASK_ENQUEUE,
    TraceEvent,
)

#: Accepts a filesystem path (str / PathLike) or an open text stream.
PathOrFile = Union[str, Any, IO[str]]

#: Trace-event pid used for the whole simulated cluster.
TRACE_PID = 0
#: Thread id of the query handler; server ``sid`` maps to ``sid + 1``.
HANDLER_TID = 0


def _server_tid(server_id: int) -> int:
    return server_id + 1


def _open(path_or_file: PathOrFile, mode: str = "w"):
    """Returns (file, should_close)."""
    if hasattr(path_or_file, "write" if mode == "w" else "read"):
        return path_or_file, False
    return open(path_or_file, mode, encoding="utf-8"), True


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def write_jsonl(recorder, path_or_file: PathOrFile) -> int:
    """One compact JSON object per event line; returns the line count."""
    stream, should_close = _open(path_or_file)
    try:
        n = 0
        for event in recorder.events:
            stream.write(json.dumps(event.to_dict(), separators=(",", ":")))
            stream.write("\n")
            n += 1
        return n
    finally:
        if should_close:
            stream.close()


def _jsonl_entries(path_or_file: PathOrFile) -> Iterator[Dict[str, Any]]:
    """Parse a JSONL trace one line at a time."""
    stream, should_close = _open(path_or_file, "r")
    try:
        for line in stream:
            if line.strip():
                yield json.loads(line)
    finally:
        if should_close:
            stream.close()


def read_jsonl(path_or_file: PathOrFile) -> List[Dict[str, Any]]:
    """Parse a JSONL trace back into dicts (analysis convenience)."""
    return list(_jsonl_entries(path_or_file))


#: ``TraceEvent`` fields :meth:`~repro.obs.events.TraceEvent.to_dict`
#: writes at the top level; everything else round-trips through
#: ``extra``.
_EVENT_FIELDS = frozenset({"seq", "type", "time", "server_id", "query_id",
                           "class_name", "fanout", "deadline", "slack"})


def recorder_from_jsonl(path_or_file: PathOrFile):
    """Rebuild a recorder from a JSONL trace written by
    :func:`write_jsonl`.

    The file is read and emitted one line at a time, so loading holds
    no more than one line beside the recorder's columns.  The loader is
    lenient (``strict=False``): unknown event types pass through
    unchanged, and any non-standard keys land back in each event's
    ``extra`` dict.  Sequence numbers are reassigned in file order,
    which is emission order for an unedited trace.  Only the event
    stream survives the round-trip — counters, gauges, the latency
    histogram, and sampled series are not serialized to JSONL.
    """
    from repro.obs.recorder import TraceRecorder

    recorder = TraceRecorder(strict=False)
    emit = recorder.emit
    for entry in _jsonl_entries(path_or_file):
        extra = {k: v for k, v in entry.items() if k not in _EVENT_FIELDS}
        emit(
            entry["type"], float(entry["time"]),
            server_id=int(entry.get("server_id", -1)),
            query_id=int(entry.get("query_id", -1)),
            class_name=entry.get("class_name", ""),
            fanout=int(entry.get("fanout", 0)),
            deadline=float(entry.get("deadline", float("nan"))),
            slack=float(entry.get("slack", float("nan"))),
            extra=extra or None,
        )
    return recorder


# ----------------------------------------------------------------------
# Chrome trace-event format
# ----------------------------------------------------------------------
def _slice_name(event: TraceEvent) -> str:
    if event.class_name:
        return f"{event.class_name}/q{event.query_id}"
    return f"q{event.query_id}"


def chrome_trace_events(recorder) -> List[Dict[str, Any]]:
    """Build the ``traceEvents`` list from a recorder's event stream."""
    trace: List[Dict[str, Any]] = [{
        "ph": "M", "pid": TRACE_PID, "tid": HANDLER_TID,
        "name": "process_name", "args": {"name": "tailguard"},
    }, {
        "ph": "M", "pid": TRACE_PID, "tid": HANDLER_TID,
        "name": "thread_name", "args": {"name": "query handler"},
    }]
    named_servers = set()
    #: (server_id, query_id) -> TASK_DEQUEUE event awaiting completion.
    open_slices: Dict[tuple, TraceEvent] = {}

    def ensure_server(server_id: int) -> int:
        tid = _server_tid(server_id)
        if server_id not in named_servers:
            named_servers.add(server_id)
            trace.append({
                "ph": "M", "pid": TRACE_PID, "tid": tid,
                "name": "thread_name",
                "args": {"name": f"server {server_id}"},
            })
        return tid

    for event in recorder.events:
        ts = event.time * 1000.0
        if event.type == QUERY_ARRIVE:
            trace.append({
                "ph": "i", "s": "p", "pid": TRACE_PID, "tid": HANDLER_TID,
                "ts": ts, "name": "QUERY_ARRIVE",
                "args": {"query_id": event.query_id,
                         "class": event.class_name,
                         "fanout": event.fanout},
            })
        elif event.type in (QUERY_REJECTED, QUERY_COMPLETE, QUERY_TIMEOUT):
            args: Dict[str, Any] = {"query_id": event.query_id}
            if event.extra:
                args.update(event.extra)
            trace.append({
                "ph": "i", "s": "p", "pid": TRACE_PID, "tid": HANDLER_TID,
                "ts": ts, "name": event.type, "args": args,
            })
        elif event.type == TASK_DEQUEUE:
            ensure_server(event.server_id)
            open_slices[(event.server_id, event.query_id)] = event
        elif event.type == TASK_COMPLETE:
            tid = ensure_server(event.server_id)
            start = open_slices.pop((event.server_id, event.query_id), None)
            begin_ts = start.time * 1000.0 if start is not None else ts
            args = {"query_id": event.query_id}
            if start is not None and not math.isnan(start.slack):
                args["slack_ms"] = start.slack
            if event.extra and "duration" in event.extra:
                args["service_ms"] = event.extra["duration"]
            trace.append({
                "ph": "X", "pid": TRACE_PID, "tid": tid, "ts": begin_ts,
                "dur": ts - begin_ts,
                "name": _slice_name(start if start is not None else event),
                "args": args,
            })
        elif event.type == DEADLINE_MISS:
            tid = ensure_server(event.server_id)
            trace.append({
                "ph": "i", "s": "t", "pid": TRACE_PID, "tid": tid,
                "ts": ts, "name": "DEADLINE_MISS",
                "args": {"query_id": event.query_id,
                         "slack_ms": None if math.isnan(event.slack)
                         else event.slack},
            })
        elif event.type == TASK_ENQUEUE:
            tid = ensure_server(event.server_id)
            queue_len = (event.extra or {}).get("queue_len")
            if queue_len is not None:
                trace.append({
                    "ph": "C", "pid": TRACE_PID, "tid": tid, "ts": ts,
                    "name": f"queue[{event.server_id}]",
                    "args": {"queued": queue_len},
                })
        # SERVER_BUSY / SERVER_IDLE / CDF_UPDATE stay JSONL-only: they
        # would only duplicate what the slices already show.

    series = recorder.server_series()
    if series is not None:
        for row, t in enumerate(series.time):
            trace.append({
                "ph": "C", "pid": TRACE_PID, "tid": HANDLER_TID,
                "ts": float(t) * 1000.0, "name": "cluster",
                "args": {
                    "queued_tasks": int(series.queue_len[row].sum()),
                    "busy_servers": int(series.busy[row].sum()),
                },
            })
    return trace


def write_chrome_trace(recorder, path_or_file: PathOrFile) -> int:
    """Write a ``{"traceEvents": [...]}`` JSON file; returns event count."""
    events = chrome_trace_events(recorder)
    document = {"traceEvents": events, "displayTimeUnit": "ms"}
    stream, should_close = _open(path_or_file)
    try:
        json.dump(document, stream, indent=1, sort_keys=True)
        stream.write("\n")
    finally:
        if should_close:
            stream.close()
    return len(events)


# ----------------------------------------------------------------------
# Text summary
# ----------------------------------------------------------------------
def text_summary(recorder, collector=None) -> str:
    """Human-readable run summary.

    ``collector`` is an optional
    :class:`~repro.metrics.collector.LatencyCollector`; when given, its
    :meth:`summary` per-type percentiles are appended.
    """
    lines: List[str] = ["=== trace summary ==="]
    counts = recorder.counts_by_type()
    for name in sorted(counts):
        lines.append(f"{name:<16} {counts[name]:>10d}")
    if recorder.counters:
        lines.append("--- counters ---")
        for name in sorted(recorder.counters):
            lines.append(f"{name:<24} {recorder.counters[name]:>10d}")
    if recorder.gauges:
        lines.append("--- gauges ---")
        for name in sorted(recorder.gauges):
            lines.append(f"{name:<24} {recorder.gauges[name]:>12.4f}")
    hist = recorder.latency_hist
    if hist.total_count():
        lines.append("--- query latency (histogram, ms) ---")
        lines.append(
            f"count={hist.total_count()} mean={hist.mean():.4f} "
            f"p50<={hist.percentile(50.0):.4f} p99<={hist.percentile(99.0):.4f}"
        )
    series = recorder.server_series()
    if series is not None and len(series):
        peak = int(series.total_queued().max())
        lines.append("--- sampled series ---")
        lines.append(
            f"samples={len(series)} servers={series.n_servers} "
            f"peak_queued={peak} "
            f"mean_busy={float(series.busy_servers().mean()):.2f}"
        )
    if collector is not None:
        lines.append("--- per-type latency (exact, ms) ---")
        for group in collector.summary()["groups"]:
            lines.append(
                f"{group['class_name']:<10} kf={group['fanout']:<5d} "
                f"n={group['count']:<7d} mean={group['mean']:.4f} "
                f"p99={group['p99']:.4f}"
            )
    return "\n".join(lines)
