"""Trace recorders: the real one and the zero-overhead null one.

The simulators accept ``recorder=None`` (default) or any object with
this interface.  Hot paths guard every instrumentation block with a
single truthiness/``enabled`` check, so a disabled run never constructs
an event, touches a counter, or formats a string.  A
:class:`TraceRecorder` keeps its events in a columnar
:class:`~repro.obs.eventlog.EventLog`.

:class:`NullRecorder` exists for call sites that want to hold a
recorder unconditionally (e.g. a :class:`~repro.core.server.TaskServer`
wired once and reused): every method is a no-op and ``enabled`` is
``False``, so instrumented code can skip even argument computation.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.eventlog import CHUNK_ROWS, EventColumns, EventLog, EventView
from repro.obs.events import TraceEvent
from repro.obs.metrics import (
    LogHistogram,
    ServerSeries,
    ServerSeriesBuilder,
)

_NAN = float("nan")


class NullRecorder:
    """Does nothing, costs (almost) nothing.

    ``enabled`` is ``False`` so instrumented hot paths can skip the
    whole block, including building event payloads.
    """

    enabled: bool = False

    def emit(self, *args: Any, **kwargs: Any) -> None:
        pass

    def inc(self, name: str, n: int = 1) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe_latency(self, value: float) -> None:
        pass

    def sample_servers(self, *args: Any, **kwargs: Any) -> None:
        pass

    @property
    def events(self) -> Tuple[TraceEvent, ...]:
        return ()

    def counts_by_type(self) -> Dict[str, int]:
        return {}

    def columns(self) -> EventColumns:
        return EventLog().columns()

    def server_series(self) -> Optional[ServerSeries]:
        return None

    def merge_from(self, other: Any, *, server_id_offset: int = 0,
                   query_id_map: Optional[Any] = None) -> "NullRecorder":
        return self

    def summary(self) -> Dict[str, Any]:
        return {}


class TraceRecorder:
    """Collects lifecycle events, streaming metrics, and time series.

    Parameters
    ----------
    sample_interval_ms:
        When set, the simulator samples per-server state (queue length,
        busy flag, cumulative utilization, cumulative miss ratio) every
        this many simulated milliseconds into :meth:`server_series`.
    histogram:
        Latency histogram to stream completed-query latencies into;
        defaults to a fresh :class:`LogHistogram` spanning 1 µs – 10 s.
    strict:
        Refuse event types outside
        :data:`~repro.obs.events.EVENT_TYPES` on emit (on by default; a
        known type costs one dict lookup either way).  Turn off to
        record custom types, as
        :func:`~repro.obs.export.recorder_from_jsonl` does.
    """

    enabled: bool = True

    def __init__(self, sample_interval_ms: Optional[float] = None,
                 histogram: Optional[LogHistogram] = None,
                 strict: bool = True) -> None:
        if sample_interval_ms is not None and not (
                math.isfinite(sample_interval_ms) and sample_interval_ms > 0):
            raise ConfigurationError(
                f"sample_interval_ms must be finite and positive, "
                f"got {sample_interval_ms}"
            )
        self.sample_interval_ms = sample_interval_ms
        self.latency_hist = histogram if histogram is not None else LogHistogram()
        self._strict = strict
        self._log = EventLog()
        # The log's buffer and the type codes emit may use without a
        # check (a strict recorder's never grow past EVENT_TYPES), so
        # that emit runs without a second call.
        self._pending = self._log.pending
        self._type_codes = (dict(self._log.type_codes) if strict
                            else self._log.type_codes)
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self._series = ServerSeriesBuilder()
        self._built_series: Optional[ServerSeries] = None

    def empty_copy(self) -> "TraceRecorder":
        """A recorder holding nothing, with this one's settings: sample
        interval, histogram layout and strictness."""
        hist = self.latency_hist
        return TraceRecorder(
            self.sample_interval_ms,
            LogHistogram(hist.min_value, hist.max_value,
                         hist.buckets_per_decade),
            self._strict)

    @property
    def events(self) -> EventView:
        """The recorded events, a read-only lazy sequence of
        :class:`~repro.obs.events.TraceEvent` (``len()`` is free)."""
        return EventView(self._log)

    def columns(self) -> EventColumns:
        """Every recorded event as read-only NumPy columns (see
        :mod:`repro.obs.eventlog`)."""
        return self._log.columns()

    # ------------------------------------------------------------------
    def emit(self, type: str, time: float, server_id: int = -1,
             query_id: int = -1, class_name: str = "", fanout: int = 0,
             deadline: float = _NAN, slack: float = _NAN,
             extra: Optional[Dict[str, Any]] = None) -> None:
        """Append one lifecycle event."""
        code = self._type_codes.get(type)
        if code is None:
            code = self._log.intern_type(type, self._strict)
        pending = self._pending
        pending.append((code, time, server_id, query_id, class_name, fanout,
                        deadline, slack, extra))
        if len(pending) >= CHUNK_ROWS:
            self._log.flush()

    def inc(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe_latency(self, value: float) -> None:
        self.latency_hist.record(value)

    def sample_servers(self, time: float, queue_len: Sequence[int],
                       busy: Sequence[int],
                       utilization: Sequence[float],
                       miss_ratio: Sequence[float]) -> None:
        self._built_series = None
        self._series.sample(time, queue_len, busy, utilization, miss_ratio)

    def merge_from(self, other: "TraceRecorder", *,
                   server_id_offset: int = 0,
                   query_id_map: Optional[Sequence[int]] = None
                   ) -> "TraceRecorder":
        """Absorb another recorder (cross-process aggregation).

        Events are appended, as whole columns, with fresh sequence
        numbers; counters add, gauges take the other's value (last
        writer wins — gauges are end-of-run facts like utilization),
        the latency histogram merges bucket-wise, and sampled server
        series concatenate in merge order.  Used by the parallel
        experiment runner to fold a worker-side recorder into the
        parent-side one.

        ``server_id_offset`` and ``query_id_map`` give merged streams a
        *shard dimension* (see :mod:`repro.federation`): a shard's
        server ids are shifted into the federation's flat server index
        and its per-run query ids are mapped to global query positions,
        so attribution and SLO accounting read the merged stream exactly
        as they would a single-cluster trace.  Sentinel ids (``-1``) are
        left untouched.  Sampled per-server series are a fixed-width
        single-cluster format and cannot carry an offset: merging a
        recorder that holds series samples under a non-zero offset
        raises :class:`ConfigurationError`.

        Merging an empty recorder is a no-op: nothing is appended and
        the histogram layout is not checked (an empty histogram has
        nothing to say about bucket edges).
        """
        if server_id_offset and len(other._series):
            raise ConfigurationError(
                "cannot merge sampled server series under a server-id "
                "offset; series are per-cluster — read them on the "
                "shard's own recorder"
            )
        self._log.extend(other._log, server_id_offset, query_id_map)
        for name, n in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + n
        self.gauges.update(other.gauges)
        self.latency_hist.merge(other.latency_hist)
        if len(other._series):
            self._built_series = None
            for i in range(len(other._series._time)):
                self._series.sample(
                    other._series._time[i], other._series._queue[i],
                    other._series._busy[i], other._series._util[i],
                    other._series._miss[i],
                )
        return self

    # ------------------------------------------------------------------
    def counts_by_type(self) -> Dict[str, int]:
        """Events per type, in order of each type's first event."""
        cols = self.columns()
        codes, first = np.unique(cols.type_code, return_index=True)
        counts = np.bincount(cols.type_code)
        return {cols.type_names[code]: int(counts[code])
                for code in codes[np.argsort(first)].tolist()}

    def server_series(self) -> Optional[ServerSeries]:
        """The sampled per-server time series (None when never sampled)."""
        if len(self._series) == 0:
            return None
        if self._built_series is None:
            self._built_series = self._series.build()
        return self._built_series

    def summary(self) -> Dict[str, Any]:
        """Headline observability numbers (JSON-ready)."""
        out: Dict[str, Any] = {
            "n_events": len(self.events),
            "events_by_type": self.counts_by_type(),
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
        }
        if self.latency_hist.total_count():
            out["latency_ms"] = {
                "count": self.latency_hist.total_count(),
                "mean": self.latency_hist.mean(),
                "p50": self.latency_hist.percentile(50.0),
                "p99": self.latency_hist.percentile(99.0),
            }
        series = self.server_series()
        if series is not None:
            out["series_samples"] = len(series)
            out["series_servers"] = series.n_servers
        return out
