"""Trace recorders: the real one and the zero-overhead null one.

The simulators accept ``recorder=None`` (default) or any object with
this interface.  Hot paths guard every instrumentation block with a
single truthiness/``enabled`` check, so a disabled run never constructs
an event, touches a counter, or formats a string.

:class:`NullRecorder` exists for call sites that want to hold a
recorder unconditionally (e.g. a :class:`~repro.core.server.TaskServer`
wired once and reused): every method is a no-op and ``enabled`` is
``False``, so instrumented code can skip even argument computation.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs.events import EVENT_TYPES, TraceEvent
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
        Validate event types on emit (cheap; on by default).  Turn off
        to shave the frozenset lookup in extremely hot custom loops.
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
        self.events: List[TraceEvent] = []
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self._series = ServerSeriesBuilder()
        self._built_series: Optional[ServerSeries] = None

    # ------------------------------------------------------------------
    def emit(self, type: str, time: float, server_id: int = -1,
             query_id: int = -1, class_name: str = "", fanout: int = 0,
             deadline: float = _NAN, slack: float = _NAN,
             extra: Optional[Dict[str, Any]] = None) -> TraceEvent:
        """Append one lifecycle event; returns it (mainly for tests)."""
        if self._strict and type not in EVENT_TYPES:
            raise ConfigurationError(f"unknown event type {type!r}")
        event = TraceEvent(
            seq=len(self.events), type=type, time=time, server_id=server_id,
            query_id=query_id, class_name=class_name, fanout=fanout,
            deadline=deadline, slack=slack, extra=extra,
        )
        self.events.append(event)
        return event

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

        Events are appended with fresh sequence numbers, counters add,
        gauges take the other's value (last writer wins — gauges are
        end-of-run facts like utilization), the latency histogram
        merges bucket-wise, and sampled server series concatenate in
        merge order.  Used by the parallel experiment runner to fold a
        worker-side recorder into the parent-side one.

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
        remap = server_id_offset != 0 or query_id_map is not None
        if server_id_offset and len(other._series):
            raise ConfigurationError(
                "cannot merge sampled server series under a server-id "
                "offset; series are per-cluster — read them on the "
                "shard's own recorder"
            )
        for event in other.events:
            if remap:
                sid = event.server_id
                if server_id_offset and sid >= 0:
                    sid += server_id_offset
                qid = event.query_id
                if query_id_map is not None and qid >= 0:
                    qid = int(query_id_map[qid])
                self.events.append(dataclasses.replace(
                    event, seq=len(self.events), server_id=sid,
                    query_id=qid))
                continue
            self.events.append(dataclasses.replace(event,
                                                   seq=len(self.events)))
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
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.type] = counts.get(event.type, 0) + 1
        return counts

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
