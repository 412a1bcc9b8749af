"""Unit tests for the observability layer (repro.obs)."""

import io
import json
import math
import os
import pickle

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.obs import (
    DEADLINE_MISS,
    QUERY_ARRIVE,
    QUERY_COMPLETE,
    QUERY_TIMEOUT,
    SERVER_IDLE,
    TASK_COMPLETE,
    TASK_DEQUEUE,
    TASK_ENQUEUE,
    LogHistogram,
    NullRecorder,
    TraceRecorder,
    chrome_trace_events,
    recorder_from_jsonl,
    text_summary,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.attribution import ClusterAttribution
from repro.obs.eventlog import CHUNK_ROWS, SIDE
from repro.obs.export import HANDLER_TID, TRACE_PID, read_jsonl
from repro.sim.engine import Environment

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "data",
                           "golden_chrome_trace.json")


def golden_recorder() -> TraceRecorder:
    """The fixed event stream behind the golden Chrome-trace file."""
    rec = TraceRecorder(sample_interval_ms=1.0)
    rec.emit(QUERY_ARRIVE, 0.0, query_id=0, class_name="gold", fanout=2)
    rec.emit(TASK_DEQUEUE, 0.0, server_id=0, query_id=0, class_name="gold",
             fanout=2, deadline=0.9, slack=0.9)
    rec.emit(TASK_ENQUEUE, 0.0, server_id=1, query_id=0, class_name="gold",
             fanout=2, deadline=0.9, slack=0.9,
             extra={"queue_len": 1, "reorder_depth": 0})
    rec.emit(TASK_COMPLETE, 0.5, server_id=0, query_id=0,
             extra={"duration": 0.5})
    rec.emit(SERVER_IDLE, 0.5, server_id=0)
    rec.emit(TASK_DEQUEUE, 1.0, server_id=1, query_id=0, class_name="gold",
             fanout=2, deadline=0.9, slack=-0.1, extra={"queue_len": 0})
    rec.emit(DEADLINE_MISS, 1.0, server_id=1, query_id=0, deadline=0.9,
             slack=-0.1)
    rec.emit(QUERY_TIMEOUT, 1.2, query_id=1, class_name="gold", fanout=1)
    rec.emit(TASK_COMPLETE, 1.5, server_id=1, query_id=0,
             extra={"duration": 0.5})
    rec.emit(QUERY_COMPLETE, 1.5, query_id=0, class_name="gold", fanout=2,
             extra={"latency": 1.5})
    rec.sample_servers(1.0, [0, 0], [0, 1], [0.5, 1.0], [0.0, 1.0])
    return rec


class TestLogHistogram:
    def test_bucket_boundaries(self):
        hist = LogHistogram(1.0, 1000.0, buckets_per_decade=1)
        assert hist.num_buckets == 3
        assert [hist.bucket_lower(i) for i in range(3)] == [1.0, 10.0, 100.0]
        assert hist.bucket_upper(0) == pytest.approx(10.0)
        assert hist.bucket_upper(2) == pytest.approx(1000.0)

    def test_fractional_decades_round_up(self):
        hist = LogHistogram(1.0, 50.0, buckets_per_decade=1)
        assert hist.num_buckets == 2  # [1, 10) and [10, 50)

    def test_record_routing(self):
        hist = LogHistogram(1.0, 1000.0, buckets_per_decade=1)
        hist.record(0.5)     # underflow
        hist.record(1.0)     # first bucket, inclusive lower edge
        hist.record(9.99)    # still first bucket
        hist.record(10.0)    # second bucket edge
        hist.record(999.0)   # last bucket
        hist.record(1000.0)  # overflow, exclusive upper edge
        assert hist.underflow == 1
        assert hist.overflow == 1
        assert hist.snapshot()["counts"] == [2, 1, 1]
        assert hist.total_count() == 6

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LogHistogram(0.0, 10.0)
        with pytest.raises(ConfigurationError):
            LogHistogram(10.0, 10.0)
        with pytest.raises(ConfigurationError):
            LogHistogram(1.0, 10.0, buckets_per_decade=0)
        hist = LogHistogram()
        with pytest.raises(ConfigurationError):
            hist.record(-1.0)
        with pytest.raises(ConfigurationError):
            hist.percentile(50.0)  # empty

    def test_merge_adds_counts(self):
        a = LogHistogram(1.0, 1000.0, buckets_per_decade=2)
        b = LogHistogram(1.0, 1000.0, buckets_per_decade=2)
        for v in (2.0, 30.0, 500.0):
            a.record(v)
        for v in (2.5, 0.1, 5000.0):
            b.record(v)
        a.merge(b)
        assert a.total_count() == 6
        assert a.underflow == 1 and a.overflow == 1
        assert a.sum() == pytest.approx(2.0 + 30.0 + 500.0 + 2.5 + 0.1 + 5000.0)

    def test_merge_rejects_different_layouts(self):
        a = LogHistogram(1.0, 1000.0, buckets_per_decade=2)
        b = LogHistogram(1.0, 1000.0, buckets_per_decade=4)
        b.record(3.0)  # empty sources merge as no-ops; non-empty must raise
        with pytest.raises(ConfigurationError):
            a.merge(b)

    def test_merge_equals_union_snapshot(self):
        """Merging two histograms == recording everything into one."""
        # Dyadic values: sums are exact regardless of addition order,
        # so the merged snapshot can be compared with ==.
        values_a = [2.0 ** -11, 0.5, 4.0, 64.0, 512.0]
        values_b = [0.25, 0.25, 32.0, 99999.0]
        a = LogHistogram()
        union = LogHistogram()
        b = LogHistogram()
        for v in values_a:
            a.record(v)
            union.record(v)
        for v in values_b:
            b.record(v)
            union.record(v)
        a.merge(b)
        assert a.snapshot() == union.snapshot()

    def test_snapshot_roundtrip(self):
        hist = LogHistogram(0.1, 100.0, buckets_per_decade=3)
        for v in (0.05, 0.3, 7.0, 250.0):
            hist.record(v)
        clone = LogHistogram.from_snapshot(hist.snapshot())
        assert clone.snapshot() == hist.snapshot()
        assert clone.percentile(50.0) == hist.percentile(50.0)

    def test_percentile_monotone_and_bounded(self):
        hist = LogHistogram()
        for v in (0.1, 0.2, 0.5, 1.0, 2.0, 8.0):
            hist.record(v)
        values = [hist.percentile(p) for p in (0, 25, 50, 75, 100)]
        assert values == sorted(values)
        assert values[-1] <= 8.0 * 10 ** (1 / hist.buckets_per_decade)


class TestTraceRecorder:
    def test_seq_is_emission_order(self):
        rec = TraceRecorder()
        for _ in range(5):
            rec.emit(QUERY_ARRIVE, 1.0, query_id=0)
        assert [e.seq for e in rec.events] == [0, 1, 2, 3, 4]

    def test_rejects_unknown_event_type(self):
        rec = TraceRecorder()
        with pytest.raises(ConfigurationError):
            rec.emit("NOT_A_THING", 0.0)

    def test_counters_and_gauges(self):
        rec = TraceRecorder()
        rec.inc("a")
        rec.inc("a", 2)
        rec.set_gauge("g", 0.5)
        assert rec.counters == {"a": 3}
        assert rec.gauges == {"g": 0.5}

    def test_sample_interval_validation(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="finite"):
                TraceRecorder(sample_interval_ms=bad)

    def test_event_ordering_follows_engine_tie_break(self):
        """Events at equal sim-times keep the engine's deterministic
        (priority, insertion order) processing order."""
        env = Environment()
        rec = TraceRecorder()

        def proc(name):
            yield env.timeout(1.0)
            rec.emit(QUERY_ARRIVE, env.now, class_name=name)

        for name in ("a", "b", "c"):
            env.process(proc(name))
        env.run()
        assert [e.class_name for e in rec.events] == ["a", "b", "c"]
        assert [e.time for e in rec.events] == [1.0, 1.0, 1.0]
        assert [e.seq for e in rec.events] == [0, 1, 2]

    def test_engine_step_hook_sees_every_event_in_order(self):
        env = Environment()
        seen = []
        env.step_hook = lambda now, event: seen.append(now)

        def proc():
            yield env.timeout(1.0)
            yield env.timeout(2.0)

        env.process(proc())
        env.run()
        assert seen == sorted(seen)
        assert len(seen) >= 3  # Initialize + two timeouts + terminations

    def test_summary_shape(self):
        rec = golden_recorder()
        rec.observe_latency(1.5)
        rec.inc("tasks_dequeued", 2)
        summary = rec.summary()
        assert summary["n_events"] == len(rec.events)
        assert summary["events_by_type"][TASK_DEQUEUE] == 2
        assert summary["counters"]["tasks_dequeued"] == 2
        assert summary["latency_ms"]["count"] == 1
        assert summary["series_samples"] == 1
        assert summary["series_servers"] == 2
        json.dumps(summary)  # must be JSON-clean


class TestNullRecorder:
    def test_everything_is_a_noop(self):
        rec = NullRecorder()
        assert rec.enabled is False
        rec.emit(QUERY_ARRIVE, 0.0, query_id=1)
        rec.emit("even unknown types are fine", 0.0)
        rec.inc("x")
        rec.set_gauge("y", 1.0)
        rec.observe_latency(5.0)
        rec.sample_servers(1.0, [0], [0], [0.0], [0.0])
        assert rec.events == ()
        assert rec.counts_by_type() == {}
        assert rec.server_series() is None
        assert rec.summary() == {}
        assert len(ClusterAttribution.from_recorder(rec)) == 0


class TestExporters:
    def test_jsonl_roundtrip(self):
        rec = golden_recorder()
        buffer = io.StringIO()
        n = write_jsonl(rec, buffer)
        assert n == len(rec.events)
        parsed = read_jsonl(io.StringIO(buffer.getvalue()))
        assert [p["type"] for p in parsed] == [e.type for e in rec.events]
        assert parsed[1]["slack"] == pytest.approx(0.9)
        assert parsed[2]["reorder_depth"] == 0

    def test_chrome_events_are_schema_valid(self):
        events = chrome_trace_events(golden_recorder())
        assert events, "no trace events produced"
        for event in events:
            assert "ph" in event and "pid" in event and "tid" in event
            if event["ph"] != "M":
                assert "ts" in event
            if event["ph"] == "X":
                assert event["dur"] >= 0

    def test_chrome_pairs_dequeue_with_complete(self):
        events = chrome_trace_events(golden_recorder())
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == 2
        by_tid = {e["tid"]: e for e in slices}
        # server 0 is tid 1: dequeued at 0.0ms, completed at 0.5ms.
        assert by_tid[1]["ts"] == pytest.approx(0.0)
        assert by_tid[1]["dur"] == pytest.approx(500.0)
        # server 1 is tid 2: dequeued at 1.0ms, completed at 1.5ms.
        assert by_tid[2]["ts"] == pytest.approx(1000.0)
        assert by_tid[2]["dur"] == pytest.approx(500.0)

    def test_chrome_golden_file(self):
        """The exporter's byte-for-byte output is pinned by a golden
        file — regenerate with tests/data/make_golden.py when the
        format intentionally changes."""
        buffer = io.StringIO()
        write_chrome_trace(golden_recorder(), buffer)
        with open(GOLDEN_PATH, "r", encoding="utf-8") as stream:
            golden = stream.read()
        assert buffer.getvalue() == golden

    def test_chrome_terminal_instants(self):
        """QUERY_COMPLETE / QUERY_TIMEOUT become handler-thread instant
        events carrying their extras (latency for completions)."""
        events = chrome_trace_events(golden_recorder())
        instants = {e["name"]: e for e in events if e["ph"] == "i"}
        complete = instants[QUERY_COMPLETE]
        assert complete["tid"] == HANDLER_TID
        assert complete["ts"] == pytest.approx(1500.0)
        assert complete["args"]["latency"] == pytest.approx(1.5)
        timeout = instants[QUERY_TIMEOUT]
        assert timeout["tid"] == HANDLER_TID
        assert timeout["args"]["query_id"] == 1

    def test_text_summary_mentions_each_event_type(self):
        rec = golden_recorder()
        text = text_summary(rec)
        for name in (QUERY_ARRIVE, TASK_DEQUEUE, DEADLINE_MISS):
            assert name in text

    def test_text_summary_includes_collector_groups(self):
        from repro.metrics import LatencyCollector

        collector = LatencyCollector()
        collector.record("gold", 2, 1.5)
        text = text_summary(golden_recorder(), collector)
        assert "gold" in text and "kf=2" in text


class TestQueueReorderDepth:
    def test_edf_counts_overtaken_tasks(self):
        from repro.core.policies import EDFTaskQueue

        queue = EDFTaskQueue()
        queue.push("a", (5.0,))
        queue.push("b", (3.0,))
        queue.push("c", (9.0,))
        assert queue.reorder_depth((1.0,)) == 3
        assert queue.reorder_depth((4.0,)) == 2
        assert queue.reorder_depth((10.0,)) == 0

    def test_fifo_never_reorders(self):
        from repro.core.policies import FIFOTaskQueue

        queue = FIFOTaskQueue()
        queue.push("a", (5.0,))
        assert queue.reorder_depth((0.0,)) == 0

    def test_priq_counts_lower_priority_lanes(self):
        from repro.core.policies import PriorityTaskQueue

        queue = PriorityTaskQueue()
        queue.push("a", (0, 1.0))
        queue.push("b", (2, 1.0))
        queue.push("c", (2, 2.0))
        assert queue.reorder_depth((1, 0.0)) == 2
        assert queue.reorder_depth((0, 9.0)) == 2
        assert queue.reorder_depth((2, 0.0)) == 0


class TestEmptyMerge:
    """Merging *empty* sources is a no-op — even across layouts.

    Regression: an empty worker histogram (different bucket layout, or
    just never recorded into) used to fail the layout check and reset
    nothing gracefully; now empty sources fold in as no-ops.
    """

    def test_merge_empty_histogram_any_layout(self):
        a = LogHistogram(1.0, 1000.0, buckets_per_decade=2)
        a.record(5.0)
        before = a.snapshot()
        a.merge(LogHistogram(0.5, 77.0, buckets_per_decade=9))
        assert a.snapshot() == before

    def test_merge_snapshot_empty_any_layout(self):
        a = LogHistogram(1.0, 1000.0, buckets_per_decade=2)
        a.record(5.0)
        before = a.snapshot()
        empty = LogHistogram(0.5, 77.0, buckets_per_decade=9).snapshot()
        a.merge_snapshot(empty)
        assert a.snapshot() == before

    def test_nonempty_layout_mismatch_still_raises(self):
        a = LogHistogram(1.0, 1000.0, buckets_per_decade=2)
        b = LogHistogram(1.0, 1000.0, buckets_per_decade=4)
        b.record(3.0)
        with pytest.raises(ConfigurationError):
            a.merge(b)
        with pytest.raises(ConfigurationError):
            a.merge_snapshot(b.snapshot())

    def test_recorder_merge_from_empty_is_noop(self):
        rec = golden_recorder()
        rec.observe_latency(1.5)
        n_events = len(rec.events)
        counters = dict(rec.counters)
        hist_before = rec.latency_hist.snapshot()
        series_before = len(rec.server_series())
        rec.merge_from(TraceRecorder(histogram=LogHistogram(0.5, 9.0)))
        assert len(rec.events) == n_events
        assert rec.counters == counters
        assert rec.latency_hist.snapshot() == hist_before
        assert len(rec.server_series()) == series_before


class TestExportEdgeCases:
    def test_zero_event_trace(self):
        rec = TraceRecorder()
        buffer = io.StringIO()
        assert write_jsonl(rec, buffer) == 0
        assert buffer.getvalue() == ""
        events = chrome_trace_events(rec)
        # Metadata only: process name + handler thread name.
        assert [e["ph"] for e in events] == ["M", "M"]
        text = text_summary(rec)
        assert "trace summary" in text

    def test_unknown_types_pass_through_jsonl(self):
        rec = TraceRecorder(strict=False)
        rec.emit("CUSTOM_PROBE", 0.25, server_id=3,
                 extra={"payload": "x", "n": 7})
        rec.emit(QUERY_ARRIVE, 0.5, query_id=0, class_name="gold")
        buffer = io.StringIO()
        write_jsonl(rec, buffer)
        back = recorder_from_jsonl(io.StringIO(buffer.getvalue()))
        assert [e.type for e in back.events] == ["CUSTOM_PROBE",
                                                 QUERY_ARRIVE]
        probe = back.events[0]
        assert probe.server_id == 3
        assert probe.extra == {"payload": "x", "n": 7}
        assert back.events[1].class_name == "gold"
        assert [e.seq for e in back.events] == [0, 1]

    def test_recorder_from_jsonl_roundtrips_golden(self):
        rec = golden_recorder()
        buffer = io.StringIO()
        write_jsonl(rec, buffer)
        back = recorder_from_jsonl(io.StringIO(buffer.getvalue()))
        assert [e.to_dict() for e in back.events] == \
            [e.to_dict() for e in rec.events]

    def test_chrome_pid_tid_stable_across_merge(self):
        """A merged recorder exports the same pid/tid mapping as its
        sources: everything in pid 0, server sid on tid sid + 1, one
        thread_name metadata record per server."""
        a = TraceRecorder()
        a.emit(TASK_DEQUEUE, 0.0, server_id=0, query_id=0)
        a.emit(TASK_COMPLETE, 0.5, server_id=0, query_id=0,
               extra={"duration": 0.5})
        b = TraceRecorder()
        b.emit(TASK_DEQUEUE, 0.2, server_id=4, query_id=1)
        b.emit(TASK_COMPLETE, 0.9, server_id=4, query_id=1,
               extra={"duration": 0.7})
        b.emit(TASK_DEQUEUE, 1.0, server_id=0, query_id=2)
        b.emit(TASK_COMPLETE, 1.4, server_id=0, query_id=2,
               extra={"duration": 0.4})
        a.merge_from(b)
        events = chrome_trace_events(a)
        assert {e["pid"] for e in events} == {TRACE_PID}
        slices = [e for e in events if e["ph"] == "X"]
        assert sorted(e["tid"] for e in slices) == [1, 1, 5]
        names = [e for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"]
        # handler + exactly one per distinct server, despite server 0
        # appearing in both source recorders.
        assert len(names) == 3


class TestEventLog:
    """The columnar store behind ``TraceRecorder.events``."""

    def test_events_view_is_a_read_only_sequence(self):
        rec = golden_recorder()
        events = rec.events
        assert len(events) == 10 and events
        assert not TraceRecorder().events
        assert events[-1].type == QUERY_COMPLETE
        assert events[-1].seq == 9
        assert [e.seq for e in events[2:5]] == [2, 3, 4]
        assert [e.to_dict() for e in events] == \
            [events[i].to_dict() for i in range(len(events))]
        with pytest.raises(IndexError):
            events[10]
        with pytest.raises(AttributeError):
            rec.events = []

    def test_flushed_and_pending_rows_read_alike(self):
        rec = TraceRecorder()
        n = CHUNK_ROWS + 5
        for i in range(n):
            rec.emit(TASK_DEQUEUE, float(i), server_id=i % 3, query_id=i,
                     class_name="gold", fanout=2, deadline=i + 0.5,
                     slack=0.5, extra={"queue_len": i % 4})
        events = list(rec.events)
        assert len(events) == n
        assert events[-1].to_dict() == rec.events[n - 1].to_dict() == {
            "seq": n - 1, "type": TASK_DEQUEUE, "time": float(n - 1),
            "server_id": (n - 1) % 3, "query_id": n - 1,
            "class_name": "gold", "fanout": 2, "deadline": n - 0.5,
            "slack": 0.5, "queue_len": (n - 1) % 4}
        assert events[0].to_dict() == rec.events[0].to_dict()

    def test_extras_keep_order_and_type(self):
        rec = TraceRecorder()
        extras = [
            {"slot": 2, "duration": 0.25},
            {"duration": 0.25, "slot": 2},
            {"queue_len": 3, "reorder_depth": 1},
            {"fallback": True},
            {"duration": 1, "slot": -(2 ** 53)},
            {"attempt": 1, "reason": "timeout", "slot": 0, "fallback": True},
            {"reason": "hedge_lost"},
            {"slot": 2 ** 53 + 1},
            {"slot": -(2 ** 70)},
            {},
        ]
        for extra in extras:
            rec.emit(TASK_COMPLETE, 1.0, server_id=0, query_id=0,
                     extra=extra)
        for extra, event in zip(extras, rec.events):
            assert list((event.extra or {}).items()) == list(extra.items())
            assert [type(v) for v in (event.extra or {}).values()] == \
                [type(v) for v in extra.values()]
        shapes = rec.columns().shape.tolist()
        assert SIDE not in shapes[:5]
        assert shapes[5:9] == [SIDE] * 4
        assert rec.events[3].extra == {"fallback": True}

    def test_read_recorder_stays_writable_and_mergeable(self):
        rec = golden_recorder()
        ClusterAttribution.from_recorder(rec)
        write_jsonl(rec, io.StringIO())
        before = rec.counts_by_type()
        held = rec.columns().time
        for i in range(CHUNK_ROWS + 1):
            rec.emit(QUERY_ARRIVE, 2.0 + i, query_id=10 + i)
        other = golden_recorder()
        other.columns()
        rec.merge_from(other, query_id_map=list(range(100, 102)))
        counts = rec.counts_by_type()
        assert counts[QUERY_ARRIVE] == before[QUERY_ARRIVE] + CHUNK_ROWS + 2
        assert len(rec.events) == 10 + CHUNK_ROWS + 1 + 10
        assert rec.events[-1].query_id == 100
        assert rec.events[-1].seq == len(rec.events) - 1
        assert len(held) == 10

    def test_unpickled_recorder_stays_writable(self):
        """A recorder back from a pool worker holds arrays that borrow
        the pickle's buffer; it must still grow and merge home."""
        rec = TraceRecorder()
        for i in range(CHUNK_ROWS):
            rec.emit(QUERY_ARRIVE, float(i), query_id=i)
        rec = pickle.loads(pickle.dumps(rec))
        rec.emit(QUERY_ARRIVE, float(CHUNK_ROWS), query_id=CHUNK_ROWS)
        home = golden_recorder()
        home.merge_from(rec)
        assert len(home.events) == 10 + CHUNK_ROWS + 1
        assert home.events[-1].query_id == CHUNK_ROWS
        assert home.events[-1].seq == 10 + CHUNK_ROWS

    def test_merge_interns_unknown_types_and_classes(self):
        custom = TraceRecorder(strict=False)
        custom.emit("CUSTOM_PROBE", 0.5, server_id=1, class_name="tin",
                    extra={"payload": "x"})
        rec = golden_recorder()
        rec.merge_from(custom, server_id_offset=4)
        last = rec.events[-1]
        assert (last.type, last.server_id, last.class_name, last.extra) == (
            "CUSTOM_PROBE", 5, "tin", {"payload": "x"})
        assert rec.counts_by_type()["CUSTOM_PROBE"] == 1
        with pytest.raises(ConfigurationError):
            rec.emit("CUSTOM_PROBE", 1.0)
