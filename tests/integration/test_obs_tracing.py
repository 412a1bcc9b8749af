"""End-to-end tracing: recorder wired through the cluster simulator
and the DES handler/server stack, reconciled against the result."""

import io
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import simulate
from repro.core.admission import DeadlineMissRatioAdmission
from repro.core.deadline import DeadlineEstimator
from repro.core.handler import QueryHandler
from repro.core.policies import get_policy
from repro.core.server import TaskServer
from repro.experiments.setups import (
    paper_single_class_config,
    paper_two_class_config,
)
from repro.obs import (
    DEADLINE_MISS,
    QUERY_ARRIVE,
    QUERY_REJECTED,
    SERVER_BUSY,
    TASK_COMPLETE,
    TASK_DEQUEUE,
    TASK_ENQUEUE,
    NullRecorder,
    TraceRecorder,
    chrome_trace_events,
    write_jsonl,
)
from repro.obs.export import read_jsonl
from repro.sim.engine import Environment
from repro.types import ServiceClass
from repro.workloads import (
    PoissonArrivals,
    ShardedPlacement,
    ShardMap,
    Workload,
    generate_queries,
    inverse_proportional_fanout,
    single_class_mix,
)


def traced_config(recorder, *, load=0.85, n_queries=2_000, admission=None):
    config = paper_single_class_config(
        "masstree", 0.6, n_servers=100, n_queries=n_queries, seed=7,
    ).at_load(load)
    return replace(config, recorder=recorder, admission=admission)


class TestClusterTracing:
    @pytest.fixture(scope="class")
    def traced(self):
        recorder = TraceRecorder(sample_interval_ms=2.0)
        result = simulate(traced_config(recorder))
        return recorder, result

    def test_result_carries_recorder(self, traced):
        recorder, result = traced
        assert result.obs is recorder

    def test_deadline_miss_events_match_result(self, traced):
        recorder, result = traced
        counts = recorder.counts_by_type()
        assert counts.get(DEADLINE_MISS, 0) == result.tasks_missed_deadline
        assert counts[TASK_DEQUEUE] == result.tasks_total
        assert counts[TASK_COMPLETE] == result.tasks_total

    def test_counters_match_result(self, traced):
        recorder, result = traced
        n_queries = int(result.latency.size)
        assert recorder.counters["tasks_dequeued"] == result.tasks_total
        assert recorder.counters["queries_arrived"] == n_queries
        assert (recorder.counters["queries_completed"]
                == int((~result.rejected).sum()))

    def test_latency_histogram_brackets_exact_percentile(self, traced):
        recorder, result = traced
        latencies = np.sort(result.latency[~result.rejected])
        hist = recorder.latency_hist
        assert hist.total_count() == latencies.size
        # The histogram's conservative p99 must sit between the exact
        # ceil-rank sample and one bucket width above it.
        rank_sample = float(latencies[math.ceil(0.99 * latencies.size) - 1])
        estimate = hist.percentile(99.0)
        assert rank_sample <= estimate
        assert estimate <= rank_sample * 10 ** (1 / hist.buckets_per_decade) + 1e-9

    def test_events_are_time_ordered(self, traced):
        recorder, _ = traced
        times = [e.time for e in recorder.events]
        assert times == sorted(times)
        assert [e.seq for e in recorder.events] == list(range(len(times)))

    def test_series_sampled_at_interval(self, traced):
        recorder, _ = traced
        series = recorder.server_series()
        assert series is not None
        assert series.n_servers == 100
        assert np.allclose(np.diff(series.time), 2.0)
        assert (series.utilization >= 0).all()
        assert (series.utilization <= 1).all()
        assert (series.miss_ratio >= 0).all()
        assert (series.miss_ratio <= 1).all()
        assert (series.queue_len >= 0).all()

    def test_jsonl_roundtrip_preserves_miss_count(self, traced):
        recorder, result = traced
        buffer = io.StringIO()
        n = write_jsonl(recorder, buffer)
        assert n == len(recorder.events)
        parsed = read_jsonl(io.StringIO(buffer.getvalue()))
        misses = sum(1 for p in parsed if p["type"] == DEADLINE_MISS)
        assert misses == result.tasks_missed_deadline

    def test_chrome_trace_is_valid(self, traced):
        recorder, result = traced
        events = chrome_trace_events(recorder)
        for event in events:
            assert {"ph", "pid", "tid"} <= event.keys()
            if event["ph"] != "M":
                assert "ts" in event
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == result.tasks_total
        assert all(e["dur"] >= 0 for e in slices)
        # Slices live on server threads: tid = server_id + 1.
        assert {e["tid"] for e in slices} <= set(range(1, 101))

    def test_null_recorder_result_identical_to_untraced(self):
        base = simulate(traced_config(None))
        nulled = simulate(traced_config(NullRecorder()))
        assert nulled.obs is None
        assert np.array_equal(base.latency, nulled.latency, equal_nan=True)
        assert np.array_equal(base.rejected, nulled.rejected)
        assert base.tasks_missed_deadline == nulled.tasks_missed_deadline

    @pytest.mark.parametrize("variant", [
        "fifo", "priq", "t-edf", "tailguard", "wrr", "least-loaded"])
    def test_traced_run_numbers_identical_to_untraced(self, variant):
        """Tracing observes the run; it must never perturb it — under
        every registry policy (two classes, so PRIQ and WRR reorder)
        and under a placement hook that reads queue depths."""
        config = paper_two_class_config(
            "masstree", 0.6, n_servers=100, n_queries=2_000, seed=7,
            policy="tailguard" if variant == "least-loaded" else variant,
        ).at_load(0.85)
        if variant == "least-loaded":
            config = config.evolve(placement=ShardedPlacement(
                ShardMap(200, 100, replication=2), select="least-loaded"))
        base = simulate(config)
        traced = simulate(config.with_recorder(
            TraceRecorder(sample_interval_ms=1.0)))
        assert traced.obs is not None and traced.obs.events
        assert np.array_equal(base.latency, traced.latency, equal_nan=True)
        assert base.tasks_total == traced.tasks_total
        assert base.tasks_missed_deadline == traced.tasks_missed_deadline
        assert base.busy_time_total == traced.busy_time_total
        assert base.duration == traced.duration


class TestAdmissionTracing:
    def test_rejection_events_match_result(self):
        recorder = TraceRecorder()
        admission = DeadlineMissRatioAdmission(
            0.02, window_tasks=5_000, min_samples=200)
        result = simulate(traced_config(
            recorder, load=1.3, admission=admission))
        n_rejected = int(result.rejected.sum())
        assert n_rejected > 0, "load 1.3 should trigger admission control"
        counts = recorder.counts_by_type()
        assert counts[QUERY_REJECTED] == n_rejected
        assert counts[QUERY_ARRIVE] == int(result.latency.size)
        assert recorder.counters["queries_rejected"] == n_rejected
        for event in recorder.events:
            if event.type == QUERY_REJECTED:
                assert 0.0 <= event.extra["miss_ratio"] <= 1.0

    def test_admission_decision_hook(self):
        admission = DeadlineMissRatioAdmission(
            0.5, window_tasks=10, window_ms=100.0, min_samples=10)
        decisions = []
        admission.decision_hook = (
            lambda admitted, now, ratio: decisions.append((admitted, ratio)))
        for i in range(10):
            admission.record_task(missed_deadline=True, now=float(i))
        assert admission.admit(now=10.0) is False
        assert decisions == [(False, 1.0)]
        assert admission.window_occupancy() == 1.0


class TestDESTracing:
    """Recorder through the DES QueryHandler/TaskServer stack."""

    def make_workload(self, masstree):
        return Workload(
            name="des-traced",
            arrivals=PoissonArrivals(2.0),
            fanout=inverse_proportional_fanout([1, 2, 4]),
            class_mix=single_class_mix(ServiceClass("single", slo_ms=1.0)),
            service_time=masstree.service_time,
        )

    def make_stack(self, recorder, workload):
        env = Environment()
        rng = np.random.default_rng(3)
        policy = get_policy("tailguard")
        servers = [
            TaskServer(env, sid, policy, workload.service_time,
                       rng.spawn(1)[0], recorder=recorder)
            for sid in range(4)
        ]
        estimator = DeadlineEstimator(workload.service_time, n_servers=4)
        handler = QueryHandler(env, servers, estimator, policy, rng,
                               recorder=recorder)
        return env, handler

    def test_server_and_handler_events(self, masstree):
        workload = self.make_workload(masstree)
        recorder = TraceRecorder()
        env, handler = self.make_stack(recorder, workload)
        rng = np.random.default_rng(11)
        specs = generate_queries(workload, 200, rng)
        env.process(handler.drive(specs))
        env.run()
        counts = recorder.counts_by_type()
        assert counts[QUERY_ARRIVE] == 200
        n_tasks = sum(spec.fanout for spec in specs)
        assert counts[TASK_DEQUEUE] == n_tasks
        assert counts[TASK_COMPLETE] == n_tasks
        for event in recorder.events:
            if event.type == TASK_ENQUEUE:
                # The enqueue carries the queue state it observed.
                assert event.extra["queue_len"] >= 1
                assert event.extra["reorder_depth"] >= 0
            if event.type == SERVER_BUSY:
                assert 0 <= event.server_id < 4

    def test_des_tracing_does_not_perturb(self, masstree):
        workload = self.make_workload(masstree)

        def run(recorder):
            env, handler = self.make_stack(recorder, workload)
            rng = np.random.default_rng(11)
            specs = generate_queries(workload, 200, rng)
            env.process(handler.drive(specs))
            env.run()
            return [record.latency for record in handler.completed]

        assert run(None) == run(TraceRecorder())
