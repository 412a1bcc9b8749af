"""Unit tests for latency attribution, SLO accounting, and forensics.

The attribution tests drive :func:`repro.obs.attribution.attribute_queries`
over hand-built synthetic event streams where the correct decomposition
is known exactly; the integration test in
``tests/integration/test_attribution_equivalence.py`` covers real
simulator streams on both paths.
"""

import json
import pathlib
import random
import types

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    QUERY_ARRIVE,
    QUERY_COMPLETE,
    QUERY_REJECTED,
    QUERY_TIMEOUT,
    TASK_COMPLETE,
    TASK_DEQUEUE,
    TASK_ENQUEUE,
    TraceRecorder,
)
from repro.obs.events import (
    QUERY_DEGRADED,
    TASK_CANCEL,
    TASK_HEDGE,
    TASK_RETRY,
    TASK_SHED,
)
from repro.obs.attribution import (
    COMPONENTS,
    HEDGE,
    PRIMARY,
    RETRY,
    ClusterAttribution,
    QueryAttribution,
    attribute_queries,
)
from repro.obs.forensics import validate_report
from repro.obs.slo import ALERT_BURN_RATE, ErrorBudget, SLOAccountant
from repro.types import ServiceClass

SCHEMA_PATH = (pathlib.Path(__file__).resolve().parents[1]
               / "data" / "report_schema.json")


def emit_primary_query(rec, qid, t0, t_deq, t_done, server=0,
                       class_name="gold", fanout=1):
    """A plain query: arrive, queue, serve, complete."""
    rec.emit(QUERY_ARRIVE, t0, query_id=qid, class_name=class_name,
             fanout=fanout)
    rec.emit(TASK_ENQUEUE, t0, server_id=server, query_id=qid)
    rec.emit(TASK_DEQUEUE, t_deq, server_id=server, query_id=qid)
    rec.emit(TASK_COMPLETE, t_done, server_id=server, query_id=qid,
             extra={"duration": t_done - t_deq})
    rec.emit(QUERY_COMPLETE, t_done, query_id=qid, class_name=class_name,
             fanout=fanout, extra={"latency": t_done - t0})


class TestAttributeQueries:
    def test_primary_decomposition(self):
        rec = TraceRecorder()
        emit_primary_query(rec, 0, t0=1.0, t_deq=1.4, t_done=2.5)
        (q,) = attribute_queries(rec)
        assert q.query_id == 0
        assert q.class_name == "gold"
        assert q.critical_kind == PRIMARY
        assert q.critical_server == 0
        assert q.latency_ms == pytest.approx(1.5)
        assert q.retry_delay_ms == 0.0
        assert q.hedge_wait_ms == 0.0
        assert q.queueing_ms == pytest.approx(0.4)
        assert q.service_ms == pytest.approx(1.1)
        assert q.check_additivity()
        assert set(q.components()) == set(COMPONENTS)

    def test_retry_critical_path(self):
        rec = TraceRecorder()
        rec.emit(QUERY_ARRIVE, 0.0, query_id=7, class_name="gold", fanout=1)
        rec.emit(TASK_ENQUEUE, 0.0, server_id=2, query_id=7)
        # The first copy dies with its server; the retry on server 3 wins.
        rec.emit(TASK_RETRY, 0.6, server_id=3, query_id=7,
                 extra={"attempt": 1, "reason": "server_fail", "slot": 0})
        rec.emit(TASK_DEQUEUE, 0.9, server_id=3, query_id=7)
        rec.emit(TASK_COMPLETE, 1.5, server_id=3, query_id=7,
                 extra={"duration": 0.6, "slot": 0})
        rec.emit(QUERY_COMPLETE, 1.5, query_id=7, class_name="gold",
                 fanout=1, extra={"latency": 1.5})
        (q,) = attribute_queries(rec)
        assert q.critical_kind == RETRY
        assert q.critical_server == 3
        assert q.retry_delay_ms == pytest.approx(0.6)
        assert q.hedge_wait_ms == 0.0
        assert q.queueing_ms == pytest.approx(0.3)
        assert q.service_ms == pytest.approx(0.6)
        assert q.n_retries == 1
        assert q.check_additivity()

    def test_hedge_wins_critical_path(self):
        rec = TraceRecorder()
        rec.emit(QUERY_ARRIVE, 0.0, query_id=1, class_name="gold", fanout=1)
        rec.emit(TASK_ENQUEUE, 0.0, server_id=0, query_id=1)
        rec.emit(TASK_HEDGE, 0.5, server_id=4, query_id=1,
                 extra={"hedge": 1, "slot": 0})
        rec.emit(TASK_DEQUEUE, 0.5, server_id=4, query_id=1)
        rec.emit(TASK_CANCEL, 0.8, server_id=0, query_id=1,
                 extra={"reason": "hedge_lost"})
        rec.emit(TASK_COMPLETE, 0.8, server_id=4, query_id=1,
                 extra={"duration": 0.3, "slot": 0})
        rec.emit(QUERY_COMPLETE, 0.8, query_id=1, class_name="gold",
                 fanout=1, extra={"latency": 0.8})
        (q,) = attribute_queries(rec)
        assert q.critical_kind == HEDGE
        assert q.critical_server == 4
        assert q.hedge_wait_ms == pytest.approx(0.5)
        assert q.retry_delay_ms == 0.0
        assert q.queueing_ms == 0.0
        assert q.service_ms == pytest.approx(0.3)
        assert q.n_hedges == 1
        assert q.n_cancels == 1
        assert q.check_additivity()

    def test_hedge_loses_primary_still_critical(self):
        rec = TraceRecorder()
        rec.emit(QUERY_ARRIVE, 0.0, query_id=2, class_name="gold", fanout=1)
        rec.emit(TASK_DEQUEUE, 0.1, server_id=0, query_id=2)
        rec.emit(TASK_HEDGE, 0.5, server_id=4, query_id=2,
                 extra={"hedge": 1, "slot": 0})
        rec.emit(TASK_CANCEL, 0.9, server_id=4, query_id=2,
                 extra={"reason": "hedge_lost"})
        rec.emit(TASK_COMPLETE, 0.9, server_id=0, query_id=2,
                 extra={"duration": 0.8, "slot": 0})
        rec.emit(QUERY_COMPLETE, 0.9, query_id=2, class_name="gold",
                 fanout=1, extra={"latency": 0.9})
        (q,) = attribute_queries(rec)
        # The hedge targeted a different server, so the primary dispatch
        # remains the critical copy.
        assert q.critical_kind == PRIMARY
        assert q.hedge_wait_ms == 0.0
        assert q.n_hedges == 1
        assert q.check_additivity()

    def test_dispatch_redirect_has_zero_retry_delay(self):
        rec = TraceRecorder()
        rec.emit(QUERY_ARRIVE, 2.0, query_id=3, class_name="gold", fanout=1)
        # Attempt-0 redirect away from a down server happens at arrival.
        rec.emit(TASK_RETRY, 2.0, server_id=1, query_id=3,
                 extra={"attempt": 0, "reason": "redirect", "slot": 0})
        rec.emit(TASK_DEQUEUE, 2.2, server_id=1, query_id=3)
        rec.emit(TASK_COMPLETE, 2.9, server_id=1, query_id=3,
                 extra={"duration": 0.7, "slot": 0})
        rec.emit(QUERY_COMPLETE, 2.9, query_id=3, class_name="gold",
                 fanout=1, extra={"latency": 0.9})
        (q,) = attribute_queries(rec)
        assert q.critical_kind == RETRY
        assert q.retry_delay_ms == 0.0
        assert q.queueing_ms == pytest.approx(0.2)
        assert q.check_additivity()

    def test_degraded_annotation(self):
        rec = TraceRecorder()
        rec.emit(QUERY_ARRIVE, 0.0, query_id=5, class_name="gold", fanout=10)
        rec.emit(QUERY_DEGRADED, 0.0, query_id=5,
                 extra={"dispatched": 4, "coverage": 0.4})
        rec.emit(TASK_DEQUEUE, 0.1, server_id=0, query_id=5)
        rec.emit(TASK_COMPLETE, 0.6, server_id=0, query_id=5,
                 extra={"duration": 0.5})
        rec.emit(QUERY_COMPLETE, 0.6, query_id=5, class_name="gold",
                 fanout=10, extra={"latency": 0.6})
        (q,) = attribute_queries(rec)
        assert q.degraded is True
        assert q.coverage == pytest.approx(0.4)
        assert q.check_additivity()

    def test_missing_dequeue_falls_back_to_duration(self):
        rec = TraceRecorder()
        rec.emit(QUERY_ARRIVE, 0.0, query_id=0, class_name="gold", fanout=1)
        rec.emit(TASK_COMPLETE, 1.0, server_id=0, query_id=0,
                 extra={"duration": 0.4})
        rec.emit(QUERY_COMPLETE, 1.0, query_id=0, class_name="gold",
                 fanout=1, extra={"latency": 1.0})
        (q,) = attribute_queries(rec)
        assert q.queueing_ms == pytest.approx(0.6)
        assert q.service_ms == pytest.approx(0.4)
        assert q.check_additivity()

    def test_missing_dequeue_and_duration_charges_service(self):
        rec = TraceRecorder()
        rec.emit(QUERY_ARRIVE, 0.0, query_id=0, class_name="gold", fanout=1)
        rec.emit(TASK_COMPLETE, 1.0, server_id=0, query_id=0)
        (q,) = attribute_queries(rec)
        assert q.queueing_ms == 0.0
        assert q.service_ms == pytest.approx(1.0)
        assert q.check_additivity()

    def test_latency_prefers_terminal_event(self):
        rec = TraceRecorder()
        rec.emit(QUERY_ARRIVE, 1.0, query_id=0, class_name="gold", fanout=1)
        rec.emit(TASK_DEQUEUE, 1.0, server_id=0, query_id=0)
        rec.emit(TASK_COMPLETE, 3.0, server_id=0, query_id=0,
                 extra={"duration": 2.0})
        # The handler's recorded latency is authoritative, even when it
        # differs from Tc - t0 by a rounding.
        rec.emit(QUERY_COMPLETE, 3.0, query_id=0, class_name="gold",
                 fanout=1, extra={"latency": 2.0000000001})
        (q,) = attribute_queries(rec)
        assert q.latency_ms == 2.0000000001
        assert q.check_additivity()

    def test_completion_without_arrival_skipped(self):
        rec = TraceRecorder()
        rec.emit(TASK_COMPLETE, 1.0, server_id=0, query_id=9,
                 extra={"duration": 0.5})
        assert attribute_queries(rec) == []

    def test_stale_dequeue_from_other_query_ignored(self):
        rec = TraceRecorder()
        # Server 0's last open dequeue belongs to query 8, not query 0:
        # the matcher must not borrow it.
        rec.emit(QUERY_ARRIVE, 0.0, query_id=0, class_name="gold", fanout=1)
        rec.emit(TASK_DEQUEUE, 0.2, server_id=0, query_id=8)
        rec.emit(TASK_COMPLETE, 1.0, server_id=0, query_id=0,
                 extra={"duration": 0.3})
        rec.emit(QUERY_COMPLETE, 1.0, query_id=0, class_name="gold",
                 fanout=1, extra={"latency": 1.0})
        (q,) = attribute_queries(rec)
        assert q.queueing_ms == pytest.approx(0.7)
        assert q.service_ms == pytest.approx(0.3)


class TestClusterAttribution:
    def build(self):
        rec = TraceRecorder()
        emit_primary_query(rec, 0, t0=0.0, t_deq=0.1, t_done=1.0, server=0)
        emit_primary_query(rec, 1, t0=0.0, t_deq=0.8, t_done=2.0, server=1)
        emit_primary_query(rec, 2, t0=0.0, t_deq=0.2, t_done=4.0, server=1)
        rec.emit(QUERY_TIMEOUT, 5.0, query_id=3, class_name="gold", fanout=1)
        rec.emit(TASK_SHED, 5.0, server_id=0, query_id=4)
        rec.emit(TASK_CANCEL, 5.0, server_id=0, query_id=1,
                 extra={"reason": "hedge_lost"})
        rec.emit(TASK_CANCEL, 5.0, server_id=0, query_id=2,
                 extra={"reason": "timeout"})
        return ClusterAttribution.from_recorder(rec)

    def test_from_recorder_counts(self):
        attr = self.build()
        assert len(attr) == 3
        assert attr.timed_out == 1
        assert attr.shed_tasks == 1
        assert attr.hedge_losses == 1

    def test_component_values_unknown_raises(self):
        attr = self.build()
        with pytest.raises(KeyError):
            attr.component_values("downtime")

    def test_mechanism_table_shares_sum_to_one(self):
        attr = self.build()
        table = attr.mechanism_table()
        assert set(table) == set(COMPONENTS)
        total_share = sum(row["share"] for row in table.values())
        assert total_share == pytest.approx(1.0)
        assert table["service"]["p99"] > 0

    def test_tail_attribution_shares_sum_to_one(self):
        attr = self.build()
        tail = attr.tail_attribution(percentile=50.0, top_servers=2)
        assert tail["n_tail"] >= 1
        assert sum(tail["shares"].values()) == pytest.approx(1.0)
        assert len(tail["servers"]) <= 2
        assert tail["servers"] == sorted(
            tail["servers"], key=lambda row: -row["share"])

    def test_top_k_slowest_first(self):
        attr = self.build()
        top = attr.top_k(2)
        assert [q.query_id for q in top] == [2, 1]

    def test_empty_cluster(self):
        attr = ClusterAttribution([])
        assert len(attr) == 0
        table = attr.mechanism_table()
        assert all(row["share"] == 0.0 for row in table.values())
        tail = attr.tail_attribution()
        assert tail["n_tail"] == 0
        assert tail["servers"] == []
        summary = attr.summary()
        assert "tail" not in summary

    def test_summary_keys(self):
        summary = self.build().summary()
        assert summary["queries_attributed"] == 3
        assert summary["queries_timed_out"] == 1
        assert summary["shed_tasks"] == 1
        assert set(summary["components"]) == set(COMPONENTS)
        assert summary["hedges"]["hedge_losses_cancelled"] == 1
        assert "tail" in summary


class TestErrorBudget:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ErrorBudget("g", slo_ms=1.0, percentile=0.0)
        with pytest.raises(ConfigurationError):
            ErrorBudget("g", slo_ms=1.0, percentile=100.0)
        with pytest.raises(ConfigurationError):
            ErrorBudget("g", slo_ms=0.0)
        with pytest.raises(ConfigurationError):
            ErrorBudget("g", slo_ms=1.0).burn_rate(0.0, now=1.0)

    def test_budget_arithmetic(self):
        budget = ErrorBudget("g", slo_ms=1.0, percentile=90.0)
        assert budget.budget_fraction == pytest.approx(0.1)
        for t in range(10):
            budget.record(float(t), bad=(t == 9))
        assert budget.total == 10
        assert budget.bad == 1
        assert budget.bad_fraction() == pytest.approx(0.1)
        assert budget.budget_consumed() == pytest.approx(1.0)
        assert budget.budget_remaining() == pytest.approx(0.0)

    def test_burn_rate_windows(self):
        budget = ErrorBudget("g", slo_ms=1.0, percentile=90.0)
        # 10 outcomes at t=0..9; both bad ones land late.
        for t in range(10):
            budget.record(float(t), bad=(t >= 8))
        # Trailing window [5, 9] holds 5 outcomes, 2 bad.
        assert budget.burn_rate(4.0, now=9.0) == pytest.approx(
            (2 / 5) / 0.1)
        # The full run: 2/10 bad at a 10% budget burns at 2x.
        assert budget.burn_rate(100.0, now=9.0) == pytest.approx(2.0)
        # A window before any outcome is empty and burns at zero.
        assert budget.burn_rate(1.0, now=-5.0) == 0.0

    def test_empty_budget(self):
        budget = ErrorBudget("g", slo_ms=1.0)
        assert budget.bad_fraction() == 0.0
        assert budget.budget_remaining() == 1.0
        assert budget.burn_rate(1.0, now=0.0) == 0.0


class TestSLOAccountant:
    def feed(self, accountant):
        rec = TraceRecorder()
        rec.emit(QUERY_COMPLETE, 1.0, query_id=0, class_name="gold",
                 fanout=1, extra={"latency": 0.5})
        rec.emit(QUERY_COMPLETE, 2.0, query_id=1, class_name="gold",
                 fanout=1, extra={"latency": 3.0})
        rec.emit(QUERY_TIMEOUT, 3.0, query_id=2, class_name="gold", fanout=1)
        rec.emit(QUERY_REJECTED, 4.0, query_id=3, class_name="gold",
                 fanout=1, extra={"miss_ratio": 0.5})
        rec.emit(QUERY_COMPLETE, 5.0, query_id=4, class_name="unknown",
                 fanout=1, extra={"latency": 0.1})
        return accountant.ingest(rec)

    def test_constructor_forms(self):
        from_mapping = SLOAccountant({"gold": (1.0, 99.0)})
        assert from_mapping.budgets["gold"].slo_ms == 1.0
        from_classes = SLOAccountant([ServiceClass("gold", slo_ms=1.0)])
        assert from_classes.budgets["gold"].percentile == 99.0
        with pytest.raises(ConfigurationError):
            SLOAccountant({})

    def test_ingest_classifies_outcomes(self):
        accountant = SLOAccountant({"gold": (1.0, 90.0)})
        n = self.feed(accountant)
        assert n == 4  # the unknown-class completion is skipped
        budget = accountant.budgets["gold"]
        assert budget.total == 4
        assert budget.bad == 3  # over-SLO completion, timeout, rejection
        assert accountant.span_ms == pytest.approx(3.0)

    def test_windows_and_alerts(self):
        accountant = SLOAccountant({"gold": (1.0, 90.0)})
        self.feed(accountant)
        windows = accountant.windows()
        assert windows["fast"] == pytest.approx(3.0 / 20.0)
        assert windows["slow"] == pytest.approx(3.0 / 5.0)
        with pytest.raises(ConfigurationError):
            accountant.windows(fast_ms=2.0, slow_ms=1.0)
        rates = accountant.burn_rates(fast_ms=10.0, slow_ms=10.0)
        assert rates["gold"]["fast"] == pytest.approx((3 / 4) / 0.1)
        alerts = accountant.alerts(fast_ms=10.0, slow_ms=10.0)
        assert alerts["gold"] is True
        lenient = accountant.alerts(threshold=1e9, fast_ms=10.0,
                                    slow_ms=10.0)
        assert lenient["gold"] is False

    def test_to_json_shape(self):
        accountant = SLOAccountant({"gold": (1.0, 90.0)})
        self.feed(accountant)
        doc = accountant.to_json(fast_ms=10.0, slow_ms=10.0)
        assert set(doc) == {"span_ms", "windows_ms", "classes"}
        row = doc["classes"]["gold"]
        assert row["total"] == 4
        assert row["bad"] == 3
        assert row["burn_rate"]["fast"] > ALERT_BURN_RATE
        assert row["alert"] is True
        json.dumps(doc)  # must be JSON-serializable as-is

    def test_to_prometheus_format(self):
        accountant = SLOAccountant({"gold": (1.0, 90.0)})
        self.feed(accountant)
        text = accountant.to_prometheus(fast_ms=10.0, slow_ms=10.0)
        assert 'tailguard_slo_queries_total{class="gold"} 4' in text
        assert 'tailguard_slo_bad_total{class="gold"} 3' in text
        assert 'tailguard_slo_burn_rate{class="gold",window="fast"}' in text
        assert text.endswith("\n")
        for line in text.splitlines():
            assert line.startswith("#") or " " in line

    def test_from_result_requires_recorder(self):
        untraced = types.SimpleNamespace(obs=None, classes=[])
        with pytest.raises(ConfigurationError):
            SLOAccountant.from_result(untraced)



def reference_attribute_queries(events):
    """The per-event loop :func:`attribute_queries` replaced: one pass
    over ``TraceEvent`` objects with dicts keyed by query id.  Kept as
    the reference the column version must equal field for field."""
    arrive, open_dequeue, final, launches = {}, {}, {}, {}
    retries, hedges, cancels, coverage, latencies = {}, {}, {}, {}, {}
    timed_out = set()
    for event in events:
        kind, qid, extra = event.type, event.query_id, event.extra or {}
        if kind == TASK_DEQUEUE:
            open_dequeue[event.server_id] = event
        elif kind == TASK_COMPLETE:
            final[qid] = (event, open_dequeue.get(event.server_id))
        elif kind == QUERY_ARRIVE:
            arrive[qid] = event
        elif kind in (TASK_RETRY, TASK_HEDGE):
            launches.setdefault(qid, []).append(event)
            counts = retries if kind == TASK_RETRY else hedges
            counts[qid] = counts.get(qid, 0) + 1
        elif kind == TASK_CANCEL:
            cancels[qid] = cancels.get(qid, 0) + 1
        elif kind == QUERY_DEGRADED:
            coverage[qid] = float(extra.get("coverage", 1.0))
        elif kind == QUERY_TIMEOUT:
            timed_out.add(qid)
        elif kind == QUERY_COMPLETE and "latency" in extra:
            latencies[qid] = extra["latency"]
    out = []
    for qid in sorted(final):
        arrival = arrive.get(qid)
        if arrival is None or qid in timed_out:
            continue
        complete, dequeue = final[qid]
        t0 = arrival.time
        latency = latencies.get(qid)
        if latency is None:
            latency = complete.time - t0
        extra = complete.extra or {}
        slot = extra.get("slot")
        if dequeue is not None and dequeue.query_id == qid:
            t2, before = dequeue.time, dequeue.seq
        elif "duration" in extra:
            t2, before = complete.time - extra["duration"], complete.seq
        else:
            t2, before = t0, complete.seq
        launch = None
        for candidate in launches.get(qid, ()):
            cand_slot = (candidate.extra or {}).get("slot")
            if (candidate.server_id == complete.server_id
                    and candidate.seq < before
                    and (slot is None or cand_slot is None
                         or cand_slot == slot)
                    and (launch is None or candidate.seq > launch.seq)):
                launch = candidate
        kind = (PRIMARY if launch is None else
                HEDGE if launch.type == TASK_HEDGE else RETRY)
        t1 = t0 if launch is None else launch.time
        pre = t1 - t0
        retry_delay = pre if kind == RETRY else 0.0
        hedge_wait = pre if kind == HEDGE else 0.0
        out.append(QueryAttribution(
            qid, arrival.class_name or complete.class_name, arrival.fanout,
            t0, complete.time, latency, retry_delay, hedge_wait, t2 - t1,
            ((latency - retry_delay) - hedge_wait) - (t2 - t1),
            complete.server_id, kind, retries.get(qid, 0),
            hedges.get(qid, 0), cancels.get(qid, 0), qid in coverage,
            coverage.get(qid, 1.0)))
    return out


def random_stream(seed):
    """A shuffled-looking stream of every event attribution reads, with
    missing dequeues, foreign slots, stale launches and sentinel ids."""
    rng = random.Random(seed)
    rec = TraceRecorder()
    kinds = (QUERY_ARRIVE, TASK_DEQUEUE, TASK_COMPLETE, TASK_RETRY,
             TASK_HEDGE, TASK_CANCEL, QUERY_DEGRADED, QUERY_TIMEOUT,
             QUERY_COMPLETE, QUERY_REJECTED, TASK_SHED)
    extras = {
        TASK_COMPLETE: ({"duration": 0.25}, {"duration": 0.5, "slot": 1},
                        {"slot": 0}, None),
        TASK_RETRY: ({"attempt": 1, "reason": "timeout", "slot": 1},
                     {"slot": 0}, None),
        TASK_HEDGE: ({"hedge": 1, "slot": 1}, {"hedge": 1, "slot": 0}),
        TASK_CANCEL: ({"reason": "hedge_lost"}, {"reason": "timeout"}),
        QUERY_DEGRADED: ({"coverage": 0.5, "dispatched": 1},
                         {"dispatched": 1}),
        QUERY_COMPLETE: ({"latency": 1.5}, {"other": 1}, None),
        QUERY_REJECTED: ({"miss_ratio": 0.5},),
    }
    now = 0.0
    for _ in range(rng.randrange(400)):
        now += rng.choice((0.0, rng.random()))
        kind = rng.choice(kinds)
        rec.emit(kind, now, server_id=rng.randrange(-1, 4),
                 query_id=rng.randrange(-1, 25),
                 class_name=rng.choice(("", "gold", "silver")),
                 fanout=rng.randrange(4),
                 extra=rng.choice(extras.get(kind, (None,))))
    return rec


class TestColumnsMatchEventLoop:
    """The column readers against per-event reference loops."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_streams(self, seed):
        rec = random_stream(seed)
        assert attribute_queries(rec) == reference_attribute_queries(
            rec.events)
        budgets = {"gold": (1.0, 99.0), "silver": (2.0, 90.0)}
        accountant = SLOAccountant(budgets)
        reference = SLOAccountant(budgets)
        outcomes = 0
        for event in rec.events:
            budget = reference.budgets.get(event.class_name)
            if budget is None or event.type not in (
                    QUERY_COMPLETE, QUERY_TIMEOUT, QUERY_REJECTED):
                continue
            latency = (event.extra or {}).get("latency")
            budget.record(event.time, event.type != QUERY_COMPLETE
                          or latency is None or latency > budget.slo_ms)
            outcomes += 1
        assert accountant.ingest(rec) == outcomes
        for name, budget in accountant.budgets.items():
            assert (budget._times, budget._bad_times) == (
                reference.budgets[name]._times,
                reference.budgets[name]._bad_times)

class TestValidateReport:
    def test_valid_instance(self):
        schema = {
            "type": "object",
            "required": ["version", "items"],
            "properties": {
                "version": {"type": "integer", "enum": [1]},
                "items": {
                    "type": "array",
                    "items": {"type": "number", "minimum": 0},
                },
                "kind": {"type": ["string", "null"]},
            },
        }
        assert validate_report({"version": 1, "items": [0, 1.5],
                                "kind": None}, schema) == []

    def test_each_violation_kind(self):
        schema = {
            "type": "object",
            "required": ["version"],
            "properties": {
                "version": {"type": "integer", "enum": [1]},
                "count": {"type": "integer", "minimum": 0},
                "rows": {"type": "array",
                         "items": {"type": "string"}},
            },
        }
        assert validate_report([], schema)  # type mismatch at the root
        assert validate_report({}, schema)  # missing required key
        assert any("enum" in e for e in
                   validate_report({"version": 2}, schema))
        assert any("minimum" in e for e in
                   validate_report({"version": 1, "count": -1}, schema))
        errors = validate_report({"version": 1, "rows": ["ok", 3]}, schema)
        assert any("rows[1]" in e for e in errors)
        # Booleans are not integers/numbers.
        assert validate_report({"version": True}, schema)

    def test_checked_in_schema_accepts_real_report(self):
        from repro.cluster import ClusterConfig
        from repro.cluster.simulation import simulate
        from repro.experiments.setups import paper_single_class_config
        from repro.obs.forensics import tail_forensics_report

        schema = json.loads(SCHEMA_PATH.read_text())
        config = paper_single_class_config(
            "masstree", slo_ms=1.0, n_servers=100, n_queries=400, seed=3,
        ).at_load(0.4).with_recorder(TraceRecorder())
        report = tail_forensics_report(simulate(config), top_k=3)
        assert validate_report(report, schema) == []
        json.dumps(report)
