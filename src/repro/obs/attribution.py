"""Critical-path latency attribution from lifecycle event streams.

A completed query's end-to-end latency is the story of its *critical
copy*: the task copy whose completion drove the query's outstanding
count to zero.  Both simulators emit ``TASK_COMPLETE`` only for winning
copies (hedge losers and stale crash-era copies complete silently), so
the **last** ``TASK_COMPLETE`` of a query is exactly that copy, and the
events around it pin down the decomposition:

* the query arrived at ``t0`` (``QUERY_ARRIVE``);
* the critical copy was *launched* at ``t1`` — at ``t0`` for a primary
  dispatch, or at its ``TASK_RETRY`` / ``TASK_HEDGE`` event for a
  mitigation relaunch;
* it left the waiting line at ``t2`` (its ``TASK_DEQUEUE``); and
* it finished at ``Tc`` (its ``TASK_COMPLETE``), with
  ``latency = Tc - t0`` — the same float subtraction the simulators
  store in ``SimulationResult.latency``.

The additive decomposition is then

* ``retry_delay`` / ``hedge_wait`` = ``t1 - t0`` (zero for primaries;
  at most one of the two is nonzero, by the critical copy's kind),
* ``queueing`` = ``t2 - t1``, and
* ``service`` = the *remainder* ``latency - retry_delay - hedge_wait -
  queueing``, so the components sum back to the recorded latency
  bit-exactly by construction.  The remainder differs from the raw
  ``Tc - t2`` by at most a couple of float roundings — except under
  pause-mode downtime, where a crashed server restarts its in-flight
  task without a second dequeue and the service component deliberately
  absorbs the downtime the copy sat through.

Degradation is *not* an additive component: serving a query at reduced
fanout removes work instead of adding wait, so its "effect" is carried
as per-query annotations (``degraded``, ``coverage``) and surfaces in
the cluster-level tail attribution.

Matching is exact, not heuristic.  Servers serialize service, so the
dequeue belonging to a completion on server ``s`` is simply the latest
``TASK_DEQUEUE`` seen on ``s``; fault-path task events carry a
``slot`` tag so relaunches of different slots of the same query never
alias.  Queries that permanently failed (``QUERY_TIMEOUT``) have no
latency and are counted, not decomposed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.metrics.percentile import exact_percentile
from repro.obs.events import (
    QUERY_ARRIVE,
    QUERY_COMPLETE,
    QUERY_DEGRADED,
    QUERY_TIMEOUT,
    TASK_CANCEL,
    TASK_COMPLETE,
    TASK_DEQUEUE,
    TASK_HEDGE,
    TASK_RETRY,
    TASK_SHED,
)

#: How the critical copy came to be.
PRIMARY = "primary"
RETRY = "retry"
HEDGE = "hedge"

#: The additive components, in the decomposition's canonical order:
#: the sum ``retry_delay + hedge_wait + queueing + service`` equals the
#: end-to-end latency (``service`` is the remainder).
COMPONENTS = ("retry_delay", "hedge_wait", "queueing", "service")


@dataclass(slots=True)
class QueryAttribution:
    """The exact latency breakdown of one completed query."""

    query_id: int
    class_name: str
    fanout: int
    arrival_ms: float
    completion_ms: float
    latency_ms: float
    #: Additive components (milliseconds); they sum to ``latency_ms``.
    retry_delay_ms: float
    hedge_wait_ms: float
    queueing_ms: float
    service_ms: float
    #: The server that served the critical (completion-driving) copy.
    critical_server: int
    #: How that copy was launched: ``primary`` / ``retry`` / ``hedge``.
    critical_kind: str
    #: Mitigation activity across *all* of the query's copies.
    n_retries: int = 0
    n_hedges: int = 0
    n_cancels: int = 0
    #: Overload degradation annotations (not additive — see module doc).
    degraded: bool = False
    coverage: float = 1.0

    def components(self) -> Dict[str, float]:
        """The additive breakdown, keyed by :data:`COMPONENTS`."""
        return {
            "retry_delay": self.retry_delay_ms,
            "hedge_wait": self.hedge_wait_ms,
            "queueing": self.queueing_ms,
            "service": self.service_ms,
        }

    def check_additivity(self) -> bool:
        """The defining invariant, bit-exact: subtracting the launch
        and queueing components from the latency leaves the service
        remainder."""
        return (((self.latency_ms - self.retry_delay_ms)
                 - self.hedge_wait_ms)
                - self.queueing_ms) == self.service_ms


def attribute_queries(recorder) -> List[QueryAttribution]:
    """Reconstruct the per-query breakdown from a recorder's events.

    Works on any stream that contains the task lifecycle events — both
    simulation paths, the DES handler/server stack, and traces loaded
    back via :func:`repro.obs.export.recorder_from_jsonl`.  Returns one
    entry per *completed* query, in query-id order.
    """
    arrive: Dict[int, Any] = {}
    open_dequeue: Dict[int, Any] = {}
    #: query_id -> (completion event, its matched dequeue event).
    final: Dict[int, Tuple[Any, Any]] = {}
    launches: Dict[int, List[Any]] = {}
    retries: Dict[int, int] = {}
    hedges: Dict[int, int] = {}
    cancels: Dict[int, int] = {}
    coverage: Dict[int, float] = {}
    terminal_latency: Dict[int, float] = {}
    timed_out: set = set()

    for event in recorder.events:
        kind = event.type
        if kind == TASK_DEQUEUE:
            open_dequeue[event.server_id] = event
        elif kind == TASK_COMPLETE:
            final[event.query_id] = (event,
                                     open_dequeue.get(event.server_id))
        elif kind == QUERY_ARRIVE:
            arrive[event.query_id] = event
        elif kind == TASK_RETRY:
            launches.setdefault(event.query_id, []).append(event)
            retries[event.query_id] = retries.get(event.query_id, 0) + 1
        elif kind == TASK_HEDGE:
            launches.setdefault(event.query_id, []).append(event)
            hedges[event.query_id] = hedges.get(event.query_id, 0) + 1
        elif kind == TASK_CANCEL:
            cancels[event.query_id] = cancels.get(event.query_id, 0) + 1
        elif kind == QUERY_DEGRADED:
            coverage[event.query_id] = float(
                (event.extra or {}).get("coverage", 1.0))
        elif kind == QUERY_TIMEOUT:
            timed_out.add(event.query_id)
        elif kind == QUERY_COMPLETE and event.extra:
            if "latency" in event.extra:
                terminal_latency[event.query_id] = event.extra["latency"]

    out: List[QueryAttribution] = []
    for qid in sorted(final):
        arrival = arrive.get(qid)
        if arrival is None:
            continue  # truncated stream: completion without an arrival
        if qid in timed_out:
            continue  # failed query: sibling slots may have completed,
            # but there is no end-to-end latency to decompose
        complete, dequeue = final[qid]
        t0 = arrival.time
        latency = terminal_latency.get(qid)
        if latency is None:
            latency = complete.time - t0
        extra = complete.extra or {}
        slot = extra.get("slot")
        if dequeue is not None and dequeue.query_id == complete.query_id:
            t2 = dequeue.time
            dequeue_seq = dequeue.seq
        elif "duration" in extra:
            # Defensive fallback (e.g. a stream whose dequeues were
            # filtered out): infer the service start from the duration.
            t2 = complete.time - extra["duration"]
            dequeue_seq = complete.seq
        else:
            t2 = t0
            dequeue_seq = complete.seq

        # The critical copy's launch: the latest retry/hedge targeting
        # the completing server (and slot, when tagged) before its
        # dequeue; none means the primary dispatch at arrival.
        launch = None
        for candidate in launches.get(qid, ()):
            if candidate.server_id != complete.server_id:
                continue
            if candidate.seq >= dequeue_seq:
                continue
            cand_slot = (candidate.extra or {}).get("slot")
            if slot is not None and cand_slot is not None \
                    and cand_slot != slot:
                continue
            if launch is None or candidate.seq > launch.seq:
                launch = candidate

        if launch is None:
            kind, t1 = PRIMARY, t0
        elif launch.type == TASK_HEDGE:
            kind, t1 = HEDGE, launch.time
        else:
            kind, t1 = RETRY, launch.time

        pre = t1 - t0
        retry_delay = pre if kind == RETRY else 0.0
        hedge_wait = pre if kind == HEDGE else 0.0
        queueing = t2 - t1
        service = ((latency - retry_delay) - hedge_wait) - queueing

        out.append(QueryAttribution(
            query_id=qid,
            class_name=arrival.class_name or complete.class_name,
            fanout=arrival.fanout,
            arrival_ms=t0,
            completion_ms=complete.time,
            latency_ms=latency,
            retry_delay_ms=retry_delay,
            hedge_wait_ms=hedge_wait,
            queueing_ms=queueing,
            service_ms=service,
            critical_server=complete.server_id,
            critical_kind=kind,
            n_retries=retries.get(qid, 0),
            n_hedges=hedges.get(qid, 0),
            n_cancels=cancels.get(qid, 0),
            degraded=qid in coverage,
            coverage=coverage.get(qid, 1.0),
        ))
    return out


class ClusterAttribution:
    """Cluster-level view over per-query attributions.

    Answers the tail question the aggregates cannot: *where* does p99
    latency go — queueing, service, retry backoff, or hedge waits —
    and on which servers.
    """

    def __init__(self, queries: List[QueryAttribution],
                 timed_out: int = 0, shed_tasks: int = 0,
                 hedge_losses: int = 0) -> None:
        self.queries = list(queries)
        self.timed_out = timed_out
        self.shed_tasks = shed_tasks
        self.hedge_losses = hedge_losses

    @classmethod
    def from_recorder(cls, recorder) -> "ClusterAttribution":
        timed_out = 0
        shed = 0
        hedge_losses = 0
        for event in recorder.events:
            if event.type == QUERY_TIMEOUT:
                timed_out += 1
            elif event.type == TASK_SHED:
                shed += 1
            elif event.type == TASK_CANCEL:
                if (event.extra or {}).get("reason") == "hedge_lost":
                    hedge_losses += 1
        return cls(attribute_queries(recorder), timed_out=timed_out,
                   shed_tasks=shed, hedge_losses=hedge_losses)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.queries)

    def latencies(self) -> np.ndarray:
        return np.asarray([q.latency_ms for q in self.queries])

    def component_values(self, component: str) -> np.ndarray:
        if component not in COMPONENTS:
            raise KeyError(f"unknown component {component!r}; "
                           f"known: {COMPONENTS}")
        field = f"{component}_ms"
        return np.asarray([getattr(q, field) for q in self.queries])

    def mechanism_table(self) -> Dict[str, Dict[str, float]]:
        """Per-component p50/p99/mean and share of total latency."""
        total_latency = float(self.latencies().sum()) if self.queries else 0.0
        table: Dict[str, Dict[str, float]] = {}
        for component in COMPONENTS:
            values = self.component_values(component)
            if values.size == 0:
                table[component] = {"p50": 0.0, "p99": 0.0, "mean": 0.0,
                                    "share": 0.0}
                continue
            table[component] = {
                "p50": float(exact_percentile(values, 50.0)),
                "p99": float(exact_percentile(values, 99.0)),
                "mean": float(values.mean()),
                "share": (float(values.sum()) / total_latency
                          if total_latency > 0 else 0.0),
            }
        return table

    def tail_attribution(self, percentile: float = 99.0,
                         top_servers: int = 3) -> Dict[str, Any]:
        """Where the tail's time goes.

        Selects the queries at or above the latency percentile and
        reports each component's share of their summed latency, the
        servers whose critical copies carry the most tail time, and
        how many tail queries were degraded / hedge-won / retried.
        """
        if not self.queries:
            return {"percentile": percentile, "threshold_ms": 0.0,
                    "n_tail": 0, "shares": {c: 0.0 for c in COMPONENTS},
                    "servers": [], "degraded_fraction": 0.0,
                    "hedge_won_fraction": 0.0, "retried_fraction": 0.0}
        latencies = self.latencies()
        threshold = float(exact_percentile(latencies, percentile))
        tail = [q for q in self.queries if q.latency_ms >= threshold]
        tail_time = sum(q.latency_ms for q in tail)
        shares = {}
        for component in COMPONENTS:
            field = f"{component}_ms"
            shares[component] = (
                sum(getattr(q, field) for q in tail) / tail_time
                if tail_time > 0 else 0.0
            )
        by_server: Dict[int, Tuple[float, int]] = {}
        for q in tail:
            time_so_far, count = by_server.get(q.critical_server, (0.0, 0))
            by_server[q.critical_server] = (time_so_far + q.latency_ms,
                                            count + 1)
        servers = sorted(
            ({"server": sid, "share": time / tail_time if tail_time else 0.0,
              "queries": count}
             for sid, (time, count) in by_server.items()),
            key=lambda row: -row["share"],
        )[:top_servers]
        n = len(tail)
        return {
            "percentile": percentile,
            "threshold_ms": threshold,
            "n_tail": n,
            "shares": shares,
            "servers": servers,
            "degraded_fraction": sum(q.degraded for q in tail) / n,
            "hedge_won_fraction": sum(
                q.critical_kind == HEDGE for q in tail) / n,
            "retried_fraction": sum(
                q.critical_kind == RETRY for q in tail) / n,
        }

    def top_k(self, k: int = 5) -> List[QueryAttribution]:
        """The k slowest queries, slowest first."""
        return sorted(self.queries, key=lambda q: -q.latency_ms)[:k]

    def hedge_accounting(self) -> Dict[str, int]:
        """Hedging cost/benefit: launched duplicates, queries whose
        hedge *won* the critical path, and loser copies cancelled
        (duplicated work that bought nothing)."""
        return {
            "hedges_launched": sum(q.n_hedges for q in self.queries),
            "hedge_won_queries": sum(
                q.critical_kind == HEDGE for q in self.queries),
            "hedge_losses_cancelled": self.hedge_losses,
        }

    def summary(self, percentile: float = 99.0) -> Dict[str, Any]:
        """JSON-ready cluster attribution (no per-query payload); the
        tail block covers queries at or above ``percentile``."""
        out: Dict[str, Any] = {
            "queries_attributed": len(self.queries),
            "queries_timed_out": self.timed_out,
            "shed_tasks": self.shed_tasks,
            "components": self.mechanism_table(),
            "hedges": self.hedge_accounting(),
        }
        if self.queries:
            out["tail"] = self.tail_attribution(percentile)
            out["degraded_queries"] = sum(
                q.degraded for q in self.queries)
        return out
