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


#: Each query field held as a column, with its dtype.
_FIELDS = (
    ("query_id", np.int64), ("class_name", object), ("fanout", np.int64),
    ("arrival_ms", np.float64), ("completion_ms", np.float64),
    ("latency_ms", np.float64), ("retry_delay_ms", np.float64),
    ("hedge_wait_ms", np.float64), ("queueing_ms", np.float64),
    ("service_ms", np.float64), ("critical_server", np.int64),
    ("critical_kind", object), ("n_retries", np.int64),
    ("n_hedges", np.int64), ("n_cancels", np.int64), ("degraded", bool),
    ("coverage", np.float64),
)
_KINDS = np.array((PRIMARY, RETRY, HEDGE), dtype=object)


def _last_per_query(qids: np.ndarray, values: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """``(sorted distinct query ids, the value at each id's last
    occurrence)``."""
    order = np.argsort(qids, kind="stable")
    ids = qids[order]
    last = np.ones(len(ids), bool)
    last[:-1] = ids[1:] != ids[:-1]
    return ids[last], values[order[last]]


def _lookup(keys: np.ndarray, values: np.ndarray, qids: np.ndarray,
            default) -> Tuple[np.ndarray, np.ndarray]:
    """``(found, value)`` of each query id in the sorted ``keys``."""
    pos = np.searchsorted(keys, qids)
    found = np.zeros(len(qids), bool)
    if len(keys):
        found = keys[np.minimum(pos, len(keys) - 1)] == qids
    out = np.full(len(qids), default, dtype=values.dtype)
    out[found] = values[pos[found]]
    return found, out


def _count_per_query(cols, qids: np.ndarray, *types: str) -> np.ndarray:
    """Events of the given types per query id in ``qids``."""
    rows = cols.rows(*types)
    events = cols.query_id[rows]
    found, at = _lookup(qids, np.arange(len(qids)), events, 0)
    return np.bincount(at[found], minlength=len(qids))


def _attribute(cols) -> Dict[str, np.ndarray]:
    """The per-query breakdown as columns (see the module docstring),
    one row per completed query in query-id order."""
    time, server, query = cols.time, cols.server_id, cols.query_id

    completions = cols.rows(TASK_COMPLETE)
    qids, final = _last_per_query(query[completions], completions)
    del completions
    arrivals = cols.rows(QUERY_ARRIVE)
    found, arrival = _lookup(*_last_per_query(query[arrivals], arrivals),
                             qids, -1)
    # Truncated streams (no arrival) and failed queries are not
    # decomposed; sibling slots of a failed query may have completed.
    keep = found & ~np.isin(qids, query[cols.rows(QUERY_TIMEOUT)])
    qids, final, arrival = qids[keep], final[keep], arrival[keep]
    t0, tc = time[arrival], time[final]

    terminal = cols.rows(QUERY_COMPLETE)
    has, latency_at = cols.extra_values("latency", terminal)
    found, latency = _lookup(
        *_last_per_query(query[terminal[has]], latency_at[has]), qids, 0.0)
    latency = np.where(found, latency, tc - t0)

    # Servers serialize service, so a completion's dequeue is the latest
    # TASK_DEQUEUE on its server before it (keys order by server, then
    # row).
    keys = cols.rows(TASK_DEQUEUE)
    matched = np.zeros(len(final), bool)
    dequeue = final
    if len(keys) and len(final):
        low = int(min(server[keys].min(), server[final].min()))
        span = len(cols) + 1
        keys += (server[keys].astype(np.int64) - low) * span
        keys.sort()
        wanted = (server[final].astype(np.int64) - low) * span + final
        prior = keys[np.maximum(np.searchsorted(keys, wanted) - 1, 0)]
        del keys
        dequeue = prior % span
        matched = ((prior < wanted) & (prior // span == wanted // span)
                   & (query[dequeue] == query[final]))
        dequeue = np.where(matched, dequeue, final)
    has_duration, duration = cols.extra_values("duration", final)
    # Defensive fallback for a stream whose dequeues were filtered out:
    # infer the service start from the duration.
    t2 = np.where(matched, time[dequeue],
                  np.where(has_duration, tc - duration, t0))

    # The critical copy's launch: the latest retry/hedge targeting the
    # completing server (and slot, when both are tagged) before its
    # dequeue; none means the primary dispatch at arrival.
    launches = cols.rows(TASK_RETRY, TASK_HEDGE)
    found, at = _lookup(qids, np.arange(len(qids)), query[launches], 0)
    launches, at = launches[found], at[found]
    ok = ((server[launches] == server[final[at]])
          & (launches < dequeue[at]))
    slotted, slot = cols.extra_values("slot", final)
    launch_slotted, launch_slot = cols.extra_values("slot", launches)
    ok &= ~slotted[at] | ~launch_slotted | (slot[at] == launch_slot)
    launch = np.full(len(qids), -1, np.int64)
    np.maximum.at(launch, at[ok], launches[ok])
    relaunched = launch >= 0
    kind = np.zeros(len(qids), np.int64)
    t1 = t0.copy()
    if relaunched.any():
        rows = launch[relaunched]
        hedged = cols.type_code[rows] == cols.type_names.index(TASK_HEDGE)
        kind[relaunched] = np.where(hedged, 2, 1)
        t1[relaunched] = time[rows]

    pre = t1 - t0
    retry_delay = np.where(kind == 1, pre, 0.0)
    hedge_wait = np.where(kind == 2, pre, 0.0)
    queueing = t2 - t1
    service = ((latency - retry_delay) - hedge_wait) - queueing

    degrades = cols.rows(QUERY_DEGRADED)
    has, coverage_at = cols.extra_values("coverage", degrades)
    degraded, coverage = _lookup(
        *_last_per_query(query[degrades], np.where(has, coverage_at, 1.0)),
        qids, 1.0)

    class_code = np.where(cols.class_code[arrival] == 0,
                          cols.class_code[final], cols.class_code[arrival])
    return {
        "query_id": qids,
        "class_name": np.array(cols.class_names, dtype=object)[class_code],
        "fanout": cols.fanout[arrival].astype(np.int64),
        "arrival_ms": t0,
        "completion_ms": tc,
        "latency_ms": latency,
        "retry_delay_ms": retry_delay,
        "hedge_wait_ms": hedge_wait,
        "queueing_ms": queueing,
        "service_ms": service,
        "critical_server": server[final].astype(np.int64),
        "critical_kind": _KINDS[kind],
        "n_retries": _count_per_query(cols, qids, TASK_RETRY),
        "n_hedges": _count_per_query(cols, qids, TASK_HEDGE),
        "n_cancels": _count_per_query(cols, qids, TASK_CANCEL),
        "degraded": degraded,
        "coverage": coverage,
    }


def _queries(columns: Dict[str, np.ndarray],
             rows: np.ndarray) -> List[QueryAttribution]:
    values = [columns[name][rows].tolist() for name, _ in _FIELDS]
    return [QueryAttribution(*row) for row in zip(*values)]


def attribute_queries(recorder) -> List[QueryAttribution]:
    """Reconstruct the per-query breakdown from a recorder's events.

    Works on any stream that contains the task lifecycle events — both
    simulation paths, the DES handler/server stack, and traces loaded
    back via :func:`repro.obs.export.recorder_from_jsonl`.  Returns one
    entry per *completed* query, in query-id order.
    """
    columns = _attribute(recorder.columns())
    return _queries(columns, np.arange(len(columns["query_id"])))


class ClusterAttribution:
    """Cluster-level view over per-query attributions.

    Answers the tail question the aggregates cannot: *where* does p99
    latency go — queueing, service, retry backoff, or hedge waits —
    and on which servers.  The breakdown is held as one NumPy column
    per :class:`QueryAttribution` field; the objects themselves are
    built only where the API returns them (:attr:`queries`,
    :meth:`top_k`).
    """

    def __init__(self, queries: List[QueryAttribution],
                 timed_out: int = 0, shed_tasks: int = 0,
                 hedge_losses: int = 0) -> None:
        queries = list(queries)
        self._columns = {
            name: np.array([getattr(q, name) for q in queries], dtype)
            for name, dtype in _FIELDS}
        self._queries: Optional[List[QueryAttribution]] = queries
        self.timed_out = timed_out
        self.shed_tasks = shed_tasks
        self.hedge_losses = hedge_losses

    @classmethod
    def from_recorder(cls, recorder) -> "ClusterAttribution":
        cols = recorder.columns()
        hedge_losses = sum(
            (cols.extra_dict(row) or {}).get("reason") == "hedge_lost"
            for row in cols.rows(TASK_CANCEL).tolist())
        attribution = cls([], timed_out=len(cols.rows(QUERY_TIMEOUT)),
                          shed_tasks=len(cols.rows(TASK_SHED)),
                          hedge_losses=hedge_losses)
        attribution._columns = _attribute(cols)
        attribution._queries = None
        return attribution

    @property
    def queries(self) -> List[QueryAttribution]:
        """Every attributed query, in query-id order."""
        if self._queries is None:
            self._queries = _queries(self._columns, np.arange(len(self)))
        return self._queries

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._columns["query_id"])

    def latencies(self) -> np.ndarray:
        return self._columns["latency_ms"].copy()

    def component_values(self, component: str) -> np.ndarray:
        if component not in COMPONENTS:
            raise KeyError(f"unknown component {component!r}; "
                           f"known: {COMPONENTS}")
        return self._columns[f"{component}_ms"].copy()

    def mechanism_table(self) -> Dict[str, Dict[str, float]]:
        """Per-component p50/p99/mean and share of total latency."""
        latencies = self._columns["latency_ms"]
        total_latency = float(latencies.sum()) if len(self) else 0.0
        table: Dict[str, Dict[str, float]] = {}
        for component in COMPONENTS:
            values = self._columns[f"{component}_ms"]
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
        if not len(self):
            return {"percentile": percentile, "threshold_ms": 0.0,
                    "n_tail": 0, "shares": {c: 0.0 for c in COMPONENTS},
                    "servers": [], "degraded_fraction": 0.0,
                    "hedge_won_fraction": 0.0, "retried_fraction": 0.0}
        columns = self._columns
        latencies = columns["latency_ms"]
        threshold = float(exact_percentile(latencies, percentile))
        tail = np.flatnonzero(latencies >= threshold)
        # Python sums, in query order, as the per-query view adds them.
        tail_latency = latencies[tail].tolist()
        tail_time = sum(tail_latency)
        shares = {}
        for component in COMPONENTS:
            shares[component] = (
                sum(columns[f"{component}_ms"][tail].tolist()) / tail_time
                if tail_time > 0 else 0.0
            )
        by_server: Dict[int, Tuple[float, int]] = {}
        for sid, latency in zip(columns["critical_server"][tail].tolist(),
                                tail_latency):
            time_so_far, count = by_server.get(sid, (0.0, 0))
            by_server[sid] = (time_so_far + latency, count + 1)
        servers = sorted(
            ({"server": sid, "share": time / tail_time if tail_time else 0.0,
              "queries": count}
             for sid, (time, count) in by_server.items()),
            key=lambda row: -row["share"],
        )[:top_servers]
        n = len(tail)
        kinds = columns["critical_kind"][tail]
        return {
            "percentile": percentile,
            "threshold_ms": threshold,
            "n_tail": n,
            "shares": shares,
            "servers": servers,
            "degraded_fraction": int(
                np.count_nonzero(columns["degraded"][tail])) / n,
            "hedge_won_fraction": int(np.count_nonzero(kinds == HEDGE)) / n,
            "retried_fraction": int(np.count_nonzero(kinds == RETRY)) / n,
        }

    def top_k(self, k: int = 5) -> List[QueryAttribution]:
        """The k slowest queries, slowest first."""
        order = np.argsort(-self._columns["latency_ms"], kind="stable")
        return _queries(self._columns, order[:k])

    def hedge_accounting(self) -> Dict[str, int]:
        """Hedging cost/benefit: launched duplicates, queries whose
        hedge *won* the critical path, and loser copies cancelled
        (duplicated work that bought nothing)."""
        return {
            "hedges_launched": int(self._columns["n_hedges"].sum()),
            "hedge_won_queries": int(np.count_nonzero(
                self._columns["critical_kind"] == HEDGE)),
            "hedge_losses_cancelled": self.hedge_losses,
        }

    def summary(self, percentile: float = 99.0) -> Dict[str, Any]:
        """JSON-ready cluster attribution (no per-query payload); the
        tail block covers queries at or above ``percentile``."""
        out: Dict[str, Any] = {
            "queries_attributed": len(self),
            "queries_timed_out": self.timed_out,
            "shed_tasks": self.shed_tasks,
            "components": self.mechanism_table(),
            "hedges": self.hedge_accounting(),
        }
        if len(self):
            out["tail"] = self.tail_attribution(percentile)
            out["degraded_queries"] = int(
                np.count_nonzero(self._columns["degraded"]))
        return out
