"""Front-tier inter-shard routing.

The federation's front tier sits above ``n_shards`` independent
TF-EDFQ clusters and decides, per query, which shard serves it.  It
has no access to shard-internal queue state (shards are separate
failure/scaling domains); instead it maintains a **fluid backlog
model**: per-shard outstanding work ``W_s`` in server-milliseconds,
drained at the shard's aggregate capacity (``n_s`` server-ms per ms)
between arrivals, clamped at zero, and credited ``fanout × E[S_s]``
on each assignment.  ``W_s / n_s`` is then the estimated queueing
delay a new query would see on shard ``s`` — the delayed-but-cheap
global signal the load-balancing literature uses at this tier (cf.
the power-of-two results surveyed in PAPERS.md).  The model lives in
:func:`route_queries`'s per-query loop as plain Python floats, one
entry per shard: with a handful of shards, NumPy's per-call overhead
would cost more than the arithmetic.

Routers (``FederationConfig.router``):

``jsq``
    Join-the-shortest-queue on estimated delay: ``argmin W_s / n_s``
    over shards large enough for the query's fanout.
``p2c``
    Power-of-two-choices: two distinct eligible shards drawn uniformly,
    the one with less estimated delay wins.  O(1) state reads and
    near-JSQ tails — the classic trade.
``least-slack``
    Deadline-aware best fit: per-shard slack is the shard's own
    TailGuard budget ``T_b = SLO − x_p^u(k_f)`` (from its
    :class:`~repro.core.deadline.DeadlineEstimator`, Eq. 5) minus the
    estimated delay.  The query goes to the eligible shard with the
    *smallest non-negative* slack (tightest fit, preserving headroom on
    slack-rich shards), falling back to the largest slack when no shard
    can meet the budget.  With a :class:`~repro.replicas.ReplicaScorer`
    on the :class:`~repro.federation.FederationConfig`, feasible shards
    are instead ranked by the replica layer's depth+tail score —
    estimated delay as the depth term, the shard's mean service time as
    the (static) tail signal — trading tightest-fit packing for
    fastest-tail placement on heterogeneous federations; the infeasible
    fallback likewise takes the best-scored eligible shard.
``tenant``
    Zipf-skewed tenant affinity: each query belongs to one of
    ``n_tenants`` tenants (popularity ``∝ rank^-tenant_alpha``) and is
    routed to the tenant's home shard ``tenant mod n_shards`` — the
    data-locality baseline that *concentrates* hot tenants and shows
    why load-aware routing matters.  Combine with a
    :class:`~repro.federation.SpillPolicy` to let overloaded home
    shards shed to the federation.

Spill (any router): when a :class:`~repro.federation.SpillPolicy` is
set, the front tier predicts the chosen shard's admission verdict —
estimated delay exceeding the query's budget by more than
``margin_ms`` is the same deadline-infeasibility signal a shard-local
deadline-aware admission controller would reject on — and re-routes
the query to the eligible shard with the most slack, marking it
``spilled``.  One hop only: if no shard improves on the primary, the
query stays put (the shard's own admission control has the last word).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.deadline import DeadlineEstimator
from repro.errors import ConfigurationError
from repro.types import ServiceClass

#: Supported inter-shard routing policies.
ROUTERS: Tuple[str, ...] = ("jsq", "p2c", "least-slack", "tenant")


@dataclass
class RouteOutcome:
    """Per-query routing decisions, aligned with the front-tier query
    stream (global arrival order)."""

    #: Shard index serving each query.
    shard_of: np.ndarray
    #: True where the spill policy re-routed the query off its primary
    #: shard (all-False without a :class:`SpillPolicy`).
    spilled: np.ndarray
    #: Tenant id per query (``tenant`` router only, else None).
    tenant_of: Optional[np.ndarray] = None


def shard_mean_service_ms(shard) -> float:
    """Mean task service time of a shard template (ms).

    Follows the kernel's ``_finalize`` convention — the mean over the
    resolved per-server CDF means — so federation-level metadata agrees
    with what a bare cluster of the same shape would report.
    """
    if shard.server_cdfs is None and shard.workload is not None:
        return float(shard.workload.mean_service_ms())
    cdfs = shard.resolve_server_cdfs()
    return float(np.mean([dist.mean() for dist in cdfs.values()]))


class _ShardBudgets:
    """Memoized per-shard TailGuard budgets ``T_b(class, fanout)``.

    Uses each shard's own estimator when the template carries one, else
    a fresh :class:`DeadlineEstimator` over the shard's resolved server
    CDFs — the same offline initialization the shard's simulation
    kernel would build.  Heterogeneous shards are signed by a
    representative selection (servers ``0..k-1``); the front tier only
    needs a per-shard scalar, not a placement-exact budget.
    """

    def __init__(self, shards: Sequence) -> None:
        self._estimators: List[DeadlineEstimator] = []
        for shard in shards:
            est = shard.estimator
            if est is None:
                est = DeadlineEstimator(dict(shard.resolve_server_cdfs()))
            self._estimators.append(est)
        self._n = [s.n_servers for s in shards]
        self._memo: Dict[Tuple[int, int], List[float]] = {}

    def vector(self, service_class: ServiceClass, class_idx: int,
               fanout: int) -> List[float]:
        """Budgets across shards (``-inf`` where the fanout does not
        fit, so a slack computed from it never wins)."""
        key = (class_idx, fanout)
        vec = self._memo.get(key)
        if vec is None:
            vec = []
            for s, est in enumerate(self._estimators):
                if fanout > self._n[s]:
                    vec.append(-np.inf)
                elif est.homogeneous:
                    vec.append(float(est.budget(service_class,
                                                fanout=fanout)))
                else:
                    vec.append(float(est.budget(
                        service_class, servers=tuple(range(fanout)))))
            self._memo[key] = vec
        return vec


def _least_delay(delay: List[float], elig: List[int], every: List[int],
                 tie_draws: np.ndarray, i: int) -> int:
    """The eligible shard with the least estimated delay.

    Ties go to ``tie_draws[i]`` modulo their count, over the tied shards
    in ascending order; the draw is read only when a tie occurs.
    ``elig is every`` marks the common case where every shard fits.
    """
    if elig is every:
        best = min(delay)
        if delay.count(best) == 1:
            return delay.index(best)
        ties = [s for s, d in enumerate(delay) if d == best]
    else:
        cand = [delay[s] for s in elig]
        best = min(cand)
        if cand.count(best) == 1:
            return elig[cand.index(best)]
        ties = [s for s in elig if delay[s] == best]
    return ties[int(tie_draws[i]) % len(ties)]


def _least_slack(vec: List[float], delay: List[float], elig: List[int],
                 scorer, mean_ms: List[float]) -> int:
    """least-slack's pick: the tightest non-negative slack (with a
    scorer, the best-scored feasible shard), else the most slack (the
    best-scored eligible shard).  Ties go to the lowest shard index."""
    slack = [b - d for b, d in zip(vec, delay)]
    feasible = [s for s in elig if slack[s] >= 0.0]
    if scorer is not None:
        pool = feasible or elig
        scores = [scorer.score(delay[s], mean_ms[s]) for s in pool]
        return pool[scores.index(min(scores))]
    if feasible:
        return min(feasible, key=slack.__getitem__)
    return slack.index(max(slack))


def _eligible_shards(n_servers: List[int], fanout: np.ndarray
                     ) -> Tuple[List[int], Dict[int, List[int]]]:
    """``(every, eligible)``: all shard indices, and the shards each
    distinct fanout fits, ascending.  A fanout that fits every shard
    maps to ``every`` itself, so the router tests that case by
    identity."""
    largest = max(n_servers)
    if fanout.size and int(fanout.max()) > largest:
        k = int(fanout[int(np.argmax(fanout > largest))])
        raise ConfigurationError(
            f"fanout {k} exceeds every shard's server count "
            f"(largest shard has {largest})"
        )
    every = list(range(len(n_servers)))
    eligible: Dict[int, List[int]] = {}
    for k in np.flatnonzero(np.bincount(fanout)).tolist():
        fits = [s for s in every if n_servers[s] >= k]
        eligible[k] = every if fits == every else fits
    return every, eligible


def _p2c_picks(rng: np.random.Generator, fanout: np.ndarray,
               eligible: Dict[int, List[int]]) -> Tuple[List[int], List[int]]:
    """p2c's two distinct positions among each query's eligible shards,
    from one pair of raw draws per query (a lone eligible shard gets
    positions 0 and 0)."""
    draws = rng.integers(0, np.iinfo(np.int64).max, size=(fanout.size, 2))
    widths = np.zeros(max(eligible, default=0) + 1, dtype=np.int64)
    for k, elig in eligible.items():
        widths[k] = len(elig)
    width = widths[fanout]
    a = draws[:, 0] % width
    b = (a + 1 + draws[:, 1] % np.maximum(width - 1, 1)) % width
    return a.tolist(), b.tolist()


def route_queries(config, classes: Sequence[ServiceClass],
                  class_index: np.ndarray, fanout: np.ndarray,
                  arrival: np.ndarray,
                  rng: np.random.Generator) -> RouteOutcome:
    """Assign every query in the front-tier stream to a shard.

    Arrays are the columns of the front-tier
    :class:`~repro.workloads.QueryStream` (already in arrival order).
    ``rng`` is the router's own child stream — consumed only by the
    ``tenant`` Zipf draw, the ``p2c`` draws and the ``jsq``/``tenant``
    tie-break draws, so routing randomness never perturbs
    shard-internal seeding.

    One loop serves every router.  Per arrival it drains each shard's
    backlog ``W_s -= dt * n_s``, clamps it at zero and keeps the delay
    ``W_s / n_s`` beside it; an assignment credits ``k * E[S_s]``.  The
    float operations, their order and every tie rule (lowest index for
    argmin and argmax, ascending shard order for tie-breaks) are those
    of the element-wise NumPy model this loop replaced, so the golden
    corpus pins routing bit for bit.  No comprehension here reads loop
    state, which keeps the hot locals out of closure cells.
    """
    shards = config.shards
    n_shards = len(shards)
    router = config.router
    spill = config.spill
    scorer = getattr(config, "scorer", None)
    n_servers = [s.n_servers for s in shards]
    capacity = [float(n) for n in n_servers]
    mean_ms = [shard_mean_service_ms(s) for s in shards]
    budgets = (_ShardBudgets(shards)
               if router == "least-slack" or spill is not None else None)
    fanout = np.asarray(fanout)
    m = int(fanout.shape[0])
    every, eligible = _eligible_shards(n_servers, fanout)

    tenant_of: Optional[np.ndarray] = None
    home: List[int] = []
    if router == "tenant":
        ranks = np.arange(1, config.n_tenants + 1, dtype=float)
        weights = ranks ** -config.tenant_alpha
        tenant_of = rng.choice(config.n_tenants, size=m,
                               p=weights / weights.sum())
        home = (tenant_of % n_shards).tolist()
    pick_a: List[int] = []
    pick_b: List[int] = []
    if router == "p2c":
        pick_a, pick_b = _p2c_picks(rng, fanout, eligible)
    tie_draws: Optional[np.ndarray] = None
    if router in ("jsq", "tenant"):
        # Randomized tie-break: an idle federation has all-zero backlog
        # on every shard, and a deterministic argmin would pile the
        # whole stream onto shard 0 until backlog accrues.
        tie_draws = rng.integers(0, np.iinfo(np.int64).max, size=m)

    neg_margin = -spill.margin_ms if spill is not None else 0.0
    arrival_l = np.asarray(arrival, dtype=np.float64).tolist()
    fanout_l = fanout.tolist()
    class_l = np.asarray(class_index).tolist() if budgets is not None else []
    shard_ids = range(n_shards)
    work = [0.0] * n_shards
    delay = [0.0] * n_shards
    clock = 0.0
    shard_of = [0] * m
    spilled_at: List[int] = []

    for i in range(m):
        now = arrival_l[i]
        dt = now - clock
        if dt > 0.0:
            clock = now
            for s in shard_ids:
                w = work[s]
                if w:  # an idle shard stays at zero
                    w -= dt * capacity[s]
                    if w > 0.0:
                        work[s] = w
                        delay[s] = w / capacity[s]
                    else:
                        work[s] = 0.0
                        delay[s] = 0.0
        k = fanout_l[i]
        elig = eligible[k]
        if router == "jsq":
            shard = _least_delay(delay, elig, every, tie_draws, i)
        elif router == "p2c":
            first = elig[pick_a[i]]
            second = elig[pick_b[i]]
            shard = first if delay[first] <= delay[second] else second
        elif router == "least-slack":
            ci = class_l[i]
            shard = _least_slack(budgets.vector(classes[ci], ci, k), delay,
                                 elig, scorer, mean_ms)
        else:  # tenant
            shard = home[i]
            if n_servers[shard] < k:
                shard = _least_delay(delay, elig, every, tie_draws, i)
        if spill is not None:
            ci = class_l[i]
            vec = budgets.vector(classes[ci], ci, k)
            primary = vec[shard] - delay[shard]
            if primary < neg_margin:
                slack = [b - d for b, d in zip(vec, delay)]
                best = max(slack)
                alt = slack.index(best)
                if alt != shard and best > primary:
                    shard = alt
                    spilled_at.append(i)
        shard_of[i] = shard
        w = work[shard] + k * mean_ms[shard]
        work[shard] = w
        delay[shard] = w / capacity[shard]

    spilled = np.zeros(m, dtype=bool)
    spilled[spilled_at] = True
    return RouteOutcome(shard_of=np.array(shard_of, dtype=np.int32),
                        spilled=spilled, tenant_of=tenant_of)
