"""Maximum-load search (the paper's headline metric).

§IV.B: "we measure the tail latency for each type of queries and
identify the maximum load at which all three types of queries meet
their tail latency SLOs."  Feasibility in load is monotone for a
work-conserving queue, so a bisection over the offered load finds the
boundary; multiple seeds vote to damp percentile noise at the boundary.

The search parallelizes two ways (see :mod:`repro.experiments.parallel`):

* ``workers > 1`` evaluates all seeds of one probe concurrently and
  cancels the remaining seeds as soon as any seed is infeasible — the
  probe outcome is the AND over seeds, so this is bit-identical to the
  serial short-circuit loop, probe for probe.
* ``speculative >= 2`` additionally probes that many bisection
  midpoints per round at once.  Each round splits the bracket into
  ``speculative + 1`` equal parts instead of halving it, so the number
  of sequential rounds drops from ``log2(range/tol)`` to
  ``log_{speculative+1}(range/tol)`` — a wall-clock win whenever spare
  workers exist — at the cost of extra total probe work and a
  (deterministic) probe sequence that differs from plain bisection.
  The returned boundary is still feasibility-bracketed to within
  ``tol``, but may differ from the plain-bisection answer by up to
  ``tol``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.cluster.config import ClusterConfig
from repro.cluster.simulation import simulate
from repro.errors import ExperimentError
from repro.experiments.parallel import (
    get_pool,
    probe_feasible,
    probe_many_feasible,
    resolve_workers,
)


@dataclass(frozen=True)
class MaxLoadResult:
    """Outcome of one maximum-load search."""

    policy_name: str
    max_load: float
    #: (load, feasible) pairs probed by the bisection, in probe order.
    history: Tuple[Tuple[float, bool], ...]

    @property
    def probes(self) -> int:
        return len(self.history)


def _feasible(config: ClusterConfig, load: float, seeds: Tuple[int, ...],
              min_samples: int,
              fanout_buckets: Optional[Tuple[int, ...]]) -> bool:
    """Whether every seed's run meets all SLOs at this load (serial)."""
    rated = config.at_load(load)
    for seed in seeds:
        result = simulate(rated.with_seed(seed))
        if not result.meets_all_slos(min_samples=min_samples,
                                     fanout_buckets=fanout_buckets):
            return False
    return True


def find_max_load(
    config: ClusterConfig,
    lo: float = 0.05,
    hi: float = 0.95,
    tol: float = 0.01,
    seeds: Tuple[int, ...] = (1,),
    min_samples: int = 100,
    fanout_buckets: Optional[Tuple[int, ...]] = None,
    workers: Optional[int] = None,
    speculative: int = 1,
) -> MaxLoadResult:
    """Bisection over offered load for the SLO-feasibility boundary.

    Returns ``max_load = 0`` when even ``lo`` is infeasible, and ``hi``
    when everything up to ``hi`` is feasible.  ``tol`` is the absolute
    load resolution (the paper reports loads at percent granularity).

    ``workers`` fans seed evaluations (and, with ``speculative >= 2``,
    several midpoints per round) out over a process pool; the default
    (``None``/``1``) runs serially and is bit-identical to the
    historical behavior.  ``speculative == 1`` is plain bisection; its
    result is identical for any worker count.
    """
    if not 0 < lo < hi < math.inf:
        raise ExperimentError(f"need finite 0 < lo < hi, got [{lo}, {hi}]")
    if not 0 < tol < math.inf:
        raise ExperimentError(f"tol must be finite and positive, got {tol}")
    if len(seeds) == 0:
        raise ExperimentError("need at least one seed")
    if speculative < 1:
        raise ExperimentError(
            f"speculative must be >= 1 midpoint per round, got {speculative}"
        )
    policy_name = config.resolve_policy().name
    history: List[Tuple[float, bool]] = []

    n_workers = resolve_workers(workers)
    # The persistent pool (shut down atexit) keeps workers alive across
    # probe rounds and across repeated searches, instead of paying pool
    # spin-up per call.
    pool = get_pool(n_workers) if n_workers > 1 else None

    def probe(load: float) -> bool:
        if pool is None:
            ok = _feasible(config, load, seeds, min_samples,
                           fanout_buckets)
        else:
            ok = probe_feasible(pool, config, load, seeds, min_samples,
                                fanout_buckets)
        history.append((load, ok))
        return ok

    def probe_round(loads: Sequence[float]) -> List[bool]:
        if pool is None:
            return [probe(load) for load in loads]
        outcomes = probe_many_feasible(pool, config, loads, seeds,
                                       min_samples, fanout_buckets)
        history.extend(zip(loads, outcomes))
        return outcomes

    if not probe(lo):
        return MaxLoadResult(policy_name, 0.0, tuple(history))
    if probe(hi):
        return MaxLoadResult(policy_name, hi, tuple(history))

    if speculative == 1:
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if probe(mid):
                lo = mid
            else:
                hi = mid
    else:
        while hi - lo > tol:
            step = (hi - lo) / (speculative + 1)
            mids = [lo + step * i for i in range(1, speculative + 1)]
            outcomes = probe_round(mids)
            # Monotone narrowing: the bracket closes on the first
            # feasible-to-infeasible transition.  Seed noise can
            # make outcomes non-monotone across midpoints; taking
            # the first transition matches what plain bisection
            # would have converged onto.
            first_bad = next(
                (mid for mid, ok in zip(mids, outcomes) if not ok), None)
            if first_bad is None:
                lo = mids[-1]
            else:
                hi = first_bad
                good = [mid for mid, ok in zip(mids, outcomes)
                        if ok and mid < first_bad]
                if good:
                    lo = max(good)
    return MaxLoadResult(policy_name, lo, tuple(history))
