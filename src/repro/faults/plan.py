"""Fault plans: server crash/recovery schedules and tail-cutting mitigations.

TailGuard's evaluation assumes servers never fail; this module supplies
the missing robustness axis.  A :class:`FaultPlan` combines

* **crash schedules** — explicit :class:`Downtime` windows and/or a
  seeded :class:`CrashProcess` (exponential MTBF/MTTR per server);
* **straggler episodes** — windowed service-time inflation
  (:class:`StragglerEpisode`, the fault-layer spelling of
  :class:`~repro.cluster.config.ServicePerturbation`);
* **mitigations** — :class:`RetryPolicy` (kill-and-requeue with
  backoff/timeout, RackSched-style reassignment to a surviving server)
  and :class:`HedgePolicy` (SafeTail-style duplicate launch after a
  quantile-derived delay, cancel the loser on first completion).

Semantics (mirrored exactly by both simulation paths; see
``docs/faults.md`` for the full contract):

* With **no retry policy**, a crash *pauses* the server: the in-flight
  task restarts from scratch at recovery, queued tasks wait out the
  downtime, and newly arriving tasks assigned to the down server simply
  queue behind it.
* With a **retry policy**, a crash *kills* the server's work: the
  in-flight task and every queued task are requeued (after backoff) to
  the least-loaded surviving server, up to ``max_retries`` per task
  slot; tasks arriving for a down server are redirected on dispatch.
  ``timeout_ms`` additionally lets a still-queued task escape a slow
  queue by retrying elsewhere.
* Retried and hedged tasks keep the **original queuing deadline**
  ``t_D`` (Eq. 6) — mitigation must not loosen the SLO accounting.

Everything is deterministic given the plan (the crash process carries
its own seed), so fault-injected runs remain exactly reproducible and
the fast path / DES kernel equivalence holds under failures.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Transition kinds emitted by :meth:`MaterializedFaults.transitions`.
FAIL = "FAIL"
RECOVER = "RECOVER"


def _positive(value: float) -> bool:
    """Finite and > 0; the plain ``value <= 0`` test lets NaN through."""
    return math.isfinite(value) and value > 0


def fault_horizon(last_arrival_ms: float) -> float:
    """The crash-schedule materialization horizon for a run.

    Both simulation paths derive it identically from the trace (the
    last query arrival), so a seeded :class:`CrashProcess` yields the
    same windows on either path.  The 1.5x + 1000 ms slack covers queue
    drain after the last arrival; transitions beyond the actual drain
    time are processed harmlessly.
    """
    return float(last_arrival_ms) * 1.5 + 1000.0


@dataclass(frozen=True)
class Downtime:
    """One deterministic crash window: server ``server_id`` is down
    (not serving) during ``[start_ms, end_ms)``."""

    server_id: int
    start_ms: float
    end_ms: float

    def __post_init__(self) -> None:
        if self.server_id < 0:
            raise ConfigurationError(
                f"server_id must be >= 0, got {self.server_id}"
            )
        if not 0 <= self.start_ms < self.end_ms:
            raise ConfigurationError(
                f"need 0 <= start < end, got [{self.start_ms}, {self.end_ms})"
            )


@dataclass(frozen=True)
class CrashProcess:
    """A seeded MTBF/MTTR crash-recovery process.

    Each covered server alternates exponentially distributed up-times
    (mean ``mtbf_ms``) and down-times (mean ``mttr_ms``), starting up
    at t = 0.  Windows are materialized from
    ``np.random.default_rng(seed).spawn(...)`` per server, so the
    schedule is a pure function of ``(seed, n_servers, horizon)`` —
    identical on every simulation path and across processes.
    """

    mtbf_ms: float
    mttr_ms: float
    server_ids: Optional[Tuple[int, ...]] = None  #: None = every server.
    seed: int = 0

    def __post_init__(self) -> None:
        if not (_positive(self.mtbf_ms) and _positive(self.mttr_ms)):
            raise ConfigurationError(
                f"mtbf/mttr must be finite and positive, got "
                f"({self.mtbf_ms}, {self.mttr_ms})"
            )

    def materialize(self, n_servers: int,
                    horizon_ms: float) -> Tuple[Downtime, ...]:
        """Sample the crash windows over ``[0, horizon_ms)``."""
        covered = (tuple(range(n_servers)) if self.server_ids is None
                   else self.server_ids)
        for sid in covered:
            if not 0 <= sid < n_servers:
                raise ConfigurationError(
                    f"crash process covers server {sid}, cluster has "
                    f"{n_servers}"
                )
        streams = np.random.default_rng(self.seed).spawn(len(covered))
        windows: List[Downtime] = []
        for sid, rng in zip(covered, streams):
            now = 0.0
            while True:
                now += float(rng.exponential(self.mtbf_ms))
                if now >= horizon_ms:
                    break
                down = float(rng.exponential(self.mttr_ms))
                windows.append(Downtime(sid, now, now + down))
                now += down
        return tuple(windows)


@dataclass(frozen=True)
class StragglerEpisode:
    """A windowed straggler: the listed servers run ``factor`` times
    slower while the clock is in ``[start_ms, end_ms)``.

    Same semantics as
    :class:`~repro.cluster.config.ServicePerturbation` (the factor is
    applied to service times sampled while the window is open), but
    restricted to slowdowns — this is the fault layer.
    """

    server_ids: Tuple[int, ...]
    start_ms: float
    end_ms: float
    factor: float

    def __post_init__(self) -> None:
        if not self.server_ids:
            raise ConfigurationError("straggler episode needs >= 1 server")
        if not 0 <= self.start_ms < self.end_ms:
            raise ConfigurationError(
                f"need 0 <= start < end, got [{self.start_ms}, {self.end_ms})"
            )
        if not (math.isfinite(self.factor) and self.factor >= 1.0):
            raise ConfigurationError(
                f"straggler factor must be finite and >= 1, got "
                f"{self.factor}"
            )

    def applies(self, server_id: int, now: float) -> bool:
        return (self.start_ms <= now < self.end_ms
                and server_id in self.server_ids)


@dataclass(frozen=True)
class RetryPolicy:
    """Kill-and-requeue mitigation (RackSched-style reassignment).

    With a retry policy active, a server crash kills its in-flight and
    queued tasks; each killed task is requeued to the least-loaded
    surviving server (ties broken by lowest server id) after
    ``backoff_ms * attempt`` milliseconds, at most ``max_retries``
    times per task slot, after which the slot — and its query — fails.
    ``timeout_ms`` (optional) additionally retries a task that has been
    *queued* (not yet in service) for longer than the timeout, letting
    it escape a straggling or paused queue.
    """

    max_retries: int = 3
    backoff_ms: float = 0.0
    timeout_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_retries < 1:
            raise ConfigurationError(
                f"max_retries must be >= 1, got {self.max_retries}"
            )
        if not (math.isfinite(self.backoff_ms) and self.backoff_ms >= 0):
            raise ConfigurationError(
                f"backoff_ms must be finite and >= 0, got {self.backoff_ms}"
            )
        if self.timeout_ms is not None and not _positive(self.timeout_ms):
            raise ConfigurationError(
                f"timeout_ms must be finite and positive, got "
                f"{self.timeout_ms}"
            )


@dataclass(frozen=True)
class HedgePolicy:
    """Hedged requests (SafeTail-style tail cutting).

    ``delay`` per task slot is either the explicit ``delay_ms`` or the
    ``quantile`` of the slot's *primary server's* service-time CDF —
    hedge exactly when the task has fallen onto the slow margin of the
    distribution.  When the timer fires and the slot is still
    incomplete, a duplicate is launched on the least-loaded up server
    not already holding a live copy; the first completion wins and the
    loser is cancelled (queued losers are removed, in-service losers
    run to completion but are discarded — service is not preemptible).
    At most ``max_hedges`` duplicates are launched per slot, re-armed
    every ``delay`` until exhausted.
    """

    quantile: float = 0.95
    delay_ms: Optional[float] = None
    max_hedges: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.quantile < 1:
            raise ConfigurationError(
                f"quantile must be in (0, 1), got {self.quantile}"
            )
        if self.delay_ms is not None and not _positive(self.delay_ms):
            raise ConfigurationError(
                f"delay_ms must be finite and positive, got {self.delay_ms}"
            )
        if self.max_hedges < 1:
            raise ConfigurationError(
                f"max_hedges must be >= 1, got {self.max_hedges}"
            )

    def delay_for(self, primary_cdf) -> float:
        """The hedge delay for a slot whose primary server has the
        given service-time distribution."""
        if self.delay_ms is not None:
            return self.delay_ms
        return float(primary_cdf.quantile(self.quantile))

    def delay_via(self, estimator, primary_sid: int) -> float:
        """The hedge delay for a slot, memoized through the estimator.

        Quantile-mode delays route through
        :meth:`repro.core.deadline.DeadlineEstimator.hedge_delay` — the
        version-stamped quantile-inversion memo — so the inversion is
        computed once per distinct (distribution, quantile) pair and
        invalidated by rebootstrap / online refresh instead of being
        recomputed (and going stale) per hedge arm.
        """
        if self.delay_ms is not None:
            return self.delay_ms
        return estimator.hedge_delay(primary_sid, self.quantile)


@dataclass(frozen=True)
class FaultPlan:
    """Everything a fault-injected run needs: failures and mitigations.

    Attach to a simulation with
    :meth:`ClusterConfig.with_faults(plan) <repro.cluster.config.ClusterConfig.with_faults>`.
    A plan with no crash source, no stragglers, and no mitigations is
    *inactive* and leaves the simulation byte-identical to an untouched
    run.
    """

    downtimes: Tuple[Downtime, ...] = ()
    crashes: Optional[CrashProcess] = None
    stragglers: Tuple[StragglerEpisode, ...] = ()
    retry: Optional[RetryPolicy] = None
    hedge: Optional[HedgePolicy] = None

    def __post_init__(self) -> None:
        # Normalize lists to tuples so plans stay hashable/frozen.
        if not isinstance(self.downtimes, tuple):
            object.__setattr__(self, "downtimes", tuple(self.downtimes))
        if not isinstance(self.stragglers, tuple):
            object.__setattr__(self, "stragglers", tuple(self.stragglers))

    @property
    def active(self) -> bool:
        """Whether this plan changes anything at all."""
        return bool(self.downtimes or self.crashes is not None
                    or self.stragglers or self.hedge is not None)

    @property
    def kill_mode(self) -> bool:
        """Crashes kill work (retry active) vs pause it (no retry)."""
        return self.retry is not None

    def materialize(self, n_servers: int,
                    horizon_ms: float) -> "MaterializedFaults":
        """Resolve the plan into concrete per-server crash windows."""
        windows = list(self.downtimes)
        for downtime in windows:
            if downtime.server_id >= n_servers:
                raise ConfigurationError(
                    f"downtime names server {downtime.server_id}, cluster "
                    f"has {n_servers}"
                )
        if self.crashes is not None:
            windows.extend(self.crashes.materialize(n_servers, horizon_ms))
        for episode in self.stragglers:
            for sid in episode.server_ids:
                if not 0 <= sid < n_servers:
                    raise ConfigurationError(
                        f"straggler episode names server {sid}, cluster "
                        f"has {n_servers}"
                    )
        return MaterializedFaults(self, tuple(windows), n_servers)


class MaterializedFaults:
    """A :class:`FaultPlan` resolved to concrete crash windows.

    Validates that no server's windows overlap (ambiguous schedules are
    rejected rather than silently merged) and exposes the transition
    stream both simulators replay.
    """

    def __init__(self, plan: FaultPlan, windows: Tuple[Downtime, ...],
                 n_servers: int) -> None:
        self.plan = plan
        self.n_servers = n_servers
        per_server: Dict[int, List[Downtime]] = {}
        for window in windows:
            per_server.setdefault(window.server_id, []).append(window)
        for sid, server_windows in per_server.items():
            server_windows.sort(key=lambda w: w.start_ms)
            for prev, cur in zip(server_windows, server_windows[1:]):
                if cur.start_ms < prev.end_ms:
                    raise ConfigurationError(
                        f"server {sid} has overlapping crash windows "
                        f"[{prev.start_ms}, {prev.end_ms}) and "
                        f"[{cur.start_ms}, {cur.end_ms})"
                    )
        self.windows: Dict[int, Tuple[Downtime, ...]] = {
            sid: tuple(ws) for sid, ws in per_server.items()
        }
        self._starts: Dict[int, List[float]] = {
            sid: [w.start_ms for w in ws] for sid, ws in self.windows.items()
        }
        # Per-server straggler episodes, precomputed once in plan order
        # so the hot straggler_factor lookup scans only the episodes
        # that can ever apply to the server (usually zero or one)
        # instead of testing membership against every episode per
        # service start.  Plan order is preserved per server, so the
        # float product is bit-identical to the full scan.
        self._episodes: Dict[int, Tuple[Tuple[float, float, float], ...]] = {}
        for episode in plan.stragglers:
            for sid in episode.server_ids:
                self._episodes.setdefault(sid, []).append(
                    (episode.start_ms, episode.end_ms, episode.factor))
        self._episodes = {sid: tuple(eps)
                          for sid, eps in self._episodes.items()}

    def __bool__(self) -> bool:
        return bool(self.windows) or self.plan.active

    def transitions(self) -> List[Tuple[float, int, str]]:
        """All ``(time, server_id, FAIL|RECOVER)`` transitions, sorted.

        At equal times a server's RECOVER sorts before another's FAIL
        (kind is part of the sort key via the FAIL/RECOVER strings:
        "FAIL" < "RECOVER"), giving both simulators one deterministic
        replay order.
        """
        out: List[Tuple[float, int, str]] = []
        for sid, windows in self.windows.items():
            for window in windows:
                out.append((window.start_ms, sid, FAIL))
                out.append((window.end_ms, sid, RECOVER))
        out.sort()
        return out

    def is_down(self, server_id: int, now: float) -> bool:
        """Whether the server is inside a crash window at ``now``."""
        starts = self._starts.get(server_id)
        if not starts:
            return False
        index = bisect_right(starts, now) - 1
        if index < 0:
            return False
        window = self.windows[server_id][index]
        return now < window.end_ms

    def straggler_factor(self, server_id: int, now: float) -> float:
        """Combined slowdown factor of all open straggler episodes."""
        episodes = self._episodes.get(server_id)
        if not episodes:
            return 1.0
        factor = 1.0
        for start_ms, end_ms, episode_factor in episodes:
            if start_ms <= now < end_ms:
                factor *= episode_factor
        return factor

    def straggler_episodes(self, server_id: int
                           ) -> Tuple[Tuple[float, float, float], ...]:
        """This server's ``(start_ms, end_ms, factor)`` episodes.

        Plan-order, precomputed — the hook surface both kernels use to
        avoid per-decision scans over the full episode list.
        """
        return self._episodes.get(server_id, ())


def pick_server(depths: Sequence[int], up: Sequence[bool],
                exclude: Sequence[int] = ()) -> int:
    """The deterministic requeue/hedge target rule shared by both paths.

    Least-loaded (queue length including the in-service task) among up
    servers not excluded; ties broken by lowest server id.  Returns -1
    when no server is eligible.
    """
    best = -1
    best_depth = -1
    excluded = frozenset(exclude)
    for sid in range(len(depths)):
        if not up[sid] or sid in excluded:
            continue
        if best < 0 or depths[sid] < best_depth:
            best = sid
            best_depth = depths[sid]
    return best
