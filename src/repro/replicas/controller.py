"""Runtime half of the replica layer: one controller, both kernels.

A :class:`ReplicaController` is built from a
:class:`~repro.replicas.policy.ReplicaPolicy` and wired — verbatim, the
same class — into the DES kernel (:class:`repro.faults.FaultManager` /
:class:`repro.core.handler.QueryHandler`) and the event-calendar fast
path (the one loop of :mod:`repro.cluster.faultsim`).  It is RNG-free: every decision is a pure function of
the feed history (task starts, winning completions, hedge outcomes) and
the instantaneous depth/up vectors, so identical event order on the two
paths yields bit-identical decisions — the cross-path equivalence suite
pins this.

Feed contract (the kernels must call these at matching points):

* :meth:`on_task_start` — once per task copy at first service attempt
  (pause-mode restarts excluded), right after the overload controller's
  ``record_task`` feed when one is installed.
* :meth:`on_task_complete` — winning (non-discarded) completions only,
  matching the estimator/overload feed rule.
* :meth:`record_launch` — every non-hedge copy launch (dispatch and
  retry requeue); the denominator of the duplicate-load budget.
* :meth:`hedge_target` — at each hedge timer expiry; applies the
  budget, pressure, and score gates, picks the scored target, and
  accounts the launch when one is returned.
* :meth:`record_hedge_outcome` — once per hedged slot at resolution
  (win when the winning copy was a hedge; loss on other winners or
  permanent slot failure); drives the AIMD delay adjustment.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs.events import HEDGE_DELAY_UPDATE, HEDGE_SUPPRESSED
from repro.replicas.policy import ReplicaPolicy, ReplicaScorer

__all__ = ["ReplicaController", "install_replicas"]


class ReplicaController:
    """Scored replica placement, hedge suppression, and adaptive delay.

    See the module docstring for the feed contract.  All counters are
    public for tests and result finalization.
    """

    def __init__(self, policy: ReplicaPolicy, n_servers: int,
                 recorder=None) -> None:
        if not policy.active:
            raise ConfigurationError("ReplicaPolicy is inactive")
        self.policy = policy
        self.n_servers = int(n_servers)
        self.scorer: ReplicaScorer = policy.scorer or ReplicaScorer()
        self._recorder = recorder
        self._tracing = recorder is not None and getattr(
            recorder, "enabled", False)

        #: Per-server recent-tail EWMA (ms), updated on winning
        #: completions.
        self.tail_ewma: List[float] = [0.0] * self.n_servers
        #: Cluster-pressure EWMA (ms of deadline overshoot at service
        #: start) — same signal shape as ``OverloadController.pressure``.
        self.pressure = 0.0

        # --- adaptive delay state -------------------------------------
        adaptive = policy.adaptive
        self._factor = 1.0
        #: Every delay-factor adjustment as ``(time, factor)``, starting
        #: from the initial 1.0 — property tests assert the clamp band
        #: on this trace.
        self.delay_trace: List[Tuple[float, float]] = [(0.0, 1.0)]
        self._outcomes: Optional[Deque[bool]] = (
            deque(maxlen=adaptive.window_hedges)
            if adaptive is not None else None)
        self._window_wins = 0
        self._last_control = 0.0

        # --- counters --------------------------------------------------
        self.base_launches = 0
        self.hedges_launched = 0
        self.hedges_suppressed = 0
        self.suppressed_by: Dict[str, int] = {
            "budget": 0, "pressure": 0, "score": 0}
        self.hedge_wins = 0
        self.hedge_losses = 0

    # ------------------------------------------------------------------
    # feeds
    def on_task_start(self, server_id: int, slack: float) -> None:
        """A task copy entered service with ``slack`` ms to deadline."""
        suppression = self.policy.suppression
        if suppression is not None:
            overshoot = -slack if slack < 0.0 else 0.0
            self.pressure += suppression.pressure_alpha * (
                overshoot - self.pressure)

    def on_task_complete(self, server_id: int, duration: float) -> None:
        """A winning copy completed after ``duration`` ms of service."""
        alpha = self.scorer.tail_alpha
        self.tail_ewma[server_id] += alpha * (
            duration - self.tail_ewma[server_id])

    def record_launch(self) -> None:
        """Account one non-hedge copy launch (dispatch or requeue)."""
        self.base_launches += 1

    # ------------------------------------------------------------------
    # placement
    def pick(self, depths: Sequence[int], up: Sequence[bool],
             exclude: Sequence[int] = ()) -> int:
        """Scored replacement for :func:`repro.faults.pick_server`.

        Least score wins, ties to the lowest id; ``-1`` when no server
        is eligible.  With the default scorer this is exactly the
        least-loaded pick.
        """
        score = self.scorer.score
        tails = self.tail_ewma
        best = -1
        best_score = 0.0
        for sid in range(self.n_servers):
            if not up[sid] or sid in exclude:
                continue
            s = score(depths[sid], tails[sid])
            if best < 0 or s < best_score:
                best = sid
                best_score = s
        return best

    def place_fanout(self, k: int, depths: Sequence[int]) -> List[int]:
        """The ``k`` best-scored servers for initial slot placement.

        Ascending score order, ties to the lowest id.  Down-ness is not
        consulted — the nominal uniform placement does not consult it
        either, and dispatch-time redirection handles dead primaries.
        """
        score = self.scorer.score
        tails = self.tail_ewma
        ranked = sorted(range(self.n_servers),
                        key=lambda sid: (score(depths[sid], tails[sid]), sid))
        return ranked[:k]

    # ------------------------------------------------------------------
    # hedging
    def hedge_target(self, depths: Sequence[int], up: Sequence[bool],
                     exclude: Sequence[int], now: float,
                     query_id: int = -1) -> int:
        """Gate and place one hedge duplicate.

        Returns the target server id (the launch is accounted here, so
        the caller *must* launch on it) or ``-1`` — either because a
        suppression gate fired (counted, ``HEDGE_SUPPRESSED`` emitted)
        or because no server is eligible (not counted, same as the
        ungated kernels).  Gate order: budget, pressure, placement,
        score.
        """
        adaptive = self.policy.adaptive
        if (adaptive is not None
                and adaptive.max_duplicate_fraction is not None
                and (self.hedges_launched + 1
                     > adaptive.max_duplicate_fraction * self.base_launches)):
            self._suppress("budget", now, query_id)
            return -1
        suppression = self.policy.suppression
        if (suppression is not None
                and self.pressure >= suppression.pressure_threshold_ms):
            self._suppress("pressure", now, query_id)
            return -1
        target = self.pick(depths, up, exclude)
        if target < 0:
            return -1
        if (suppression is not None
                and suppression.score_threshold is not None
                and self.scorer.score(depths[target],
                                      self.tail_ewma[target])
                >= suppression.score_threshold):
            self._suppress("score", now, query_id)
            return -1
        self.hedges_launched += 1
        return target

    def _suppress(self, reason: str, now: float, query_id: int) -> None:
        self.hedges_suppressed += 1
        self.suppressed_by[reason] += 1
        if self._tracing:
            self._recorder.emit(HEDGE_SUPPRESSED, now, query_id=query_id,
                                extra={"reason": reason})

    def record_hedge_outcome(self, won: bool, now: float) -> None:
        """Resolve one hedged slot (win = a hedge copy won the slot)."""
        if won:
            self.hedge_wins += 1
        else:
            self.hedge_losses += 1
        outcomes = self._outcomes
        if outcomes is None:
            return
        if len(outcomes) == outcomes.maxlen and outcomes[0]:
            self._window_wins -= 1
        outcomes.append(won)
        if won:
            self._window_wins += 1
        self._maybe_adjust(now)

    def _maybe_adjust(self, now: float) -> None:
        adaptive = self.policy.adaptive
        if (len(self._outcomes) < adaptive.min_samples
                or now - self._last_control < adaptive.ctl_interval_ms):
            return
        self._last_control = now
        ratio = self._window_wins / len(self._outcomes)
        target = adaptive.target_win_ratio
        factor = self._factor
        if ratio < target * (1.0 - adaptive.hysteresis):
            factor = min(adaptive.max_factor, factor * adaptive.increase)
        elif ratio > target * (1.0 + adaptive.hysteresis):
            factor = max(adaptive.min_factor, factor - adaptive.decrease)
        if factor != self._factor:
            self._factor = factor
            self.delay_trace.append((now, factor))
            if self._tracing:
                self._recorder.emit(HEDGE_DELAY_UPDATE, now,
                                    extra={"factor": factor,
                                           "win_ratio": ratio})

    # ------------------------------------------------------------------
    @property
    def adaptive_delay(self) -> bool:
        """Whether hedge delays vary over the run (AIMD configured)."""
        return self.policy.adaptive is not None

    def delay_scale(self) -> float:
        """Current delay factor (1.0 until the AIMD loop first acts)."""
        return self._factor

    def hedge_delay(self, base_delay: float) -> float:
        """The delay to arm the next hedge timer with."""
        if self.policy.adaptive is None:
            return base_delay
        return base_delay * self._factor

    def duplicate_fraction(self) -> float:
        """Hedged fraction of launched base copies so far."""
        if self.base_launches == 0:
            return 0.0
        return self.hedges_launched / self.base_launches

    def win_ratio(self) -> float:
        """Lifetime duplicate-win ratio (not the sliding window)."""
        resolved = self.hedge_wins + self.hedge_losses
        if resolved == 0:
            return 0.0
        return self.hedge_wins / resolved


def install_replicas(env, handler, servers, policy: ReplicaPolicy,
                     recorder=None) -> ReplicaController:
    """Wire a :class:`ReplicaPolicy` into the DES-kernel path.

    Mirrors :func:`repro.overload.install_overload`: builds the
    controller, binds it to the handler (scored fanout) and the
    installed :class:`~repro.faults.FaultManager` (scored requeue,
    hedge gating, adaptive delay), and chains a dequeue feed onto each
    server *after* any overload hook so the pressure signal sees the
    same per-task order as the fast path.  Call after
    :func:`repro.faults.install_faults` (and after
    :func:`repro.overload.install_overload`, when used together).
    """
    if not isinstance(policy, ReplicaPolicy):
        raise ConfigurationError(
            f"expected a ReplicaPolicy, got {type(policy).__name__}"
        )
    if getattr(handler, "replicas", None) is not None:
        raise ConfigurationError("handler already has a replica controller")
    manager = getattr(handler, "fault_manager", None)
    if policy.needs_hedging and (
            manager is None or manager.plan.hedge is None):
        raise ConfigurationError(
            "hedge suppression / adaptive delay need a FaultPlan with a "
            "HedgePolicy installed first (install_faults)"
        )
    controller = policy.build(len(servers), recorder)
    handler.replicas = controller
    if manager is not None:
        manager.replicas = controller

    for server in servers:
        prev = server.on_dequeue

        def _feed_dequeue(task, server, _controller=controller, _prev=prev):
            if _prev is not None:
                _prev(task, server)
            _controller.on_task_start(server.server_id,
                                      task.deadline - server.env.now)

        server.on_dequeue = _feed_dequeue
    return controller
