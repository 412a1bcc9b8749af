"""Declarative configuration for adaptive redundancy (replica layer).

TailGuard's fixed quantile-delay hedging (:class:`repro.faults.HedgePolicy`)
cuts stragglers at light load but *amplifies* overload: every duplicate
is extra work injected exactly when the cluster can least afford it —
the redundancy-management problem SafeTail frames as "choose how many
replicas and when, conditioned on observed load".  This module is the
declarative half of the answer; :mod:`repro.replicas.controller` holds
the matching runtime.

Three orthogonal knobs, each optional:

:class:`ReplicaScorer`
    Load-aware server scoring (queue depth + recent-tail EWMA) that
    replaces the bare least-loaded ``pick_server`` for retry requeue
    and hedge placement, and optionally for initial fanout placement
    (RackSched-style load-aware dispatch).  Pluggable: subclass and
    override :meth:`ReplicaScorer.score`.

:class:`HedgeSuppressionPolicy`
    A utilization gate that withholds duplicates when the cluster is
    already saturated — a cluster-pressure EWMA (the same overshoot
    signal :class:`repro.overload.OverloadController` tracks for
    degradation) plus a per-server score ceiling.

:class:`AdaptiveHedgePolicy`
    An online AIMD controller on the hedge *delay* (mirroring the
    :class:`repro.overload.AdaptiveAdmission` idiom) driven by the
    observed duplicate-win ratio, under a hard redundancy budget
    (maximum duplicate-load fraction).

All three compose under :class:`ReplicaPolicy`, carried by
``ClusterConfig.replicas`` and buildable into a
:class:`~repro.replicas.controller.ReplicaController` shared verbatim
by both simulation kernels — decisions are RNG-free and depend only on
the deterministic feed order, so the DES kernel and the event-calendar
fast path stay bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError

__all__ = [
    "AdaptiveHedgePolicy",
    "HedgeSuppressionPolicy",
    "ReplicaPolicy",
    "ReplicaScorer",
]


@dataclass(frozen=True)
class ReplicaScorer:
    """Load-aware server scoring for replica placement (lower is better).

    The default weights reduce :meth:`score` to the queue depth alone,
    which makes the scored pick *exactly* the least-loaded lowest-id
    choice of :func:`repro.faults.pick_server` — the scorer is a strict
    generalization, not a behavior change.  ``tail_weight`` mixes in a
    per-server EWMA of observed task durations (milliseconds), the
    cheap recent-tail signal that separates a short queue on a slow or
    straggling server from a short queue on a healthy one.

    Subclass and override :meth:`score` for custom scoring functions;
    the controller only ever calls ``score(depth, tail_ewma_ms)``.
    """

    #: Weight of the server's instantaneous queue depth (tasks).
    depth_weight: float = 1.0
    #: Weight of the server's recent-tail EWMA (ms of observed task
    #: duration).  0 disables the tail term (pure least-loaded).
    tail_weight: float = 0.0
    #: EWMA gain for the recent-tail signal, per completed task.
    tail_alpha: float = 0.1
    #: Also use the scorer for *initial* fanout placement: the query's
    #: slots go to the k best-scored servers instead of a uniform
    #: random selection.  The nominal random draw is still consumed so
    #: downstream RNG streams are unperturbed.
    scored_fanout: bool = False

    def __post_init__(self) -> None:
        if not all(math.isfinite(weight) and weight >= 0.0
                   for weight in (self.depth_weight, self.tail_weight)):
            raise ConfigurationError(
                f"scorer weights must be finite and >= 0, got depth_weight="
                f"{self.depth_weight}, tail_weight={self.tail_weight}"
            )
        if self.depth_weight == 0.0 and self.tail_weight == 0.0:
            raise ConfigurationError(
                "scorer needs at least one non-zero weight"
            )
        if not 0.0 < self.tail_alpha <= 1.0:
            raise ConfigurationError(
                f"tail_alpha must be in (0, 1], got {self.tail_alpha}"
            )

    def score(self, depth: int, tail_ewma_ms: float) -> float:
        """Placement badness of one server (lower wins; ties by id)."""
        return self.depth_weight * depth + self.tail_weight * tail_ewma_ms


@dataclass(frozen=True)
class HedgeSuppressionPolicy:
    """Utilization gate that withholds hedge duplicates under pressure.

    Two independent triggers, either of which suppresses (the timer
    re-arms and tries again a delay later, so suppression defers
    rather than cancels):

    * **cluster pressure** — an EWMA of per-task deadline overshoot at
      service start, the same signal
      :class:`repro.overload.OverloadController` maintains for
      degradation decisions (see ``docs/overload.md``).  At or above
      ``pressure_threshold_ms`` the whole cluster is behind its
      deadlines and a duplicate would add load to an already-saturated
      tail.
    * **per-server score** — even with acceptable cluster pressure, if
      the *best* candidate server scores at or above
      ``score_threshold`` (same units as :meth:`ReplicaScorer.score`),
      there is no server idle enough for the duplicate to plausibly
      win, only queues to lengthen.
    """

    #: EWMA gain of the overshoot pressure signal, per task start.
    pressure_alpha: float = 0.05
    #: Suppress hedges while the pressure EWMA is at or above this (ms).
    pressure_threshold_ms: float = 1.0
    #: Suppress when the best candidate's score is at or above this
    #: (``None`` disables the per-server gate).
    score_threshold: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.pressure_alpha <= 1.0:
            raise ConfigurationError(
                f"pressure_alpha must be in (0, 1], got "
                f"{self.pressure_alpha}"
            )
        if not (math.isfinite(self.pressure_threshold_ms)
                and self.pressure_threshold_ms > 0.0):
            raise ConfigurationError(
                f"pressure_threshold_ms must be finite and > 0, got "
                f"{self.pressure_threshold_ms}"
            )
        if self.score_threshold is not None and self.score_threshold <= 0.0:
            raise ConfigurationError(
                f"score_threshold must be > 0, got {self.score_threshold}"
            )


@dataclass(frozen=True)
class AdaptiveHedgePolicy:
    """Online AIMD tuning of the hedge delay, under a redundancy budget.

    The controller scales the plan's base hedge delay (explicit
    ``delay_ms`` or the memoized quantile inversion) by a factor kept
    inside ``[min_factor, max_factor]`` and adjusted from the observed
    **duplicate-win ratio** — the fraction of hedged task slots whose
    winning copy was the hedge — over a sliding window, mirroring the
    :class:`repro.overload.AdaptiveAdmission` idiom:

    * ratio **below** ``target_win_ratio × (1 − hysteresis)``: hedges
      are mostly wasted work → *multiplicative* factor increase
      (hedge later, duplicate less);
    * ratio **above** ``target_win_ratio × (1 + hysteresis)``: hedges
      are paying off → *additive* factor decrease (hedge sooner).

    Independent of the AIMD loop, ``max_duplicate_fraction`` is a hard
    budget: a hedge only launches while
    ``hedges_launched + 1 <= fraction × base_copies_launched``, so the
    duplicate-load fraction can never exceed the budget (a property
    test pins this invariant on both kernels).
    """

    #: Steer the duplicate-win ratio toward this value.
    target_win_ratio: float = 0.35
    #: Sliding window of hedge outcomes the ratio is computed over.
    window_hedges: int = 200
    #: Minimum outcomes observed before the first adjustment.
    min_samples: int = 30
    #: Minimum simulated time between adjustments (ms).
    ctl_interval_ms: float = 25.0
    #: Multiplicative factor increase when hedges are wasted.
    increase: float = 1.4
    #: Additive factor decrease when hedges win above target.
    decrease: float = 0.1
    #: Dead band around the target before the controller reacts.
    hysteresis: float = 0.25
    #: Clamp band on the delay factor (base delay multiplier).
    min_factor: float = 0.5
    max_factor: float = 4.0
    #: Hard redundancy budget: maximum hedged fraction of launched
    #: base copies (``None`` disables the budget gate).
    max_duplicate_fraction: Optional[float] = 0.15

    def __post_init__(self) -> None:
        if not 0.0 < self.target_win_ratio < 1.0:
            raise ConfigurationError(
                f"target_win_ratio must be in (0, 1), got "
                f"{self.target_win_ratio}"
            )
        if self.window_hedges < 1:
            raise ConfigurationError(
                f"window_hedges must be >= 1, got {self.window_hedges}"
            )
        if self.min_samples < 1 or self.min_samples > self.window_hedges:
            raise ConfigurationError(
                f"min_samples must be in [1, window_hedges], got "
                f"{self.min_samples}"
            )
        if self.ctl_interval_ms <= 0.0:
            raise ConfigurationError(
                f"ctl_interval_ms must be > 0, got {self.ctl_interval_ms}"
            )
        if self.increase <= 1.0:
            raise ConfigurationError(
                f"increase must be > 1 (multiplicative), got "
                f"{self.increase}"
            )
        if self.decrease <= 0.0:
            raise ConfigurationError(
                f"decrease must be > 0 (additive), got {self.decrease}"
            )
        if self.hysteresis < 0.0:
            raise ConfigurationError(
                f"hysteresis must be >= 0, got {self.hysteresis}"
            )
        if not 0.0 < self.min_factor <= 1.0 <= self.max_factor:
            raise ConfigurationError(
                f"need 0 < min_factor <= 1 <= max_factor, got "
                f"[{self.min_factor}, {self.max_factor}]"
            )
        if self.max_duplicate_fraction is not None and not (
                math.isfinite(self.max_duplicate_fraction)
                and self.max_duplicate_fraction > 0.0):
            raise ConfigurationError(
                f"max_duplicate_fraction must be finite and > 0 (or None), "
                f"got {self.max_duplicate_fraction}"
            )


@dataclass(frozen=True)
class ReplicaPolicy:
    """Adaptive redundancy and replica selection, declaratively.

    Compose any subset of the three knobs; ``build`` bridges to the
    stateful :class:`~repro.replicas.controller.ReplicaController`
    both kernels share.  Suppression and adaptive delay only act on
    hedges, so they require the fault plan to carry a
    :class:`repro.faults.HedgePolicy`; the scorer alone also upgrades
    retry requeue and (with ``scored_fanout``) initial placement.
    """

    scorer: Optional[ReplicaScorer] = None
    suppression: Optional[HedgeSuppressionPolicy] = None
    adaptive: Optional[AdaptiveHedgePolicy] = None

    def __post_init__(self) -> None:
        if (self.scorer is None and self.suppression is None
                and self.adaptive is None):
            raise ConfigurationError(
                "ReplicaPolicy needs at least one of scorer, "
                "suppression, adaptive"
            )
        if self.scorer is not None and not isinstance(self.scorer,
                                                      ReplicaScorer):
            raise ConfigurationError(
                f"scorer must be a ReplicaScorer, got "
                f"{type(self.scorer).__name__}"
            )

    @property
    def active(self) -> bool:
        """Whether this policy changes anything at all."""
        return (self.scorer is not None or self.suppression is not None
                or self.adaptive is not None)

    @property
    def needs_hedging(self) -> bool:
        """Whether the policy is meaningless without a HedgePolicy."""
        return self.suppression is not None or self.adaptive is not None

    def build(self, n_servers: int, recorder=None):
        """Instantiate the runtime controller for an ``n_servers`` run."""
        from repro.replicas.controller import ReplicaController

        return ReplicaController(self, n_servers, recorder=recorder)
