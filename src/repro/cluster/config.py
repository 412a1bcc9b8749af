"""Simulation configuration."""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass, fields, replace
from typing import Callable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.admission import AdmissionController
from repro.core.deadline import DeadlineEstimator
from repro.core.policies import Policy, get_policy
from repro.distributions import Distribution
from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.obs.recorder import TraceRecorder
from repro.overload.policy import OverloadPolicy
from repro.replicas.policy import ReplicaPolicy
from repro.types import QuerySpec
from repro.workloads.generator import QueryStream, Workload

#: Custom placement hook: (spec, rng) -> server ids (len == fanout).
PlacementFn = Callable[[QuerySpec, np.random.Generator], Tuple[int, ...]]


def evolve_config(config, **changes):
    """Validated ``dataclasses.replace`` for frozen config dataclasses.

    The single implementation behind the builder convention shared by
    :class:`ClusterConfig` and
    :class:`repro.federation.FederationConfig` (see docs/api.md,
    "Config builders"): every ``with_*`` helper is a thin wrapper over
    ``evolve``, and ``evolve`` is this function — unknown field names
    raise :class:`ConfigurationError` instead of ``TypeError``, and the
    dataclass's ``__post_init__`` re-validates the copy as usual.
    """
    known = {f.name for f in fields(config) if f.name != "_"}
    unknown = set(changes) - known
    if unknown:
        raise ConfigurationError(
            f"unknown config field(s): {sorted(unknown)}; "
            f"known: {sorted(known)}"
        )
    return replace(config, **changes)


@dataclass(frozen=True)
class ServicePerturbation:
    """A time-windowed service slowdown/speedup (failure injection).

    While the simulation clock is in ``[start_ms, end_ms)``, service
    times drawn by the listed servers are multiplied by ``factor``.
    Models the paper's §III.B.2 concerns — "skewed workloads, uneven
    resource allocation and resource availability changes" — and drives
    the server-slowdown ablation.
    """

    server_ids: Tuple[int, ...]
    start_ms: float
    end_ms: float
    factor: float

    def __post_init__(self) -> None:
        if not self.server_ids:
            raise ConfigurationError("perturbation needs at least one server")
        if not 0 <= self.start_ms < self.end_ms:
            raise ConfigurationError(
                f"need 0 <= start < end, got [{self.start_ms}, {self.end_ms})"
            )
        if not (math.isfinite(self.factor) and self.factor > 0):
            raise ConfigurationError(
                f"factor must be finite and positive, got {self.factor}")

    def applies(self, server_id: int, now: float) -> bool:
        return (self.start_ms <= now < self.end_ms
                and server_id in self.server_ids)


@dataclass(frozen=True)
class ClusterConfig:
    """Everything :func:`repro.cluster.simulation.simulate` needs.

    Exactly one of ``workload`` or ``specs`` must be provided: either
    queries are generated from a workload model, or a pre-materialized
    stream (trace replay — the mode that makes policy comparisons
    perfectly paired) is replayed.  ``specs`` takes a
    :class:`~repro.types.QuerySpec` sequence or a columnar
    :class:`~repro.workloads.QueryStream` (how the federation front
    tier hands each shard its slice).

    All optional fields are **keyword-only** (public-API contract; see
    ``docs/api.md``): the positional form ``ClusterConfig(100, "fifo",
    workload)`` was ambiguous and is no longer accepted.  Prefer the
    fluent helpers (:meth:`at_load`, :meth:`with_seed`,
    :meth:`with_recorder`, :meth:`with_faults`, :meth:`with_admission`,
    :meth:`with_overload`, :meth:`evolve`) over ``dataclasses.replace``
    — they re-run
    validation and keep call sites readable.
    """

    n_servers: int
    policy: Union[str, Policy]
    _: KW_ONLY
    workload: Optional[Workload] = None
    n_queries: int = 50_000
    specs: Optional[Union[Sequence[QuerySpec], QueryStream]] = None
    seed: int = 0
    #: Leading fraction of queries excluded from statistics.
    warmup_fraction: float = 0.1
    admission: Optional[AdmissionController] = None
    #: Per-server *actual* service-time distributions; defaults to the
    #: workload's service time on every server (homogeneous).
    server_cdfs: Optional[Mapping[int, Distribution]] = None
    #: Deadline estimator override — pass one to model online updating,
    #: shared/inaccurate CDFs, or heterogeneity-aware estimation.
    estimator: Optional[DeadlineEstimator] = None
    #: Custom task placement (e.g. the SaS use-case rules).
    placement: Optional[PlacementFn] = None
    #: Failure injection: time-windowed service-time perturbations.
    perturbations: Tuple[ServicePerturbation, ...] = ()
    #: When set, sample (time, queued tasks, busy servers) every this
    #: many ms into ``SimulationResult.timeline`` (transient analysis).
    timeline_interval_ms: Optional[float] = None
    #: Observability: a :class:`repro.obs.TraceRecorder` to receive
    #: task-lifecycle events (and, when its ``sample_interval_ms`` is
    #: set, per-server time series).  ``None`` or a disabled recorder
    #: (e.g. :class:`repro.obs.NullRecorder`) keeps the hot path free
    #: of instrumentation.
    recorder: Optional[TraceRecorder] = None
    #: Fault injection: crash/recovery schedules, straggler episodes,
    #: and mitigations (retry/requeue, hedged requests).  ``None`` or an
    #: inactive plan keeps the optimized no-fault hot path; an active
    #: plan routes the run through the fault-aware event loop
    #: (:mod:`repro.cluster.faultsim`).
    faults: Optional[FaultPlan] = None
    #: Overload protection: adaptive admission, per-server circuit
    #: breakers, partial-fanout degradation, and CDF drift re-bootstrap
    #: (see :mod:`repro.overload`).  An active policy routes the run
    #: through the fault-aware event loop, with or without a fault plan.
    overload: Optional[OverloadPolicy] = None
    #: Adaptive redundancy & replica selection: scored requeue/hedge
    #: placement (optionally scored fanout), hedge suppression under
    #: pressure, and online AIMD hedge-delay control against a
    #: duplicate-load budget (see :mod:`repro.replicas`).  An active
    #: policy routes the run through the fault-aware event loop.
    replicas: Optional[ReplicaPolicy] = None

    def __post_init__(self) -> None:
        if self.n_servers < 1:
            raise ConfigurationError(f"need >= 1 server, got {self.n_servers}")
        if (self.workload is None) == (self.specs is None):
            raise ConfigurationError("provide exactly one of workload or specs")
        if self.workload is not None and self.n_queries < 1:
            raise ConfigurationError(f"n_queries must be >= 1, got {self.n_queries}")
        if not 0 <= self.warmup_fraction < 1:
            raise ConfigurationError(
                f"warmup_fraction must be in [0, 1), got {self.warmup_fraction}"
            )
        interval = self.timeline_interval_ms
        if interval is not None and not (math.isfinite(interval)
                                         and interval > 0):
            raise ConfigurationError(
                f"timeline_interval_ms must be finite and positive, "
                f"got {interval}"
            )
        for perturbation in self.perturbations:
            for sid in perturbation.server_ids:
                if not 0 <= sid < self.n_servers:
                    raise ConfigurationError(
                        f"perturbation server {sid} outside "
                        f"[0, {self.n_servers})"
                    )
        if (self.overload is not None and self.overload.active
                and self.admission is not None):
            raise ConfigurationError(
                "admission and overload are mutually exclusive: with an "
                "OverloadPolicy, admission control lives on "
                "OverloadPolicy.admission"
            )
        if (self.replicas is not None and self.replicas.needs_hedging
                and (self.faults is None or self.faults.hedge is None)):
            raise ConfigurationError(
                "hedge suppression / adaptive hedge delay need a "
                "FaultPlan with a HedgePolicy (ClusterConfig.faults)"
            )

    def resolve_policy(self) -> Policy:
        if isinstance(self.policy, Policy):
            return self.policy
        return get_policy(self.policy)

    def resolve_server_cdfs(self) -> Mapping[int, Distribution]:
        if self.server_cdfs is not None:
            if set(self.server_cdfs) != set(range(self.n_servers)):
                raise ConfigurationError(
                    "server_cdfs must cover exactly servers 0..N-1"
                )
            return self.server_cdfs
        if self.workload is None:
            raise ConfigurationError(
                "spec-driven simulations need explicit server_cdfs"
            )
        shared = self.workload.service_time
        return {server: shared for server in range(self.n_servers)}

    def at_load(self, load: float) -> "ClusterConfig":
        """A copy with the workload re-rated to the given offered load."""
        if self.workload is None:
            raise ConfigurationError("at_load requires a workload")
        return replace(self, workload=self.workload.at_load(load, self.n_servers))

    # ------------------------------------------------------------------
    # Builder convention (docs/api.md, "Config builders"): ``evolve``
    # owns validation — unknown-field rejection plus the usual
    # ``__post_init__`` re-check — and every ``with_*`` helper is a
    # thin, readable wrapper over it.
    # ------------------------------------------------------------------
    def with_seed(self, seed: int) -> "ClusterConfig":
        """A copy with a different root seed.

        The parallel experiment runner materializes one config per
        (probe, seed) task with this method *before* fan-out, so a
        worker reproduces exactly the run the serial loop would have
        executed — ``simulate`` derives all randomness from
        ``np.random.default_rng(seed).spawn(...)`` on this field.
        """
        return self.evolve(seed=seed)

    def with_recorder(self, recorder: Optional[TraceRecorder]
                      ) -> "ClusterConfig":
        """A copy instrumented with the given trace recorder."""
        return self.evolve(recorder=recorder)

    def with_faults(self, faults: Optional[FaultPlan]) -> "ClusterConfig":
        """A copy running under the given fault plan (None removes it)."""
        return self.evolve(faults=faults)

    def with_admission(self, admission: Optional[AdmissionController]
                       ) -> "ClusterConfig":
        """A copy with the given admission controller installed."""
        return self.evolve(admission=admission)

    def with_overload(self, overload: Optional[OverloadPolicy]
                      ) -> "ClusterConfig":
        """A copy running under the given overload policy (None removes
        it)."""
        return self.evolve(overload=overload)

    def with_replicas(self, replicas: Optional[ReplicaPolicy]
                      ) -> "ClusterConfig":
        """A copy running under the given replica policy (None removes
        it)."""
        return self.evolve(replicas=replicas)

    def evolve(self, **changes) -> "ClusterConfig":
        """A validated copy with arbitrary fields replaced.

        The supported spelling of ``dataclasses.replace`` for configs
        (see :func:`evolve_config`): unknown field names raise
        :class:`ConfigurationError` instead of ``TypeError``, and
        ``__post_init__`` re-validates the result as usual.
        """
        return evolve_config(self, **changes)
