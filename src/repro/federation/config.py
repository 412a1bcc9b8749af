"""Federation configuration: a front tier over per-shard clusters.

:class:`FederationConfig` nests one :class:`~repro.cluster.ClusterConfig`
*template* per shard — each shard runs its own TF-EDFQ cluster on the
existing simulation kernels — under a shared front-tier workload and an
inter-shard routing policy (see :mod:`repro.federation.router`).  It
follows the same builder convention as ``ClusterConfig`` (docs/api.md,
"Config builders"): frozen dataclass, ``with_*`` helpers as thin
wrappers over :meth:`evolve`, which is
:func:`repro.cluster.config.evolve_config`.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass
from typing import Optional, Tuple

from repro.cluster.config import ClusterConfig, evolve_config
from repro.errors import ConfigurationError
from repro.federation.router import ROUTERS
from repro.obs.recorder import TraceRecorder
from repro.replicas.policy import ReplicaScorer
from repro.workloads.generator import Workload


@dataclass(frozen=True)
class SpillPolicy:
    """Cross-shard overflow spill.

    The front tier predicts the chosen shard's admission verdict — a
    query whose estimated queueing delay exceeds its TailGuard budget
    ``T_b`` by more than ``margin_ms`` would be rejected by a
    shard-local deadline-aware admission controller — and re-routes it
    to the eligible shard with the most slack instead of letting it be
    dropped.  ``margin_ms = 0`` spills exactly at budget exhaustion;
    positive margins tolerate estimation error before spilling.
    """

    margin_ms: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.margin_ms) and self.margin_ms >= 0):
            raise ConfigurationError(
                f"margin_ms must be finite and >= 0, got {self.margin_ms}"
            )


@dataclass(frozen=True)
class FederationConfig:
    """Everything :func:`repro.federation.simulate_federation` needs.

    ``shards`` are workload-driven ``ClusterConfig`` templates: their
    ``workload`` supplies each shard's service-time model (and hence
    its deadline budgets); arrivals, fanouts and service classes come
    from the federation-level ``workload``, routed by the front tier.
    Shard templates must not be spec-driven — the front tier supplies
    each shard's slice of its query stream.

    Like ``ClusterConfig``, all optional fields are keyword-only and
    the fluent helpers (:meth:`at_load`, :meth:`with_seed`,
    :meth:`with_recorder`, :meth:`with_router`, :meth:`with_spill`,
    :meth:`evolve`) are preferred over ``dataclasses.replace``.
    """

    shards: Tuple[ClusterConfig, ...]
    _: KW_ONLY
    #: Front-tier arrival stream (required; keyword-only fields need a
    #: default, so the check lives in ``__post_init__``).
    workload: Optional[Workload] = None
    n_queries: int = 50_000
    seed: int = 0
    #: Inter-shard routing policy; one of
    #: :data:`repro.federation.router.ROUTERS`.
    router: str = "jsq"
    #: Optional cross-shard overflow spill (any router).
    spill: Optional[SpillPolicy] = None
    #: Tenant population for the ``tenant`` router (Zipf popularity).
    n_tenants: int = 64
    tenant_alpha: float = 1.1
    #: Optional :class:`~repro.replicas.ReplicaScorer` for the
    #: ``least-slack`` router: feasible shards are ranked by the same
    #: depth+tail score the replica layer uses inside a cluster
    #: (estimated delay as depth, shard mean service time as the tail
    #: signal) instead of tightest-fit slack.
    scorer: Optional[ReplicaScorer] = None
    #: Federation-scope trace recorder: shard runs are traced into
    #: per-shard recorders and folded here with each shard's server-id
    #: offset and global query positions, so ``tailguard report`` and
    #: SLO burn-down work unchanged at federation scope.
    recorder: Optional[TraceRecorder] = None

    def __post_init__(self) -> None:
        shards = tuple(self.shards)
        object.__setattr__(self, "shards", shards)
        if not shards:
            raise ConfigurationError("need at least one shard")
        for i, shard in enumerate(shards):
            if not isinstance(shard, ClusterConfig):
                raise ConfigurationError(
                    f"shard {i} is not a ClusterConfig: {type(shard).__name__}"
                )
            if shard.specs is not None:
                raise ConfigurationError(
                    f"shard {i} is spec-driven; federation shards are "
                    f"workload-driven templates — the front tier supplies "
                    f"their queries"
                )
        if self.workload is None:
            raise ConfigurationError(
                "federation needs a workload (the front-tier arrival stream)"
            )
        if self.n_queries < 1:
            raise ConfigurationError(
                f"n_queries must be >= 1, got {self.n_queries}"
            )
        if self.router not in ROUTERS:
            raise ConfigurationError(
                f"unknown router {self.router!r}; known: {list(ROUTERS)}"
            )
        if self.scorer is not None:
            if not isinstance(self.scorer, ReplicaScorer):
                raise ConfigurationError(
                    f"scorer must be a ReplicaScorer, got "
                    f"{type(self.scorer).__name__}"
                )
            if self.router != "least-slack":
                raise ConfigurationError(
                    f"scorer only applies to the 'least-slack' router, "
                    f"not {self.router!r}"
                )
        if self.n_tenants < 1:
            raise ConfigurationError(
                f"n_tenants must be >= 1, got {self.n_tenants}"
            )
        if not (math.isfinite(self.tenant_alpha) and self.tenant_alpha > 0):
            raise ConfigurationError(
                f"tenant_alpha must be finite and positive, got "
                f"{self.tenant_alpha}"
            )
        if self.recorder is not None and getattr(self.recorder, "enabled",
                                                 False):
            for i, shard in enumerate(shards):
                if shard.recorder is not None and getattr(
                        shard.recorder, "enabled", False):
                    raise ConfigurationError(
                        f"shard {i} carries its own recorder while the "
                        f"federation has one; shard traces fold into the "
                        f"federation recorder — drop one of the two"
                    )

    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def total_servers(self) -> int:
        return sum(shard.n_servers for shard in self.shards)

    def server_offsets(self) -> Tuple[int, ...]:
        """Each shard's first server id in the merged flat index."""
        offsets = []
        offset = 0
        for shard in self.shards:
            offsets.append(offset)
            offset += shard.n_servers
        return tuple(offsets)

    # ------------------------------------------------------------------
    # Builder convention (docs/api.md, "Config builders"): ``evolve``
    # owns validation, every ``with_*`` helper is a thin wrapper.
    # ------------------------------------------------------------------
    def at_load(self, load: float) -> "FederationConfig":
        """A copy with the front-tier workload re-rated so the offered
        load on the *total* federation capacity is ``load``."""
        return self.evolve(
            workload=self.workload.at_load(load, self.total_servers)
        )

    def with_seed(self, seed: int) -> "FederationConfig":
        """A copy with a different root seed (spec and router streams)."""
        return self.evolve(seed=seed)

    def with_recorder(self, recorder: Optional[TraceRecorder]
                      ) -> "FederationConfig":
        """A copy instrumented with a federation-scope trace recorder."""
        return self.evolve(recorder=recorder)

    def with_router(self, router: str) -> "FederationConfig":
        """A copy using a different inter-shard routing policy."""
        return self.evolve(router=router)

    def with_spill(self, spill: Optional[SpillPolicy]) -> "FederationConfig":
        """A copy with cross-shard spill enabled (None removes it)."""
        return self.evolve(spill=spill)

    def with_scorer(self, scorer: Optional[ReplicaScorer]
                    ) -> "FederationConfig":
        """A copy ranking least-slack candidates by replica score
        (None restores tightest-fit slack)."""
        return self.evolve(scorer=scorer)

    def evolve(self, **changes) -> "FederationConfig":
        """A validated copy with arbitrary fields replaced (see
        :func:`repro.cluster.config.evolve_config`)."""
        return evolve_config(self, **changes)
