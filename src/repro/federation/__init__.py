"""Two-level shard federation (front tier over per-shard clusters).

A :class:`FederationConfig` nests per-shard
:class:`~repro.cluster.ClusterConfig` templates under a shared
front-tier workload; :func:`simulate_federation` routes queries to
shards via pluggable inter-shard policies (JSQ, power-of-two,
deadline-aware least-slack, Zipf tenant affinity — see
:mod:`repro.federation.router`), runs each shard's TF-EDFQ cluster on
the existing kernels, and composes the results into one
federation-scope view (:class:`FederationResult`, built on
:meth:`repro.cluster.SimulationResult.merge`).  See docs/federation.md.
"""

from repro.federation.config import FederationConfig, SpillPolicy
from repro.federation.results import FederationResult
from repro.federation.router import ROUTERS, RouteOutcome, route_queries
from repro.federation.simulation import simulate_federation

__all__ = [
    "ROUTERS",
    "FederationConfig",
    "FederationResult",
    "RouteOutcome",
    "SpillPolicy",
    "route_queries",
    "simulate_federation",
]
