"""Two-level federation simulation.

:func:`simulate_federation` materializes the front-tier query stream,
routes every query to a shard (:mod:`repro.federation.router`), runs
each shard's TF-EDFQ cluster on the existing golden-pinned kernels —
fanned out over the persistent worker pool via
:func:`repro.experiments.run_simulations` — and composes the per-shard
results back into one federation-scope
:class:`~repro.cluster.SimulationResult` with
:meth:`SimulationResult.merge`, global arrival order restored.

Determinism contract: the federation root RNG spawns
``(spec_rng, router_rng, reserved)`` exactly like the cluster kernel
spawns ``(spec, placement, service)`` streams, and each shard run
derives its own randomness from its template's ``seed``.  A one-shard
federation therefore reproduces the bare cluster simulation
bit-for-bit when the shard template shares the federation's seed —
the equivalence the integration suite pins.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional

import numpy as np

from repro.cluster.results import SimulationResult
from repro.experiments.parallel import run_simulations
from repro.federation.config import FederationConfig
from repro.federation.results import FederationResult
from repro.federation.router import route_queries
from repro.obs.recorder import TraceRecorder
from repro.workloads.generator import generate_queries


def simulate_federation(config: FederationConfig,
                        workers: Optional[int] = None) -> FederationResult:
    """Run one federation simulation.

    ``workers`` fans the per-shard runs over the persistent worker
    pool (see :func:`repro.experiments.run_simulations`); ``None`` or 1
    runs them serially in-process.
    """
    root = np.random.default_rng(config.seed)
    spec_rng, router_rng, _reserved = root.spawn(3)
    specs = generate_queries(config.workload, config.n_queries, spec_rng)
    m = len(specs)

    # Columnar view of the stream (deduplicated class table in
    # first-appearance order, matching the kernel's convention).
    classes: List = []
    index_of = {}
    class_index = np.empty(m, dtype=np.int64)
    fanout = np.empty(m, dtype=np.int64)
    arrival = np.empty(m, dtype=np.float64)
    for i, spec in enumerate(specs):
        idx = index_of.get(spec.service_class.name)
        if idx is None:
            idx = len(classes)
            index_of[spec.service_class.name] = idx
            classes.append(spec.service_class)
        class_index[i] = idx
        fanout[i] = spec.fanout
        arrival[i] = spec.arrival_time

    route = route_queries(config, classes, class_index, fanout, arrival,
                          router_rng)

    fed_tracing = (config.recorder is not None
                   and getattr(config.recorder, "enabled", False))
    offsets = config.server_offsets()
    run_shards: List[int] = []
    run_configs = []
    run_indices: List[np.ndarray] = []
    for s, shard in enumerate(config.shards):
        idx = np.flatnonzero(route.shard_of == s)
        if idx.size == 0:
            continue
        sub = tuple(specs[int(i)] for i in idx)
        changes = dict(
            workload=None,
            specs=sub,
            n_queries=len(sub),
            server_cdfs=dict(shard.resolve_server_cdfs()),
        )
        if fed_tracing and shard.recorder is None:
            changes["recorder"] = TraceRecorder()
        run_shards.append(s)
        run_configs.append(shard.evolve(**changes))
        run_indices.append(idx)

    results = run_simulations(run_configs, workers=workers)

    # Compose back into global arrival order.  `order` maps each
    # concatenated per-shard row to its global position.
    order = np.concatenate(run_indices)
    if fed_tracing:
        parent = config.recorder
        for s, idx, result in zip(run_shards, run_indices, results):
            if result.obs is not None and getattr(result.obs, "enabled",
                                                  False):
                parent.merge_from(result.obs, server_id_offset=offsets[s],
                                  query_id_map=idx)
        merged = SimulationResult.merge(results, order=order, obs=parent)
    else:
        merged = SimulationResult.merge(results, order=order, obs=None)

    # Patch federation-level metadata the shard-local merge cannot
    # know: the flat server count includes query-less shards, the seed
    # is the federation root, and offered load / mean service follow
    # the workload-mode convention over the *total* capacity (matching
    # what a bare cluster of the same size would report).
    total = config.total_servers
    means: List[float] = []
    for shard in config.shards:
        cdfs = shard.resolve_server_cdfs()
        means.extend(cdfs[sid].mean() for sid in range(shard.n_servers))
    mean_service = np.mean(means)
    merged = replace(
        merged,
        n_servers=total,
        seed=config.seed,
        offered_load=config.workload.load(total),
        mean_service_ms=float(mean_service),
    )

    shard_results: List[Optional[SimulationResult]] = [None] * config.n_shards
    for s, result in zip(run_shards, results):
        shard_results[s] = result

    return FederationResult(
        config=config,
        shards=tuple(shard_results),
        shard_of=route.shard_of,
        spilled=route.spilled,
        merged=merged,
        tenant_of=route.tenant_of,
    )
