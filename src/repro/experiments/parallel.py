"""Process-pool experiment fan-out with deterministic seeding.

Every headline number in the paper is a grid of independent
:func:`repro.cluster.simulation.simulate` calls — bisection probes ×
seeds × policies × loads.  This module fans those calls out over a
process pool while preserving the exact serial semantics:

* **Deterministic seeding** — each task carries a fully materialized
  :class:`~repro.cluster.config.ClusterConfig` whose ``seed`` field is
  assigned *before* fan-out, exactly as the serial loop would assign
  it.  ``simulate`` derives all of its randomness from
  ``np.random.default_rng(config.seed).spawn(...)`` internally, so a
  worker process reproduces the serial run bit for bit: parallel and
  serial results are identical, not merely statistically equivalent.
* **Order preservation** — results come back in task-submission order
  regardless of completion order.
* **Observability round-trip** — a worker's
  :class:`~repro.obs.recorder.TraceRecorder` travels home with its
  :class:`~repro.cluster.results.SimulationResult` and is merged into
  the parent-side recorder via the mergeable obs API
  (:meth:`LogHistogram.merge`, counter addition, event re-sequencing),
  so a shared recorder sees the same aggregate counters and histogram
  a serial run would have produced.

``workers=None`` (or ``0``/``1``) means serial in-process execution —
the default everywhere, preserving historical behavior and costing
nothing.  ``workers=-1`` means one worker per available CPU.  With two
or more workers every task runs in the pool, and each result comes
home by plain pickle as the same object a serial run builds.

Pools are persistent: :func:`get_pool` keeps one executor alive per
worker count for the life of the process (shut down atexit), so a
bisection's dozens of probe rounds — and repeated
:func:`run_simulations` calls — reuse warm workers instead of paying
pool spin-up per call.

The pool uses the ``fork`` start method where available (Linux): the
workload objects, distributions, and estimators in a config are cheap
to pickle, and fork avoids re-importing NumPy per worker.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.config import ClusterConfig
from repro.cluster.results import SimulationResult, merge_obs_home
from repro.cluster.simulation import simulate
from repro.errors import ExperimentError


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a ``--workers`` value to an effective worker count.

    ``None``, ``0`` and ``1`` all mean serial in-process execution;
    ``-1`` means one worker per available CPU; any other positive value
    is taken literally.
    """
    if workers is None or workers == 0 or workers == 1:
        return 1
    if workers == -1:
        return max(1, os.cpu_count() or 1)
    if workers < 0:
        raise ExperimentError(
            f"workers must be a positive count or -1 (all CPUs), got {workers}"
        )
    return int(workers)


# ----------------------------------------------------------------------
# Persistent pools
# ----------------------------------------------------------------------
_POOLS: Dict[int, ProcessPoolExecutor] = {}


def get_pool(workers: int) -> ProcessPoolExecutor:
    """The persistent executor for this worker count.

    Created on first use, with the ``fork`` start method where the
    platform offers it, and kept alive for the life of the process
    (all pools are shut down atexit), so bisection searches and
    repeated fan-out calls reuse warm workers.  A pool whose workers
    died (``BrokenProcessPool``) is replaced transparently.
    """
    if workers < 2:
        raise ExperimentError(f"pooled execution needs >= 2 workers, got {workers}")
    pool = _POOLS.get(workers)
    if pool is not None and getattr(pool, "_broken", False):
        pool.shutdown(wait=False, cancel_futures=True)
        pool = None
    if pool is None:
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
        _POOLS[workers] = pool
    return pool


def shutdown_pools() -> None:
    """Shut down every persistent pool (registered atexit)."""
    for pool in _POOLS.values():
        pool.shutdown(wait=False, cancel_futures=True)
    _POOLS.clear()


atexit.register(shutdown_pools)


# ----------------------------------------------------------------------
# Simulation fan-out
# ----------------------------------------------------------------------
def run_simulations(
    configs: Iterable[ClusterConfig],
    workers: Optional[int] = None,
) -> Tuple[SimulationResult, ...]:
    """Run many independent simulations, optionally over a process pool.

    Results preserve input order and are bit-identical to running
    ``simulate`` over the configs serially (each config's ``seed``
    fully determines its run).  With two or more workers every config
    runs in the persistent pool, in chunks of ``n // (4 * workers)``
    configs (at least one) so that no worker starves behind one
    oversized chunk.  When a config carries an enabled recorder, it
    runs with an empty recorder of the same settings, which is merged
    into the parent-side recorder in input order; the returned result
    is re-bound to the parent, so shared-recorder aggregation matches
    serial semantics.
    """
    config_list = list(configs)
    if not config_list:
        raise ExperimentError("need at least one config to run")
    n_workers = resolve_workers(workers)
    if n_workers == 1:
        return tuple(simulate(config) for config in config_list)

    chunksize = max(1, len(config_list) // (4 * n_workers))
    # Each traced config travels with an empty recorder of its own, so a
    # worker's copy holds that run alone: the parent's recorder would
    # carry what it already held, and configs sharing it in one chunk
    # would share one unpickled copy.
    sent = [
        config.with_recorder(config.recorder.empty_copy())
        if config.recorder is not None and config.recorder.enabled
        else config
        for config in config_list
    ]
    results = list(get_pool(n_workers).map(simulate, sent,
                                            chunksize=chunksize))
    return tuple(
        merge_obs_home(config.recorder, result)
        for config, result in zip(config_list, results)
    )


# ----------------------------------------------------------------------
# Feasibility probes (the max-load search's inner loop)
# ----------------------------------------------------------------------
def _feasibility_task(args) -> bool:
    """One (load, seed) probe: does this run meet every SLO?

    Top-level so it pickles by reference under every start method.
    """
    config, load, seed, min_samples, fanout_buckets = args
    result = simulate(config.at_load(load).with_seed(seed))
    return result.meets_all_slos(min_samples=min_samples,
                                 fanout_buckets=fanout_buckets)


def probe_feasible(
    pool: ProcessPoolExecutor,
    config: ClusterConfig,
    load: float,
    seeds: Sequence[int],
    min_samples: int,
    fanout_buckets: Optional[Tuple[int, ...]],
) -> bool:
    """All-seeds feasibility at one load, seeds evaluated concurrently.

    Cancels the still-pending seed probes as soon as any seed comes
    back infeasible (feasibility is the AND over seeds, so one failure
    decides the probe).  The result is identical to the serial
    short-circuit loop — which seed finishes first cannot change an
    AND — only the wasted work differs.
    """
    futures = [
        pool.submit(_feasibility_task,
                    (config, load, seed, min_samples, fanout_buckets))
        for seed in seeds
    ]
    feasible = True
    pending = set(futures)
    while pending and feasible:
        done, pending = wait(pending, return_when=FIRST_COMPLETED)
        for future in done:
            if not future.result():
                feasible = False
                break
    for future in pending:
        future.cancel()
    return feasible


def probe_many_feasible(
    pool: ProcessPoolExecutor,
    config: ClusterConfig,
    loads: Sequence[float],
    seeds: Sequence[int],
    min_samples: int,
    fanout_buckets: Optional[Tuple[int, ...]],
) -> List[bool]:
    """Feasibility of several loads at once (speculative bisection).

    All ``len(loads) × len(seeds)`` probes are submitted together; each
    load's verdict is the AND over its seeds.  Unlike
    :func:`probe_feasible` there is no early cancel — speculation
    deliberately trades extra work for fewer sequential rounds.
    """
    futures = {
        (load, seed): pool.submit(
            _feasibility_task,
            (config, load, seed, min_samples, fanout_buckets))
        for load in loads
        for seed in seeds
    }
    return [
        all(futures[(load, seed)].result() for seed in seeds)
        for load in loads
    ]
