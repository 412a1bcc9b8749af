"""The benchmark's five workloads: configs, the timed call, output checks.

Each workload is a batch job in one process; the simulated traffic is
open-loop Poisson arrivals.  Every config uses the masstree service-time
CDF and TF-EDFQ ("tailguard"), and every seed in it derives from the
run's ``--seed``.  The five stress different layers, so that a change
to one layer has a workload that exercises it and one that bypasses it
(see README.md for the layer-to-workload map).

A workload object is built once per run (building it is the set-up the
benchmark times), then :meth:`execute` is the timed call and
:meth:`inspect` checks its output outside the timed region.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import resource
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

# Entry points are called through their modules, so the wrappers the
# traced run installs there (see spans.py) see these calls too.
from repro.cluster import simulation as cluster_simulation
from repro.core.deadline import DeadlineEstimator
from repro.experiments import maxload as experiments_maxload
from repro.experiments import parallel as experiments_parallel
from repro.experiments.setups import (
    PAPER_FANOUTS,
    paper_single_class_config,
    paper_two_class_config,
)
from repro.faults import (
    CrashProcess,
    FaultPlan,
    HedgePolicy,
    RetryPolicy,
    StragglerEpisode,
)
from repro.federation import FederationConfig
from repro.federation import simulation as federation_simulation
from repro.obs import TraceRecorder
from repro.replicas import (
    AdaptiveHedgePolicy,
    HedgeSuppressionPolicy,
    ReplicaPolicy,
    ReplicaScorer,
)
from repro.workloads.generator import generate_query_arrays

#: Numbers read off every workload's results; those a workload has no
#: use for stay 0.
READINGS = (
    "cluster.events", "cluster.tasks_total", "cluster.deadline_miss_ratio",
    "faults.server_failures", "faults.tasks_retried", "faults.queries_failed",
    "replicas.tasks_hedged", "replicas.hedges_suppressed",
    "replicas.tasks_cancelled", "replicas.duplicate_fraction",
    "replicas.win_ratio", "federation.shard_imbalance", "experiments.probes",
    "obs.events", "obs.events_per_query", "sim_p50_ms", "sim_p99_ms",
    "sim_slo_miss_frac", "sim_max_load",
)
#: The simulated results: for one seed they must repeat exactly.
SIM_READINGS = tuple(name for name in READINGS if name.startswith("sim_"))


@dataclass
class Outcome:
    """What one execution produced, reduced to checkable numbers."""

    #: sha256 over the output arrays; every repeat must reproduce it.
    digest: str
    #: Simulated events, by the perf gate's formula.
    events: int
    #: Every name in READINGS.
    readings: Dict[str, float] = field(default_factory=dict)
    #: Failed correctness checks, one line each.
    problems: List[str] = field(default_factory=list)


def count_events(result) -> int:
    """Processed simulation events: query arrivals, task service starts,
    retries, hedges, cancels and two per server failure (the formula of
    ``benchmarks/perfgate.py``)."""
    events = int(result.latency.size)
    events += int(result.tasks_total)
    events += int(result.tasks_retried + result.tasks_hedged
                  + result.tasks_cancelled + 2 * result.server_failures)
    return events


def derived_seeds(seed: int, n: int) -> List[int]:
    """``n`` independent seeds derived from the run's seed."""
    return [int(child.generate_state(1)[0])
            for child in np.random.SeedSequence(seed).spawn(n)]


def rss_mb() -> float:
    """Current resident set size of this process, MiB."""
    with open("/proc/self/statm", encoding="ascii") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, MiB
    (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: The barrier the max-load workload's pool workers meet at.
_WORKER_BARRIER = None


def worker_memory() -> Tuple[int, float, float]:
    """``(pid, RSS, peak RSS)`` of the pool worker that runs it, once as
    many workers as the barrier counts have reached it.  The kernel
    updates the peak lazily, so it can trail the current RSS."""
    _WORKER_BARRIER.wait(timeout=60)
    rss = rss_mb()
    return os.getpid(), rss, max(rss, peak_rss_mb())


def stream_fanouts(workload, seed: int, n: int) -> np.ndarray:
    """Fanouts of the ``n`` queries a run seeded ``seed`` draws."""
    spec_rng = np.random.default_rng(seed).spawn(3)[0]
    return generate_query_arrays(workload, n, spec_rng)[1]


def digest_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        if arr is None:
            h.update(b"none")
        else:
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def result_problems(result) -> List[str]:
    """The terminal-state and latency checks every result must pass."""
    problems = []
    completed = ~np.isnan(result.latency)
    failed = (result.failed if result.failed is not None
              else np.zeros_like(completed))
    states = (completed.astype(np.int64) + result.rejected.astype(np.int64)
              + failed.astype(np.int64))
    bad = int(np.count_nonzero(states != 1))
    if bad:
        problems.append(f"{bad} queries not in exactly one terminal state")
    latency = result.latency[completed]
    if not np.all(np.isfinite(latency)) or np.any(latency < 0):
        problems.append("a completed latency is infinite or negative")
    return problems


def slo_miss_frac(result) -> float:
    """Measured queries over their class SLO; rejected and failed
    queries (NaN latency) count as misses."""
    slo = np.array([cls.slo_ms for cls in result.classes])[result.class_index]
    measured = result.measured
    missed = measured & ~(result.latency <= slo)
    return float(np.count_nonzero(missed)) / float(np.count_nonzero(measured))


def result_outcome(result, digest: str) -> Outcome:
    replicas = result.replicas
    n_obs = len(result.obs.events) if result.obs is not None else 0
    readings = dict.fromkeys(READINGS, 0)
    readings.update({
        "cluster.events": count_events(result),
        "cluster.tasks_total": int(result.tasks_total),
        "cluster.deadline_miss_ratio": result.deadline_miss_ratio(),
        "faults.server_failures": int(result.server_failures),
        "faults.tasks_retried": int(result.tasks_retried),
        "faults.queries_failed": result.queries_failed(),
        "replicas.tasks_hedged": int(result.tasks_hedged),
        "replicas.hedges_suppressed": int(result.hedges_suppressed),
        "replicas.tasks_cancelled": int(result.tasks_cancelled),
        "replicas.duplicate_fraction": (replicas.duplicate_fraction()
                                        if replicas is not None else 0.0),
        "replicas.win_ratio": (replicas.win_ratio()
                               if replicas is not None else 0.0),
        "obs.events": n_obs,
        "obs.events_per_query": n_obs / result.latency.size,
        "sim_p50_ms": result.tail(50.0),
        "sim_p99_ms": result.tail(99.0),
        "sim_slo_miss_frac": slo_miss_frac(result),
    })
    return Outcome(digest=digest, events=count_events(result),
                   readings=readings, problems=result_problems(result))


def estimator_setup(config) -> None:
    """The first deadline estimator and budget table a run builds."""
    estimator = DeadlineEstimator(dict(config.resolve_server_cdfs()))
    for cls in config.workload.class_mix.classes:
        estimator.budget_table(cls, PAPER_FANOUTS)


def steady_config(seed: int, n_queries: int):
    return paper_single_class_config(
        "masstree", 1.0, policy="tailguard", n_servers=100,
        n_queries=n_queries, seed=seed).at_load(0.7)


class SteadyN100:
    """The no-fault cluster kernel on its static fast loop."""

    name = "steady_n100"
    #: Simulated queries in a full run and in a --quick one.
    queries = (148_000, 14_800)

    def __init__(self, seed: int, n_queries: int) -> None:
        self.config = self.build(seed, n_queries)

    def build(self, seed: int, n_queries: int):
        return steady_config(seed, n_queries)

    def setup(self) -> None:
        estimator_setup(self.config)

    def prepare(self) -> None:
        """Called before each timed execution, outside the timed region."""

    def worker_growth_mb(self) -> float:
        """Peak memory the runs so far added in other processes, MiB."""
        return 0.0

    def execute(self):
        return cluster_simulation.simulate(self.config)

    def inspect(self, result) -> Outcome:
        return result_outcome(result, digest_arrays(
            result.latency, result.rejected, result.failed))

    def verify(self, result) -> List[str]:
        """Checks made once, on the cold run's output."""
        return []

    def close(self) -> None:
        pass


class MitigatedN100(SteadyN100):
    """The fault calendar with every mitigation and the replica layer."""

    name = "mitigated_n100"
    queries = (40_000, 4_000)

    def build(self, seed: int, n_queries: int):
        plan = FaultPlan(
            crashes=CrashProcess(mtbf_ms=60.0, mttr_ms=4.0,
                                 seed=derived_seeds(seed, 1)[0]),
            stragglers=(StragglerEpisode((0, 1, 2, 3), 0.0, 1e12, 3.0),),
            retry=RetryPolicy(max_retries=2, backoff_ms=0.531),
            hedge=HedgePolicy(delay_ms=3.313),
        )
        replicas = ReplicaPolicy(
            scorer=ReplicaScorer(tail_weight=0.5),
            suppression=HedgeSuppressionPolicy(),
            adaptive=AdaptiveHedgePolicy(max_duplicate_fraction=0.15,
                                         max_factor=8.0),
        )
        return (steady_config(seed, n_queries).with_faults(plan)
                .with_replicas(replicas))


class ForensicsN100(SteadyN100):
    """The traced generic loop plus latency attribution."""

    name = "forensics_n100"
    queries = (16_000, 2_000)

    def execute(self):
        result = cluster_simulation.simulate(
            self.config.with_recorder(TraceRecorder()))
        return result, result.attribution_summary()

    def inspect(self, raw) -> Outcome:
        result, summary = raw
        outcome = super().inspect(result)
        if not summary or not all(np.isfinite(v) for v in summary.values()):
            outcome.problems.append("attribution summary empty or not finite")
        return outcome

    def verify(self, raw) -> List[str]:
        traced = raw[0].latency
        untraced = cluster_simulation.simulate(self.config).latency
        if traced.tobytes() != untraced.tobytes():
            return ["traced latencies differ from the untraced run"]
        return []


class Federation16x100(SteadyN100):
    """The two-level federation: front tier plus 16 shard kernels."""

    name = "federation_16x100"
    queries = (60_000, 6_000)

    def build(self, seed: int, n_queries: int):
        shard = paper_single_class_config(
            "masstree", 1.0, policy="tailguard", n_servers=100, seed=seed)
        shards = tuple(shard.with_seed(s) for s in derived_seeds(seed, 16))
        return FederationConfig(shards, workload=shard.workload,
                                n_queries=n_queries, seed=seed,
                                router="jsq").at_load(0.7)

    def setup(self) -> None:
        estimator_setup(self.config.shards[0])

    def execute(self):
        return federation_simulation.simulate_federation(self.config)

    def inspect(self, fed) -> Outcome:
        merged = fed.merged
        outcome = result_outcome(merged, digest_arrays(
            merged.latency, merged.rejected, merged.failed, fed.shard_of))
        n = self.config.n_queries
        shard_of = fed.shard_of
        if shard_of.size != n or merged.latency.size != n:
            outcome.problems.append(
                f"{shard_of.size} routed / {merged.latency.size} merged "
                f"queries, expected {n}")
        if shard_of.size and (shard_of.min() < 0
                              or shard_of.max() >= fed.n_shards):
            outcome.problems.append("a query routed outside the shards")
        per_shard = sum(r.latency.size for r in fed.shards if r is not None)
        if per_shard != n:
            outcome.problems.append(
                f"shards served {per_shard} queries, expected {n}")
        outcome.readings["federation.shard_imbalance"] = fed.shard_imbalance()
        return outcome


class MaxLoad2Class(SteadyN100):
    """The paper's headline search over the persistent worker pool."""

    name = "maxload_2class"
    queries = (15_000, 1_500)
    workers = 2

    def __init__(self, seed: int, n_queries: int) -> None:
        global _WORKER_BARRIER
        super().__init__(seed, n_queries)
        self.seeds = (seed, seed + 1)
        # The pool forks its workers at the first submit, so they all
        # inherit this barrier.
        _WORKER_BARRIER = multiprocessing.get_context("fork").Barrier(
            self.workers)
        self.pool = experiments_parallel.get_pool(self.workers)
        #: Each worker's RSS before the cold run, by pid.
        self._ready_mb: Dict[int, float] = {}
        self._checked: Dict[float, Tuple[object, List[str], int]] = {}

    def idle_workers(self) -> List[Tuple[int, float, float]]:
        """Block until every pool worker is idle; their memory readings.

        A probe that comes back infeasible cancels its other seeds, but
        one already running keeps its worker busy after the search
        returns.  Meeting at a barrier, one task per worker, waits that
        out, so no search starts with a worker still busy.
        """
        futures = [self.pool.submit(worker_memory)
                   for _ in range(self.workers)]
        return [future.result(timeout=120) for future in futures]

    def prepare(self) -> None:
        readings = self.idle_workers()
        if not self._ready_mb:
            self._ready_mb = {pid: rss for pid, rss, _ in readings}

    def worker_growth_mb(self) -> float:
        return sum(peak - self._ready_mb[pid]
                   for pid, _, peak in self.idle_workers())

    def build(self, seed: int, n_queries: int):
        return paper_two_class_config("masstree", 1.0, n_queries=n_queries,
                                      seed=seed)

    def execute(self):
        return experiments_maxload.find_max_load(
            self.config, tol=0.01, seeds=self.seeds, workers=self.workers)

    def events_per_probe(self) -> int:
        """Events of one probe over all seeds.

        Without admission control every query is served, so a run's
        events are its queries plus its tasks, whatever the load: the
        fanouts come from the seed's query stream alone.
        """
        n = self.config.n_queries
        return sum(n + int(stream_fanouts(self.config.workload, seed,
                                          n).sum())
                   for seed in self.seeds)

    def at_max_load(self, max_load: float):
        """Re-run every seed at the answer, serially, once per answer.

        Returns the first seed's result, the failed checks, and the
        events of one probe.
        """
        if max_load not in self._checked:
            problems = []
            per_probe = self.events_per_probe()
            events = 0
            rated = self.config.at_load(max_load)
            results = []
            for seed in self.seeds:
                result = cluster_simulation.simulate(rated.with_seed(seed))
                results.append(result)
                events += count_events(result)
                if not result.meets_all_slos():
                    problems.append(
                        f"seed {seed} misses an SLO at the answer "
                        f"{max_load}")
            if events != per_probe:
                problems.append(f"probe events {events} != {per_probe}")
            self._checked[max_load] = (results[0], problems, per_probe)
        return self._checked[max_load]

    def inspect(self, search) -> Outcome:
        result, problems, per_probe = self.at_max_load(search.max_load)
        outcome = result_outcome(result, digest_arrays(
            np.array(search.history, dtype=np.float64)))
        outcome.events = per_probe * search.probes
        outcome.problems = list(problems)
        if (search.max_load, True) not in search.history:
            outcome.problems.append(
                f"answer {search.max_load} was not probed feasible")
        outcome.readings.update({
            "cluster.events": outcome.events,
            "cluster.tasks_total": (per_probe - len(self.seeds)
                                    * self.config.n_queries) * search.probes,
            "experiments.probes": search.probes,
            "sim_max_load": search.max_load,
        })
        return outcome

    def close(self) -> None:
        # Join the workers: the benchmark leaves no process running.
        self.pool.shutdown(wait=True)
        experiments_parallel.shutdown_pools()


WORKLOADS = {w.name: w for w in (SteadyN100, MitigatedN100, Federation16x100,
                                 ForensicsN100, MaxLoad2Class)}
