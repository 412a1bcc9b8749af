"""Golden-master regression corpus for the simulation kernels.

Every scenario below runs a small seeded simulation and reduces its
per-query outcome arrays to a compact digest — SHA-256 over the
canonical little-endian bytes of each array, plus every scalar counter
as an exact hex float.  The digests are checked into
``tests/golden/`` and the test asserts that the current kernels
reproduce them **byte for byte**.

The corpus pins both simulation paths:

* the event-calendar path (``repro.cluster.simulation.simulate``,
  which routes to ``repro.cluster.faultsim`` under faults/overload)
  across FIFO / PRIQ / T-EDFQ / TF-EDFQ / WRR × {plain, traced,
  faults} plus overload, heterogeneous-CDF, online-updating,
  admission (plain and traced), placement-hook, and timeline-sampling
  variants, each feature of the fault calendar on a fault plan, and
  traced fault runs — a traced scenario's digest also pins the
  recorder's event stream, counters, gauges, histogram and server
  series;
* the composable DES-kernel path (``QueryHandler`` + ``TaskServer``
  on ``repro.sim.Environment``) on a fixed pre-placed trace, with and
  without a fault plan.

Regenerating (only after an *intentional* semantics change — see
``docs/extending.md``):

    PYTHONPATH=src python tests/integration/test_golden_master.py --regen

The regen escape hatch rewrites every digest under ``tests/golden/``
from the current kernels; review the diff before committing it.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ServicePerturbation, simulate
from repro.core.admission import DeadlineMissRatioAdmission
from repro.core.deadline import DeadlineEstimator
from repro.core.handler import QueryHandler
from repro.core.policies import get_policy
from repro.core.server import TaskServer
from repro.distributions import Deterministic, Exponential
from repro.faults import (
    CrashProcess,
    Downtime,
    FaultPlan,
    HedgePolicy,
    RetryPolicy,
    StragglerEpisode,
    fault_horizon,
    install_faults,
)
from repro.obs import TraceRecorder, write_jsonl
from repro.overload import (
    AdaptiveAdmissionPolicy,
    BreakerPolicy,
    DegradePolicy,
    DriftPolicy,
    OverloadPolicy,
)
from repro.replicas import (
    AdaptiveHedgePolicy,
    ReplicaPolicy,
    ReplicaScorer,
    install_replicas,
)
from repro.sim import Environment
from repro.types import QuerySpec, ServiceClass
from repro.workloads import (
    PoissonArrivals,
    ShardedPlacement,
    ShardMap,
    Workload,
    generate_queries,
    get_workload,
    inverse_proportional_fanout,
    single_class_mix,
    uniform_class_mix,
)

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"

# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
#: Canonical dtypes: every array is normalized before hashing so the
#: digest does not depend on incidental dtype choices inside a kernel.
_CANONICAL = {
    "latency": np.float64,
    "arrival": np.float64,
    "coverage": np.float64,
    "fanout": np.int64,
    "class_index": np.int64,
    "rejected": np.uint8,
    "measured": np.uint8,
    "failed": np.uint8,
    "degraded": np.uint8,
}


def _array_sha(name: str, array: Optional[np.ndarray]) -> str:
    if array is None:
        return "absent"
    canonical = np.ascontiguousarray(
        np.asarray(array).astype(_CANONICAL[name], copy=False)
    )
    if sys.byteorder != "little":  # pragma: no cover - x86/arm are little
        canonical = canonical.byteswap()
    return hashlib.sha256(canonical.tobytes()).hexdigest()


def _hex(value: float) -> str:
    return float(value).hex()


def _sha(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def digest_trace(rec) -> Dict:
    """Exact digest of a recorder's output after one traced run.

    Pins the event stream (the JSONL export, byte for byte), every
    counter and gauge, the latency histogram and the sampled
    per-server series.
    """
    buffer = io.StringIO()
    write_jsonl(rec, buffer)
    digest = {
        "jsonl": _sha(buffer.getvalue().encode("utf-8")),
        "n_events": len(rec.events),
        "counters": dict(rec.counters),
        "gauges": {name: _hex(value) for name, value in rec.gauges.items()},
        "latency_hist": _sha(json.dumps(rec.latency_hist.snapshot(),
                                        sort_keys=True).encode("utf-8")),
    }
    series = rec.server_series()
    if series is not None:
        digest["series_len"] = len(series)
        digest["series"] = {
            name: _sha(np.ascontiguousarray(
                getattr(series, name), dtype=dtype).tobytes())
            for name, dtype in (("time", np.float64),
                                ("queue_len", np.int64),
                                ("busy", np.int64),
                                ("utilization", np.float64),
                                ("miss_ratio", np.float64))
        }
    return digest


def digest_result(result) -> Dict:
    """Compact, exact digest of one ``SimulationResult``."""
    arrays = {
        name: _array_sha(name, getattr(result, name))
        for name in ("latency", "arrival", "fanout", "class_index",
                     "rejected", "measured", "failed", "coverage",
                     "degraded")
    }
    finite = result.latency[np.isfinite(result.latency)]
    spot = {
        "latency_head": [_hex(v) for v in result.latency[:4]],
        "latency_sum": _hex(float(np.nansum(result.latency))),
        "completed": int(finite.size),
    }
    counters = {
        "n_queries": int(result.latency.size),
        "policy": result.policy_name,
        "n_servers": result.n_servers,
        "seed": result.seed,
        "classes": [cls.name for cls in result.classes],
        "tasks_total": result.tasks_total,
        "tasks_missed_deadline": result.tasks_missed_deadline,
        "busy_time_total": _hex(result.busy_time_total),
        "duration": _hex(result.duration),
        "tasks_failed": result.tasks_failed,
        "tasks_retried": result.tasks_retried,
        "tasks_hedged": result.tasks_hedged,
        "tasks_cancelled": result.tasks_cancelled,
        "server_failures": result.server_failures,
        "degraded_queries": result.degraded_queries,
        "shed_tasks": result.shed_tasks,
        "breaker_trips": result.breaker_trips,
    }
    if result.timeline is not None:
        counters["timeline_len"] = len(result.timeline)
        counters["timeline_queued_sum"] = int(
            result.timeline.queued_tasks.sum())
        counters["timeline_busy_sum"] = int(result.timeline.busy_servers.sum())
    if result.replicas is not None:
        # Pin the replica controller's decision sequence, not just its
        # latency side effects: the launch/suppression tallies and the
        # full AIMD delay trace are bit-exact functions of the feed
        # order both kernels must reproduce.
        rc = result.replicas
        counters["hedges_suppressed"] = result.hedges_suppressed
        counters["replica_base_launches"] = rc.base_launches
        counters["replica_hedges_launched"] = rc.hedges_launched
        counters["replica_suppressed_by"] = dict(rc.suppressed_by)
        counters["replica_hedge_wins"] = rc.hedge_wins
        counters["replica_hedge_losses"] = rc.hedge_losses
        counters["replica_delay_trace"] = [
            [_hex(t), _hex(f)] for t, f in rc.delay_trace
        ]
    digest = {"arrays": arrays, "counters": counters, "spot": spot}
    if result.obs is not None:
        digest["trace"] = digest_trace(result.obs)
    return digest


def digest_kernel_run(latencies: Dict[int, float], failed: set,
                      n_queries: int) -> Dict:
    """Digest of one DES-kernel run (latency per query id + failed set)."""
    latency = np.full(n_queries, np.nan)
    for qid, value in latencies.items():
        latency[qid] = value
    failed_mask = np.zeros(n_queries, dtype=np.uint8)
    for qid in failed:
        failed_mask[qid] = 1
    return {
        "arrays": {
            "latency": _array_sha("latency", latency),
            "failed": _array_sha("failed", failed_mask),
        },
        "counters": {
            "n_queries": n_queries,
            "completed": len(latencies),
            "failed": len(failed),
            "latency_sum": _hex(float(np.nansum(latency))),
        },
        "spot": {"latency_head": [_hex(v) for v in latency[:4]]},
    }


# ----------------------------------------------------------------------
# Event-calendar scenarios
# ----------------------------------------------------------------------
_POLICIES = ("fifo", "priq", "t-edf", "tailguard", "wrr")

_FAULT_PLAN = FaultPlan(
    downtimes=(Downtime(2, 8.113, 13.391), Downtime(5, 22.207, 28.119)),
    crashes=CrashProcess(mtbf_ms=90.0, mttr_ms=5.0, server_ids=(0, 3),
                         seed=5),
    stragglers=(StragglerEpisode((7,), 18.183, 40.621, 2.5),),
    retry=RetryPolicy(max_retries=2, backoff_ms=0.531, timeout_ms=9.207),
    hedge=HedgePolicy(delay_ms=3.313, max_hedges=1),
)

_OVERLOAD = OverloadPolicy(
    admission=AdaptiveAdmissionPolicy(
        target_miss_ratio=0.08, window_tasks=400, window_ms=30.0,
        min_samples=60, decrease=0.6, increase=0.1, floor=0.05,
        hysteresis=0.2, ctl_interval_ms=1.0, max_latch_ms=50.0,
    ),
    degrade=DegradePolicy(min_coverage=0.5, pressure_alpha=0.1, safety=1.0),
    breakers=BreakerPolicy(miss_threshold=4, open_ms=5.113,
                           half_open_probes=2, close_successes=3),
)


def _small_workload(n_classes: int = 1,
                    fanouts: Tuple[int, ...] = (1, 4, 16)) -> Workload:
    masstree = get_workload("masstree")
    if n_classes == 1:
        mix = single_class_mix(ServiceClass("single", slo_ms=1.0))
    else:
        mix = uniform_class_mix([
            ServiceClass("class-I", slo_ms=0.9, priority=0),
            ServiceClass("class-II", slo_ms=1.4, priority=1),
        ])
    return Workload(
        name="golden",
        arrivals=PoissonArrivals(1.0),
        fanout=inverse_proportional_fanout(fanouts),
        class_mix=mix,
        service_time=masstree.service_time,
    )


def _base_config(policy: str, n_classes: int = 1, **kwargs) -> ClusterConfig:
    return ClusterConfig(
        n_servers=16,
        policy=policy,
        workload=_small_workload(n_classes).at_load(0.85, 16),
        n_queries=1500,
        seed=42,
        **kwargs,
    )


def _hetero_config() -> ClusterConfig:
    cdfs = {sid: Exponential(0.4 + 0.05 * (sid % 4)) for sid in range(8)}
    return ClusterConfig(
        n_servers=8,
        policy="tailguard",
        workload=_small_workload(fanouts=(1, 4, 8)).at_load(0.8, 8),
        n_queries=1200,
        seed=7,
        server_cdfs=cdfs,
    )


def _online_config() -> ClusterConfig:
    config = _base_config("tailguard")
    cdfs = config.resolve_server_cdfs()
    estimator = DeadlineEstimator(dict(cdfs), online_window=256,
                                  refresh_interval=200)
    return config.evolve(estimator=estimator)


CALENDAR_SCENARIOS: Dict[str, Callable[[], ClusterConfig]] = {}
for _policy in _POLICIES:
    CALENDAR_SCENARIOS[f"plain_{_policy}"] = (
        lambda p=_policy: _base_config(p, n_classes=2))
    CALENDAR_SCENARIOS[f"faults_{_policy}"] = (
        lambda p=_policy: _base_config(p, n_classes=2).with_faults(
            _FAULT_PLAN))
CALENDAR_SCENARIOS["overload_tailguard"] = (
    lambda: _base_config("tailguard").evolve(overload=_OVERLOAD))
CALENDAR_SCENARIOS["overload_fifo"] = (
    lambda: _base_config("fifo").evolve(overload=_OVERLOAD))
CALENDAR_SCENARIOS["overload_faults_tailguard"] = (
    lambda: _base_config("tailguard").with_faults(_FAULT_PLAN).evolve(
        overload=_OVERLOAD))
CALENDAR_SCENARIOS["hetero_tailguard"] = _hetero_config
CALENDAR_SCENARIOS["online_tailguard"] = _online_config
CALENDAR_SCENARIOS["admission_tailguard"] = (
    lambda: _base_config("tailguard").with_admission(
        DeadlineMissRatioAdmission(threshold=0.2, window_tasks=200,
                                   min_samples=50)))
CALENDAR_SCENARIOS["timeline_tailguard"] = (
    lambda: _base_config("tailguard").evolve(timeline_interval_ms=5.0))
CALENDAR_SCENARIOS["timeline_faults_fifo"] = (
    lambda: _base_config("fifo").with_faults(_FAULT_PLAN).evolve(
        timeline_interval_ms=5.0))

# Traced runs: the digest's ``trace`` entry pins the recorder's whole
# output (event stream, counters, gauges, latency histogram, sampled
# server series), not just the latencies tracing must leave alone.
for _policy in _POLICIES:
    CALENDAR_SCENARIOS[f"traced_{_policy}"] = (
        lambda p=_policy: _base_config(p, n_classes=2).with_recorder(
            TraceRecorder(sample_interval_ms=5.0)))
CALENDAR_SCENARIOS["traced_admission_tailguard"] = (
    lambda: _base_config("tailguard").with_admission(
        DeadlineMissRatioAdmission(threshold=0.05, window_tasks=200,
                                   min_samples=50)).with_recorder(
        TraceRecorder(sample_interval_ms=5.0)))
# A placement hook that reads queue depths (least-loaded replica
# selection over a replicated shard map).
CALENDAR_SCENARIOS["placement_tailguard"] = (
    lambda: _base_config("tailguard", n_classes=2).evolve(
        placement=ShardedPlacement(ShardMap(24, 16, replication=2),
                                   select="least-loaded")))

# Fault-heavy at rack scale: a 100-server cluster with a cluster-wide
# crash process, a straggler episode, retries, and hedging all active at
# once — the shape the perf-gate fault scenario measures, pinned here
# bit-exactly so the columnar fault calendar cannot drift.
_FAULT_HEAVY_PLAN = FaultPlan(
    crashes=CrashProcess(mtbf_ms=60.0, mttr_ms=4.0, seed=19),
    stragglers=(StragglerEpisode((3, 11, 47), 5.113, 35.407, 3.0),),
    retry=RetryPolicy(max_retries=2, backoff_ms=0.531, timeout_ms=9.207),
    hedge=HedgePolicy(delay_ms=3.313, max_hedges=1),
)

CALENDAR_SCENARIOS["fault_heavy_tailguard"] = lambda: ClusterConfig(
    n_servers=100,
    policy="tailguard",
    workload=_small_workload(n_classes=2, fanouts=(1, 8, 32)).at_load(
        0.7, 100),
    n_queries=2000,
    seed=23,
).with_faults(_FAULT_HEAVY_PLAN)

# Straggler-heavy adaptive hedging at rack scale: long overlapping
# slowdown episodes on a 100-server cluster with the replica layer's
# scored placement and budgeted AIMD delay controller active — pins the
# controller's entire decision sequence (launch/suppression tallies and
# the hedge-delay trace are part of the digest) on top of the per-query
# latencies.
_REPLICA_STRAGGLER_PLAN = FaultPlan(
    stragglers=(
        StragglerEpisode((3, 11, 47), 0.0, 60.0, 4.0),
        StragglerEpisode((8, 21, 60, 72), 30.0, 110.0, 3.0),
    ),
    retry=RetryPolicy(max_retries=2, backoff_ms=0.531, timeout_ms=9.207),
    hedge=HedgePolicy(delay_ms=1.113, max_hedges=2),
)
_REPLICA_POLICY = ReplicaPolicy(
    scorer=ReplicaScorer(tail_weight=0.5, tail_alpha=0.2),
    adaptive=AdaptiveHedgePolicy(
        window_hedges=50, min_samples=10, ctl_interval_ms=10.0,
        max_duplicate_fraction=0.2),
)
CALENDAR_SCENARIOS["replica_straggler_tailguard"] = lambda: ClusterConfig(
    n_servers=100,
    policy="tailguard",
    workload=_small_workload(n_classes=2, fanouts=(1, 8, 32)).at_load(
        0.7, 100),
    n_queries=2000,
    seed=29,
).with_faults(_REPLICA_STRAGGLER_PLAN).with_replicas(_REPLICA_POLICY)

# Pause-mode plans (no retry, no hedge): crashes pause servers instead
# of killing work.  The fault loop arms no timer for them, so they pin
# its pause path.
_PAUSE_PLAN = FaultPlan(
    downtimes=(Downtime(2, 8.113, 13.391),),
    crashes=CrashProcess(mtbf_ms=90.0, mttr_ms=5.0, server_ids=(0, 3),
                         seed=5),
    stragglers=(StragglerEpisode((7,), 18.183, 40.621, 2.5),),
)
CALENDAR_SCENARIOS["faults_pause_tailguard"] = (
    lambda: _base_config("tailguard", n_classes=2).with_faults(_PAUSE_PLAN))
CALENDAR_SCENARIOS["faults_pause_fifo"] = (
    lambda: _base_config("fifo", n_classes=2).with_faults(_PAUSE_PLAN))

# The fault calendar's optional features, each on a fault plan: traced
# runs (kill and pause mode, and with the overload controller),
# admission, a placement hook, pre-placed specs, per-server hedge
# delays, an online estimator, perturbations, drift re-bootstrap under
# a quantile hedge, and breaker-filtered replica picks.
_QUANTILE_HEDGE_PLAN = FaultPlan(
    crashes=CrashProcess(mtbf_ms=90.0, mttr_ms=5.0, server_ids=(0, 3),
                         seed=5),
    stragglers=(StragglerEpisode((1, 6, 7), 0.0, 1e9, 2.5),),
    retry=RetryPolicy(max_retries=2, backoff_ms=0.531, timeout_ms=9.207),
    hedge=HedgePolicy(quantile=0.9, max_hedges=1),
)


def _traced(config: ClusterConfig) -> ClusterConfig:
    return config.with_recorder(TraceRecorder(sample_interval_ms=5.0))


def _specs_config() -> ClusterConfig:
    """Every other query arrives with its servers already assigned."""
    config = _base_config("tailguard", n_classes=2)
    rng = np.random.default_rng(11)
    specs = [
        replace(spec, servers=tuple(
            int(s) for s in rng.choice(16, size=spec.fanout, replace=False)))
        if spec.query_id % 2 else spec
        for spec in generate_queries(config.workload, 1500,
                                     np.random.default_rng(42))
    ]
    return ClusterConfig(n_servers=16, policy="tailguard", specs=specs,
                         seed=42, server_cdfs=config.resolve_server_cdfs(),
                         ).with_faults(_FAULT_PLAN)


for _policy in ("fifo", "priq", "tailguard"):
    CALENDAR_SCENARIOS[f"traced_faults_{_policy}"] = (
        lambda p=_policy: _traced(
            _base_config(p, n_classes=2).with_faults(_FAULT_PLAN)))
CALENDAR_SCENARIOS["traced_pause_tailguard"] = (
    lambda: _traced(
        _base_config("tailguard", n_classes=2).with_faults(_PAUSE_PLAN)))
CALENDAR_SCENARIOS["traced_overload_faults_tailguard"] = (
    lambda: _traced(_base_config("tailguard").with_faults(
        _FAULT_PLAN).evolve(overload=_OVERLOAD)))
CALENDAR_SCENARIOS["admission_faults_tailguard"] = (
    lambda: _base_config("tailguard").with_admission(
        DeadlineMissRatioAdmission(threshold=0.2, window_tasks=200,
                                   min_samples=50)).with_faults(_FAULT_PLAN))
CALENDAR_SCENARIOS["placement_faults_tailguard"] = (
    lambda: _base_config("tailguard", n_classes=2).evolve(
        placement=ShardedPlacement(ShardMap(24, 16, replication=2),
                                   select="least-loaded")).with_faults(
        _FAULT_PLAN))
CALENDAR_SCENARIOS["specs_faults_tailguard"] = _specs_config
CALENDAR_SCENARIOS["hetero_hedge_tailguard"] = (
    lambda: _hetero_config().with_faults(_QUANTILE_HEDGE_PLAN))
CALENDAR_SCENARIOS["online_faults_tailguard"] = (
    lambda: _online_config().with_faults(_FAULT_PLAN))
CALENDAR_SCENARIOS["perturbed_faults_tailguard"] = (
    lambda: _base_config("tailguard", n_classes=2, perturbations=(
        ServicePerturbation((4, 9), 10.0, 60.0, 1.7),)).with_faults(
        _FAULT_PLAN))
CALENDAR_SCENARIOS["overload_drift_hedge_tailguard"] = (
    lambda: _base_config("tailguard").with_faults(
        _QUANTILE_HEDGE_PLAN).evolve(overload=replace(
            _OVERLOAD, drift=DriftPolicy(threshold=0.15, window=64,
                                         check_interval=32))))
CALENDAR_SCENARIOS["overload_replica_tailguard"] = (
    lambda: _base_config("tailguard", n_classes=2).with_faults(
        _QUANTILE_HEDGE_PLAN).evolve(overload=_OVERLOAD).with_replicas(
        _REPLICA_POLICY))


# ----------------------------------------------------------------------
# DES-kernel scenarios (fixed pre-placed trace)
# ----------------------------------------------------------------------
_KERNEL_N_SERVERS = 8
_KERNEL_N_QUERIES = 300

_KERNEL_PLANS: Dict[str, Optional[FaultPlan]] = {
    "plain": None,
    "faults": FaultPlan(
        downtimes=(Downtime(2, 10.113, 17.391),),
        retry=RetryPolicy(max_retries=2, backoff_ms=0.531),
        hedge=HedgePolicy(delay_ms=3.313, max_hedges=1),
    ),
}


def _kernel_trace() -> List[QuerySpec]:
    rng = np.random.default_rng(9)
    classes = [
        ServiceClass("class-I", slo_ms=5.0, priority=0),
        ServiceClass("class-II", slo_ms=7.5, priority=1),
    ]
    specs = []
    now = 0.0
    for qid in range(_KERNEL_N_QUERIES):
        now += float(rng.exponential(0.35))
        fanout = int(rng.choice([1, 2, 4, 8]))
        servers = tuple(
            int(s) for s in rng.choice(_KERNEL_N_SERVERS, size=fanout,
                                       replace=False)
        )
        specs.append(QuerySpec(
            query_id=qid, arrival_time=now, fanout=fanout,
            service_class=classes[int(rng.integers(2))], servers=servers,
        ))
    return specs


def _kernel_cdfs():
    return {sid: Deterministic(0.5 + 0.1 * sid)
            for sid in range(_KERNEL_N_SERVERS)}


def run_kernel_scenario(
        policy_name: str, plan: Optional[FaultPlan],
        rpolicy: Optional[ReplicaPolicy] = None) -> Tuple[Dict, set]:
    specs = _kernel_trace()
    env = Environment()
    policy = get_policy(policy_name)
    cdfs = _kernel_cdfs()
    estimator = DeadlineEstimator(dict(cdfs))
    servers = [
        TaskServer(env, sid, policy, cdfs[sid], np.random.default_rng(sid))
        for sid in range(_KERNEL_N_SERVERS)
    ]
    handler = QueryHandler(env, servers, estimator, policy,
                           np.random.default_rng(123))
    if plan is not None:
        install_faults(env, handler, servers, plan,
                       fault_horizon(specs[-1].arrival_time), cdfs)
    if rpolicy is not None:
        install_replicas(env, handler, servers, rpolicy)
    env.process(handler.drive(specs))
    env.run()
    latencies = {
        record.spec.query_id: record.latency for record in handler.completed
    }
    failed = {record.spec.query_id for record in handler.failed}
    return latencies, failed


KERNEL_SCENARIOS: Dict[
    str, Tuple[str, Optional[FaultPlan], Optional[ReplicaPolicy]]] = {}
for _policy in _POLICIES:
    for _plan_name, _plan in _KERNEL_PLANS.items():
        KERNEL_SCENARIOS[f"kernel_{_plan_name}_{_policy}"] = (
            _policy, _plan, None)

# The DES-kernel twin of ``replica_straggler_tailguard`` (same
# mechanisms on the fixed pre-placed trace): stragglers + retries +
# hedging with the adaptive replica controller installed.
_KERNEL_REPLICA_PLAN = FaultPlan(
    stragglers=(StragglerEpisode((1, 4), 0.0, 60.0, 3.0),),
    retry=RetryPolicy(max_retries=2, backoff_ms=0.531, timeout_ms=9.207),
    hedge=HedgePolicy(delay_ms=1.717, max_hedges=2),
)
for _policy in ("fifo", "tailguard"):
    KERNEL_SCENARIOS[f"kernel_replicas_{_policy}"] = (
        _policy, _KERNEL_REPLICA_PLAN, _REPLICA_POLICY)


# ----------------------------------------------------------------------
# Digest computation / regeneration
# ----------------------------------------------------------------------
def compute_digest(name: str) -> Dict:
    if name in CALENDAR_SCENARIOS:
        result = simulate(CALENDAR_SCENARIOS[name]())
        digest = digest_result(result)
        digest["path"] = "event-calendar"
    else:
        policy, plan, rpolicy = KERNEL_SCENARIOS[name]
        latencies, failed = run_kernel_scenario(policy, plan, rpolicy)
        digest = digest_kernel_run(latencies, failed, _KERNEL_N_QUERIES)
        digest["path"] = "des-kernel"
    digest["scenario"] = name
    return digest


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


ALL_SCENARIOS = sorted(CALENDAR_SCENARIOS) + sorted(KERNEL_SCENARIOS)


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_golden_master(name):
    path = golden_path(name)
    assert path.exists(), (
        f"missing golden digest {path}; regenerate with "
        f"`PYTHONPATH=src python {__file__} --regen`"
    )
    expected = json.loads(path.read_text(encoding="utf-8"))
    actual = compute_digest(name)
    assert actual == expected, (
        f"scenario {name!r} diverged from its golden digest — the kernels "
        f"no longer reproduce the pinned behavior byte-for-byte.  If the "
        f"semantics change is intentional, regenerate with "
        f"`PYTHONPATH=src python {__file__} --regen` and review the diff."
    )


def test_corpus_has_no_orphan_digests():
    """Every checked-in digest corresponds to a live scenario."""
    on_disk = {p.stem for p in GOLDEN_DIR.glob("*.json")}
    assert on_disk == set(ALL_SCENARIOS)


def _regen() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for stale in GOLDEN_DIR.glob("*.json"):
        if stale.stem not in ALL_SCENARIOS:
            stale.unlink()
    for name in ALL_SCENARIOS:
        digest = compute_digest(name)
        golden_path(name).write_text(
            json.dumps(digest, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {golden_path(name)}")


if __name__ == "__main__":
    if "--regen" in sys.argv[1:]:
        _regen()
    else:
        print(__doc__)
        raise SystemExit("pass --regen to rewrite the golden corpus")
