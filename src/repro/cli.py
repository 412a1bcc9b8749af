"""Command-line interface: ``tailguard`` / ``python -m repro``.

Subcommands:

* ``list`` — show all registered experiments;
* ``run EXPERIMENT [--quick] [--json] [--csv PATH]`` — run one
  experiment and print its table (JSON and CSV may be combined; the
  table is printed only when neither is requested);
* ``all [--quick]`` — run every experiment in registry order;
* ``simulate`` — run a one-off simulation with explicit parameters;
* ``faults`` — run a one-off fault-injected simulation (crashes,
  retry, hedging) and print the tail plus the fault counters;
* ``overload`` — run a one-off simulation under an overload policy
  (adaptive admission, optional degradation / circuit breakers /
  drift re-bootstrap) and print the degradation counters;
* ``trace record / replay`` — query-trace capture and paired replay;
* ``trace run`` — run a traced simulation and export the task
  lifecycle as Chrome trace-event JSON (``chrome://tracing`` /
  Perfetto) or JSONL;
* ``report`` — run a traced simulation (optionally fault-injected)
  and print the tail-forensics report: per-mechanism latency
  attribution, per-class SLO error budgets with multi-window burn
  rates, and the slowest-query waterfalls;
* ``federation`` — run a one-off two-level shard federation (front
  tier routing over per-shard TF-EDFQ clusters) and print the
  federation-scope summary plus a per-shard table.

Exit codes: 0 on success, 2 for configuration errors (bad flags or an
invalid setup), 1 for runtime failures inside a simulation or
experiment.  Library errors print a one-line message instead of a
traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional

import numpy as np

from repro.cluster import ClusterConfig, simulate
from repro.errors import ConfigurationError, ExperimentError, SimulationError
from repro.experiments.parallel import run_simulations
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.experiments.setups import paper_single_class_config
from repro.faults import CrashProcess, FaultPlan, HedgePolicy, RetryPolicy
from repro.federation import (
    ROUTERS,
    FederationConfig,
    SpillPolicy,
    simulate_federation,
)
from repro.metrics import LatencyCollector
from repro.replicas import (
    AdaptiveHedgePolicy,
    HedgeSuppressionPolicy,
    ReplicaPolicy,
    ReplicaScorer,
)
from repro.overload import (
    AdaptiveAdmissionPolicy,
    BreakerPolicy,
    DegradePolicy,
    DriftPolicy,
    OverloadPolicy,
)
from repro.obs import (
    TraceRecorder,
    render_report,
    tail_forensics_report,
    text_summary,
    write_chrome_trace,
    write_jsonl,
)
from repro.workloads import generate_queries, load_trace, save_trace


def _cmd_list(args: argparse.Namespace) -> int:
    for name in EXPERIMENTS:
        print(name)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    report = run_experiment(args.experiment, quick=args.quick,
                            workers=args.workers)
    if args.csv:
        report.to_csv(args.csv)
        print(f"wrote {len(report.rows)} rows to {args.csv}")
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    if not args.csv and not args.json:
        print(report.format_table())
    return 0


def _cmd_trace_record(args: argparse.Namespace) -> int:
    config = paper_single_class_config(
        args.workload, args.slo_ms, n_servers=args.servers,
        n_queries=args.queries, seed=args.seed,
    ).at_load(args.load)
    rng = np.random.default_rng(args.seed)
    specs = generate_queries(config.workload, args.queries, rng)
    save_trace(specs, args.out)
    print(f"recorded {len(specs)} queries to {args.out}")
    return 0


def _cmd_trace_replay(args: argparse.Namespace) -> int:
    specs = load_trace(args.trace)
    bench_workload = paper_single_class_config(
        args.workload, 1.0, n_servers=args.servers, n_queries=1,
    ).workload
    config = ClusterConfig(
        n_servers=args.servers,
        policy=args.policy,
        specs=specs,
        seed=args.seed,
        server_cdfs={sid: bench_workload.service_time
                     for sid in range(args.servers)},
    )
    result = simulate(config)
    print(f"replayed {len(specs)} queries under {result.policy_name}: "
          f"utilization={result.utilization():.3f} "
          f"miss_ratio={result.deadline_miss_ratio():.4f}")
    for (class_name, fanout), tail in result.per_type_tails().items():
        print(f"  {class_name} kf={fanout:<4d} p99={tail:.3f} ms")
    return 0


def _cmd_trace_run(args: argparse.Namespace) -> int:
    """Run one traced simulation and export the lifecycle events."""
    config = paper_single_class_config(
        args.workload, args.slo_ms, policy=args.policy,
        n_servers=args.servers, n_queries=args.queries, seed=args.seed,
    ).at_load(args.load)
    recorder = TraceRecorder(sample_interval_ms=args.sample_interval)
    # Routed through the parallel runner: with --workers the simulation
    # executes in a worker process and the recorder's events, counters
    # and histogram are merged back into this parent-side recorder.
    result = run_simulations([config.with_recorder(recorder)],
                             workers=args.workers)[0]

    collector = LatencyCollector()
    for class_name, fanout in result.types():
        for value in result.latencies(class_name, fanout):
            collector.record(class_name, fanout, float(value))

    if args.format == "chrome":
        n = write_chrome_trace(recorder, args.trace_out)
        what = "trace events"
    else:
        n = write_jsonl(recorder, args.trace_out)
        what = "JSONL events"
    print(text_summary(recorder, collector))
    print(f"policy={result.policy_name} load={args.load:.2f} "
          f"utilization={result.utilization():.3f} "
          f"miss_ratio={result.deadline_miss_ratio():.4f}")
    print(f"wrote {n} {what} to {args.trace_out}")
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    for name in EXPERIMENTS:
        print(f"=== {name} ===", flush=True)
        report = run_experiment(name, quick=args.quick,
                                workers=args.workers)
        print(report.format_table())
        print()
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = paper_single_class_config(
        args.workload,
        args.slo_ms,
        policy=args.policy,
        n_servers=args.servers,
        n_queries=args.queries,
        seed=args.seed,
    ).at_load(args.load)
    result = simulate(config)
    print(f"policy={result.policy_name} load={args.load:.2f} "
          f"utilization={result.utilization():.3f} "
          f"miss_ratio={result.deadline_miss_ratio():.4f}")
    for (class_name, fanout), tail in result.per_type_tails().items():
        print(f"  {class_name} kf={fanout:<4d} p99={tail:.3f} ms "
              f"({result.count(class_name, fanout)} queries)")
    return 0


def _replica_policy_from_args(args: argparse.Namespace
                              ) -> "ReplicaPolicy | None":
    """Assemble the optional replica layer from ``faults`` flags."""
    scorer = None
    if args.tail_weight > 0.0 or args.scored_fanout:
        scorer = ReplicaScorer(tail_weight=args.tail_weight,
                               scored_fanout=args.scored_fanout)
    suppression = None
    if args.suppress_hedges:
        suppression = HedgeSuppressionPolicy(
            pressure_threshold_ms=args.pressure_threshold_ms)
    adaptive = None
    if args.adaptive_hedge:
        adaptive = AdaptiveHedgePolicy(
            target_win_ratio=args.target_win_ratio,
            max_duplicate_fraction=args.hedge_budget)
    if scorer is None and suppression is None and adaptive is None:
        return None
    return ReplicaPolicy(scorer=scorer, suppression=suppression,
                         adaptive=adaptive)


def _nonnegative(flag: str, value: int) -> None:
    if value < 0:
        raise ConfigurationError(f"{flag} must be >= 0, got {value}")


def _cmd_faults(args: argparse.Namespace) -> int:
    """One-off fault-injected simulation with crash/retry/hedge knobs."""
    _nonnegative("--retries", args.retries)
    retry = None
    if args.retries > 0:
        retry = RetryPolicy(max_retries=args.retries,
                            backoff_ms=args.backoff_ms,
                            timeout_ms=args.timeout_ms)
    hedge = None
    if args.hedge:
        hedge = HedgePolicy(quantile=args.hedge_quantile,
                            delay_ms=args.hedge_delay_ms,
                            max_hedges=args.max_hedges)
    plan = FaultPlan(
        crashes=CrashProcess(mtbf_ms=args.mtbf_ms, mttr_ms=args.mttr_ms,
                             seed=args.seed),
        retry=retry,
        hedge=hedge,
    )
    rpolicy = _replica_policy_from_args(args)
    if rpolicy is not None and rpolicy.needs_hedging and hedge is None:
        raise ConfigurationError(
            "--suppress-hedges/--adaptive-hedge need --hedge")
    config = paper_single_class_config(
        args.workload, args.slo_ms, policy=args.policy,
        n_servers=args.servers, n_queries=args.queries, seed=args.seed,
    ).at_load(args.load).with_faults(plan)
    if rpolicy is not None:
        config = config.with_replicas(rpolicy)
    result = simulate(config)
    print(f"policy={result.policy_name} load={args.load:.2f} "
          f"utilization={result.utilization():.3f} "
          f"miss_ratio={result.deadline_miss_ratio():.4f}")
    print(f"server_failures={result.server_failures} "
          f"tasks_retried={result.tasks_retried} "
          f"tasks_hedged={result.tasks_hedged} "
          f"tasks_cancelled={result.tasks_cancelled} "
          f"failed_queries={result.queries_failed()} "
          f"(failed_ratio={result.failed_ratio():.4f})")
    if result.replicas is not None:
        rc = result.replicas
        print(f"hedges_suppressed={result.hedges_suppressed} "
              f"duplicate_fraction={rc.duplicate_fraction():.4f} "
              f"hedge_win_ratio={rc.win_ratio():.3f} "
              f"hedge_delay_factor={rc.delay_scale():.3f}")
    for (class_name, fanout), tail in result.per_type_tails().items():
        print(f"  {class_name} kf={fanout:<4d} p99={tail:.3f} ms "
              f"({result.count(class_name, fanout)} queries)")
    return 0


def _cmd_overload(args: argparse.Namespace) -> int:
    """One-off overload-protected simulation with degradation knobs."""
    degrade = None
    if args.degrade:
        degrade = DegradePolicy(min_coverage=args.min_coverage,
                                pressure_alpha=args.pressure_alpha,
                                safety=args.safety)
    breakers = None
    if args.breakers:
        breakers = BreakerPolicy(miss_threshold=args.breaker_misses,
                                 open_ms=args.breaker_open_ms,
                                 half_open_probes=args.half_open_probes,
                                 close_successes=args.close_successes)
    drift = None
    if args.drift:
        drift = DriftPolicy(threshold=args.drift_threshold,
                            window=args.drift_window,
                            check_interval=args.drift_interval)
    policy = OverloadPolicy(
        admission=AdaptiveAdmissionPolicy(
            target_miss_ratio=args.target_miss_ratio,
            max_latch_ms=args.max_latch_ms),
        breakers=breakers,
        degrade=degrade,
        drift=drift,
    )
    config = paper_single_class_config(
        args.workload, args.slo_ms, policy=args.policy,
        n_servers=args.servers, n_queries=args.queries, seed=args.seed,
    ).at_load(args.load).with_overload(policy)
    if args.mtbf_ms is not None:
        config = config.with_faults(FaultPlan(crashes=CrashProcess(
            mtbf_ms=args.mtbf_ms, mttr_ms=args.mttr_ms, seed=args.seed)))
    result = simulate(config)
    print(f"policy={result.policy_name} load={args.load:.2f} "
          f"utilization={result.utilization():.3f} "
          f"miss_ratio={result.deadline_miss_ratio():.4f}")
    print(f"rejected={int(result.rejected.sum())} "
          f"(rejection_ratio={result.rejection_ratio():.4f}) "
          f"degraded_queries={result.degraded_queries} "
          f"shed_tasks={result.shed_tasks} "
          f"breaker_trips={result.breaker_trips} "
          f"cdf_rebootstraps={result.cdf_rebootstraps}")
    print(f"coverage_p50={result.coverage_p50():.3f} "
          f"coverage_p99={result.coverage_p99():.3f} "
          f"admit_probability={result.overload.admit_probability:.3f}")
    for (class_name, fanout), tail in result.per_type_tails().items():
        print(f"  {class_name} kf={fanout:<4d} p99={tail:.3f} ms "
              f"({result.count(class_name, fanout)} queries)")
    return 0


def _cmd_federation(args: argparse.Namespace) -> int:
    """One-off two-level federation run with routing/spill knobs."""
    shard = paper_single_class_config(
        args.workload, args.slo_ms, policy=args.policy,
        n_servers=args.servers_per_shard, seed=args.seed,
    )
    fed = FederationConfig(
        tuple(shard.with_seed(args.seed + 1 + s)
              for s in range(args.shards)),
        workload=shard.workload,
        n_queries=args.queries,
        seed=args.seed,
        router=args.router,
        n_tenants=args.tenants,
        tenant_alpha=args.tenant_alpha,
        spill=SpillPolicy(margin_ms=args.spill_margin_ms) if args.spill
        else None,
    ).at_load(args.load)
    result = simulate_federation(fed, workers=args.workers)
    if args.json:
        document = {
            "n_shards": fed.n_shards,
            "total_servers": fed.total_servers,
            "router": fed.router,
            "summary": result.summary(),
            "shards": result.shard_rows(),
        }
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    print(f"federation: {fed.n_shards} shards x "
          f"{args.servers_per_shard} servers "
          f"({fed.total_servers} total) router={fed.router} "
          f"load={args.load:.2f}")
    print(f"p99={result.tail(99.0):.3f} ms "
          f"utilization={result.utilization():.3f} "
          f"miss_ratio={result.deadline_miss_ratio():.4f} "
          f"imbalance={result.shard_imbalance():.3f} "
          f"spilled={result.spill_count()}")
    for row in result.shard_rows():
        line = (f"  shard {int(row['shard']):<3d} "
                f"queries={int(row['queries']):<8d} "
                f"spilled_in={int(row['spilled_in']):<6d}")
        if "p99" in row:
            line += (f"util={row['utilization']:.3f} "
                     f"p99={row['p99']:.3f} ms")
        print(line)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Run one traced simulation and print its tail-forensics report."""
    if not (math.isfinite(args.percentile) and 0 <= args.percentile <= 100):
        raise ConfigurationError(
            f"--percentile must be finite and in [0, 100], got "
            f"{args.percentile}")
    _nonnegative("--top", args.top)
    _nonnegative("--retries", args.retries)
    config = paper_single_class_config(
        args.workload, args.slo_ms, policy=args.policy,
        n_servers=args.servers, n_queries=args.queries, seed=args.seed,
    ).at_load(args.load)
    if args.mtbf_ms is not None:
        retry = None
        if args.retries > 0:
            retry = RetryPolicy(max_retries=args.retries,
                                backoff_ms=args.backoff_ms)
        hedge = None
        if args.hedge:
            hedge = HedgePolicy(quantile=args.hedge_quantile,
                                delay_ms=args.hedge_delay_ms,
                                max_hedges=args.max_hedges)
        config = config.with_faults(FaultPlan(
            crashes=CrashProcess(mtbf_ms=args.mtbf_ms, mttr_ms=args.mttr_ms,
                                 seed=args.seed),
            retry=retry,
            hedge=hedge,
        ))
    recorder = TraceRecorder()
    result = run_simulations([config.with_recorder(recorder)],
                             workers=args.workers)[0]
    report = tail_forensics_report(result, top_k=args.top,
                                   percentile=args.percentile)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as stream:
            json.dump(report, stream, indent=2, sort_keys=True)
            stream.write("\n")
    if args.json:
        # Keep stdout pure JSON so it pipes into jq and friends.
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(render_report(report))
    if args.out:
        print(f"wrote forensics JSON to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailguard",
        description="TailGuard (ICDCS 2023) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")

    workers_help = ("fan independent simulations out over N worker "
                    "processes (-1 = all CPUs; default: serial, "
                    "bit-identical results either way)")

    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run_parser.add_argument("--quick", action="store_true",
                            help="reduced scale for a fast look")
    run_parser.add_argument("--json", action="store_true",
                            help="emit machine-readable JSON")
    run_parser.add_argument("--csv", metavar="PATH",
                            help="also write the rows to a CSV file")
    run_parser.add_argument("--workers", type=int, default=None, metavar="N",
                            help=workers_help)

    all_parser = sub.add_parser("all", help="run every experiment")
    all_parser.add_argument("--quick", action="store_true")
    all_parser.add_argument("--workers", type=int, default=None, metavar="N",
                            help=workers_help)

    sim_parser = sub.add_parser("simulate", help="one-off simulation")
    sim_parser.add_argument("--workload", default="masstree",
                            choices=["masstree", "shore", "xapian"])
    sim_parser.add_argument("--policy", default="tailguard")
    sim_parser.add_argument("--slo-ms", type=float, default=1.0)
    sim_parser.add_argument("--load", type=float, default=0.4)
    sim_parser.add_argument("--servers", type=int, default=100)
    sim_parser.add_argument("--queries", type=int, default=20_000)
    sim_parser.add_argument("--seed", type=int, default=1)

    faults_parser = sub.add_parser(
        "faults", help="one-off fault-injected simulation")
    faults_parser.add_argument("--workload", default="masstree",
                               choices=["masstree", "shore", "xapian"])
    faults_parser.add_argument("--policy", default="tailguard")
    faults_parser.add_argument("--slo-ms", type=float, default=1.0)
    faults_parser.add_argument("--load", type=float, default=0.4)
    faults_parser.add_argument("--servers", type=int, default=100)
    faults_parser.add_argument("--queries", type=int, default=20_000)
    faults_parser.add_argument("--seed", type=int, default=1)
    faults_parser.add_argument("--mtbf-ms", type=float, default=500.0,
                               help="per-server mean time between failures")
    faults_parser.add_argument("--mttr-ms", type=float, default=20.0,
                               help="per-server mean time to repair")
    faults_parser.add_argument("--retries", type=int, default=0, metavar="N",
                               help="kill-and-requeue with up to N retries "
                                    "per task copy (0 = pause mode)")
    faults_parser.add_argument("--backoff-ms", type=float, default=0.1,
                               help="requeue backoff per attempt")
    faults_parser.add_argument("--timeout-ms", type=float, default=None,
                               help="retry queued copies older than this")
    faults_parser.add_argument("--hedge", action="store_true",
                               help="duplicate slow tasks after a delay")
    faults_parser.add_argument("--hedge-quantile", type=float, default=0.95,
                               help="hedge delay = this quantile of the "
                                    "primary server's service CDF")
    faults_parser.add_argument("--hedge-delay-ms", type=float, default=None,
                               help="explicit hedge delay (overrides "
                                    "--hedge-quantile)")
    faults_parser.add_argument("--max-hedges", type=int, default=1,
                               help="duplicates per task slot")
    faults_parser.add_argument("--tail-weight", type=float, default=0.0,
                               help="replica score = queue depth + this x "
                                    "per-server tail EWMA (0 = bare "
                                    "least-loaded)")
    faults_parser.add_argument("--scored-fanout", action="store_true",
                               help="also place initial fanout on the "
                                    "best-scored servers")
    faults_parser.add_argument("--suppress-hedges", action="store_true",
                               help="withhold duplicates while cluster "
                                    "pressure is high (needs --hedge)")
    faults_parser.add_argument("--pressure-threshold-ms", type=float,
                               default=1.0,
                               help="pressure EWMA above this suppresses "
                                    "hedges")
    faults_parser.add_argument("--adaptive-hedge", action="store_true",
                               help="AIMD-tune the hedge delay online "
                                    "against the duplicate-win ratio "
                                    "(needs --hedge)")
    faults_parser.add_argument("--target-win-ratio", type=float,
                               default=0.35,
                               help="duplicate-win ratio the adaptive "
                                    "controller steers toward")
    faults_parser.add_argument("--hedge-budget", type=float, default=0.15,
                               help="hard cap on the duplicate-load "
                                    "fraction (hedges / base launches)")

    overload_parser = sub.add_parser(
        "overload", help="one-off overload-protected simulation")
    overload_parser.add_argument("--workload", default="masstree",
                                 choices=["masstree", "shore", "xapian"])
    overload_parser.add_argument("--policy", default="tailguard")
    overload_parser.add_argument("--slo-ms", type=float, default=1.0)
    overload_parser.add_argument("--load", type=float, default=0.6)
    overload_parser.add_argument("--servers", type=int, default=100)
    overload_parser.add_argument("--queries", type=int, default=20_000)
    overload_parser.add_argument("--seed", type=int, default=1)
    overload_parser.add_argument("--target-miss-ratio", type=float,
                                 default=0.005,
                                 help="AIMD admission steers the "
                                      "deadline-miss ratio toward this")
    overload_parser.add_argument("--max-latch-ms", type=float, default=50.0,
                                 help="evict a stale all-miss window after "
                                      "this much silence")
    overload_parser.add_argument("--degrade", action="store_true",
                                 help="serve denied queries at reduced "
                                      "fanout when the budget fits")
    overload_parser.add_argument("--min-coverage", type=float, default=0.3,
                                 help="floor on the dispatched fanout "
                                      "fraction of a degraded query")
    overload_parser.add_argument("--pressure-alpha", type=float, default=0.05,
                                 help="EWMA weight of the overshoot "
                                      "pressure signal")
    overload_parser.add_argument("--safety", type=float, default=2.0,
                                 help="pressure multiplier a degraded "
                                      "fanout's budget must clear")
    overload_parser.add_argument("--breakers", action="store_true",
                                 help="per-server circuit breakers")
    overload_parser.add_argument("--breaker-misses", type=int, default=2,
                                 help="consecutive misses that trip a "
                                      "breaker open")
    overload_parser.add_argument("--breaker-open-ms", type=float, default=3.0,
                                 help="open window before half-open probing")
    overload_parser.add_argument("--half-open-probes", type=int, default=4,
                                 help="probe tasks allowed while half-open")
    overload_parser.add_argument("--close-successes", type=int, default=4,
                                 help="on-time probes that close a breaker")
    overload_parser.add_argument("--drift", action="store_true",
                                 help="KS drift monitor + CDF re-bootstrap")
    overload_parser.add_argument("--drift-threshold", type=float,
                                 default=0.15,
                                 help="KS distance that triggers a "
                                      "re-bootstrap")
    overload_parser.add_argument("--drift-window", type=int, default=500,
                                 help="per-server service samples per check")
    overload_parser.add_argument("--drift-interval", type=int, default=200,
                                 help="samples between checks")
    overload_parser.add_argument("--mtbf-ms", type=float, default=None,
                                 help="also crash servers at this MTBF "
                                      "(pause mode)")
    overload_parser.add_argument("--mttr-ms", type=float, default=0.3,
                                 help="repair time for --mtbf-ms crashes")

    report_parser = sub.add_parser(
        "report", help="tail-forensics report for one traced run")
    report_parser.add_argument("--json", action="store_true",
                               help="print the report document as JSON "
                                    "instead of text")
    report_parser.add_argument("--out", metavar="PATH",
                               help="also write the JSON document here")
    report_parser.add_argument("--top", type=int, default=5, metavar="K",
                               help="slowest-query waterfalls to include")
    report_parser.add_argument("--percentile", type=float, default=99.0,
                               help="tail percentile to attribute")
    report_parser.add_argument("--workload", default="masstree",
                               choices=["masstree", "shore", "xapian"])
    report_parser.add_argument("--policy", default="tailguard")
    report_parser.add_argument("--slo-ms", type=float, default=1.0)
    report_parser.add_argument("--load", type=float, default=0.4)
    report_parser.add_argument("--servers", type=int, default=100)
    report_parser.add_argument("--queries", type=int, default=20_000)
    report_parser.add_argument("--seed", type=int, default=1)
    report_parser.add_argument("--workers", type=int, default=None,
                               metavar="N", help=workers_help)
    report_parser.add_argument("--mtbf-ms", type=float, default=None,
                               help="crash servers at this MTBF so the "
                                    "report has mitigations to attribute")
    report_parser.add_argument("--mttr-ms", type=float, default=20.0,
                               help="repair time for --mtbf-ms crashes")
    report_parser.add_argument("--retries", type=int, default=0, metavar="N",
                               help="kill-and-requeue with up to N retries "
                                    "per task copy (0 = pause mode)")
    report_parser.add_argument("--backoff-ms", type=float, default=0.1,
                               help="requeue backoff per attempt")
    report_parser.add_argument("--hedge", action="store_true",
                               help="duplicate slow tasks after a delay")
    report_parser.add_argument("--hedge-quantile", type=float, default=0.95,
                               help="hedge delay = this quantile of the "
                                    "primary server's service CDF")
    report_parser.add_argument("--hedge-delay-ms", type=float, default=None,
                               help="explicit hedge delay (overrides "
                                    "--hedge-quantile)")
    report_parser.add_argument("--max-hedges", type=int, default=1,
                               help="duplicates per task slot")

    federation_parser = sub.add_parser(
        "federation", help="one-off two-level shard federation run")
    federation_parser.add_argument("--shards", type=int, default=4,
                                   help="number of shard clusters")
    federation_parser.add_argument("--servers-per-shard", type=int,
                                   default=120,
                                   help="servers in each shard (must fit "
                                        "the workload's largest fanout)")
    federation_parser.add_argument("--router", default="jsq",
                                   choices=list(ROUTERS),
                                   help="inter-shard routing policy")
    federation_parser.add_argument("--spill", action="store_true",
                                   help="re-route queries whose primary "
                                        "shard cannot meet their budget")
    federation_parser.add_argument("--spill-margin-ms", type=float,
                                   default=0.0,
                                   help="tolerated budget overshoot before "
                                        "spilling")
    federation_parser.add_argument("--tenants", type=int, default=64,
                                   help="tenant population (tenant router)")
    federation_parser.add_argument("--tenant-alpha", type=float, default=1.1,
                                   help="Zipf exponent of tenant popularity")
    federation_parser.add_argument("--workload", default="masstree",
                                   choices=["masstree", "shore", "xapian"])
    federation_parser.add_argument("--policy", default="tailguard")
    federation_parser.add_argument("--slo-ms", type=float, default=20.0)
    federation_parser.add_argument("--load", type=float, default=0.6)
    federation_parser.add_argument("--queries", type=int, default=20_000)
    federation_parser.add_argument("--seed", type=int, default=1)
    federation_parser.add_argument("--json", action="store_true",
                                   help="emit machine-readable JSON")
    federation_parser.add_argument("--workers", type=int, default=None,
                                   metavar="N", help=workers_help)

    trace_parser = sub.add_parser("trace", help="record/replay query traces")
    trace_sub = trace_parser.add_subparsers(dest="trace_command",
                                            required=True)
    record_parser = trace_sub.add_parser("record", help="record a trace")
    record_parser.add_argument("--out", required=True)
    record_parser.add_argument("--workload", default="masstree",
                               choices=["masstree", "shore", "xapian"])
    record_parser.add_argument("--slo-ms", type=float, default=1.0)
    record_parser.add_argument("--load", type=float, default=0.4)
    record_parser.add_argument("--servers", type=int, default=100)
    record_parser.add_argument("--queries", type=int, default=20_000)
    record_parser.add_argument("--seed", type=int, default=1)
    replay_parser = trace_sub.add_parser("replay", help="replay a trace")
    replay_parser.add_argument("--trace", required=True)
    replay_parser.add_argument("--workload", default="masstree",
                               choices=["masstree", "shore", "xapian"])
    replay_parser.add_argument("--policy", default="tailguard")
    replay_parser.add_argument("--servers", type=int, default=100)
    replay_parser.add_argument("--seed", type=int, default=1)
    trace_run_parser = trace_sub.add_parser(
        "run", help="run a traced simulation and export lifecycle events")
    trace_run_parser.add_argument("--trace-out", required=True,
                                  metavar="PATH",
                                  help="output file for the trace")
    trace_run_parser.add_argument("--format", default="chrome",
                                  choices=["chrome", "jsonl"],
                                  help="chrome://tracing / Perfetto JSON "
                                       "or one event per JSONL line")
    trace_run_parser.add_argument("--sample-interval", type=float,
                                  default=None, metavar="MS",
                                  help="sample per-server queue/utilization/"
                                       "miss-ratio series every MS sim-ms")
    trace_run_parser.add_argument("--workload", default="masstree",
                                  choices=["masstree", "shore", "xapian"])
    trace_run_parser.add_argument("--policy", default="tailguard")
    trace_run_parser.add_argument("--slo-ms", type=float, default=1.0)
    trace_run_parser.add_argument("--load", type=float, default=0.4)
    trace_run_parser.add_argument("--servers", type=int, default=100)
    trace_run_parser.add_argument("--queries", type=int, default=20_000)
    trace_run_parser.add_argument("--seed", type=int, default=1)
    trace_run_parser.add_argument("--workers", type=int, default=None,
                                  metavar="N",
                                  help="run the simulation in a worker "
                                       "process and merge the trace home "
                                       "(exercises the parallel runner's "
                                       "obs round-trip)")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "all": _cmd_all,
        "simulate": _cmd_simulate,
        "faults": _cmd_faults,
        "overload": _cmd_overload,
        "report": _cmd_report,
        "federation": _cmd_federation,
    }
    try:
        if args.command == "trace":
            trace_handlers = {
                "record": _cmd_trace_record,
                "replay": _cmd_trace_replay,
                "run": _cmd_trace_run,
            }
            return trace_handlers[args.trace_command](args)
        return handlers[args.command](args)
    except ConfigurationError as exc:
        print(f"tailguard: configuration error: {exc}", file=sys.stderr)
        return 2
    except (SimulationError, ExperimentError) as exc:
        print(f"tailguard: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
