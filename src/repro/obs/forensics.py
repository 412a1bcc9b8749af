"""Tail-forensics reports: drill-down from a traced run to "where did
the tail go".

:func:`tail_forensics_report` folds a traced
:class:`~repro.cluster.results.SimulationResult` into one JSON-ready
document: run headline numbers, the cluster latency attribution
(per-mechanism percentiles and tail shares from
:mod:`repro.obs.attribution`), per-class SLO error budgets with
multi-window burn rates (:mod:`repro.obs.slo`), and the top-k slowest
queries with their component waterfalls.  :func:`render_report` turns
that document into the text form the ``tailguard report`` subcommand
prints.

:func:`validate_report` is a deliberately small JSON-Schema checker
(``type`` / ``required`` / ``properties`` / ``items`` / ``enum`` /
``minimum``) so the report contract can be pinned by a checked-in
schema without a third-party dependency.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.obs.attribution import COMPONENTS, ClusterAttribution
from repro.obs.slo import SLOAccountant

#: Report document version; bump on breaking shape changes.
REPORT_VERSION = 1


def tail_forensics_report(result, top_k: int = 5,
                          percentile: float = 99.0,
                          fast_window_ms: Optional[float] = None,
                          slow_window_ms: Optional[float] = None
                          ) -> Dict[str, Any]:
    """Build the forensics document from a traced simulation result."""
    if result.obs is None:
        raise ConfigurationError(
            "result has no trace recorder; run with a TraceRecorder to "
            "build a forensics report"
        )
    attribution = ClusterAttribution.from_recorder(result.obs)
    accountant = SLOAccountant(result.classes)
    accountant.ingest(result.obs)

    waterfalls: List[Dict[str, Any]] = []
    for q in attribution.top_k(top_k):
        waterfalls.append({
            "query_id": q.query_id,
            "class_name": q.class_name,
            "fanout": q.fanout,
            "latency_ms": q.latency_ms,
            "critical_server": q.critical_server,
            "critical_kind": q.critical_kind,
            "degraded": bool(q.degraded),
            "components": q.components(),
        })

    return {
        "version": REPORT_VERSION,
        "run": {
            "policy": result.policy_name,
            "n_servers": result.n_servers,
            "seed": result.seed,
            "offered_load": result.offered_load,
            "queries_measured": int(result._mask(None, None).sum()),
            "utilization": result.utilization(),
            "deadline_miss_ratio": result.deadline_miss_ratio(),
        },
        "attribution": attribution.summary(percentile),
        "slo": accountant.to_json(fast_window_ms, slow_window_ms),
        "slowest_queries": waterfalls,
    }


# ----------------------------------------------------------------------
# Text rendering
# ----------------------------------------------------------------------
def _bar(fraction: float, width: int = 24) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "." * (width - filled)


def render_report(report: Dict[str, Any]) -> str:
    """The human-readable form of a forensics document."""
    run = report["run"]
    lines = [
        "=== tail forensics ===",
        f"policy={run['policy']} servers={run['n_servers']} "
        f"load={run['offered_load']:.3f} seed={run['seed']} "
        f"measured={run['queries_measured']}",
    ]

    attribution = report["attribution"]
    lines.append("--- latency attribution (per mechanism, ms) ---")
    lines.append(f"{'component':<12} {'p50':>10} {'p99':>10} {'mean':>10} "
                 f"{'share':>7}")
    for component in COMPONENTS:
        row = attribution["components"][component]
        lines.append(
            f"{component:<12} {row['p50']:>10.4f} {row['p99']:>10.4f} "
            f"{row['mean']:>10.4f} {row['share']:>6.1%}"
        )

    tail = attribution.get("tail")
    if tail:
        lines.append(
            f"--- p{tail['percentile']:g} tail "
            f"(>= {tail['threshold_ms']:.4f} ms, n={tail['n_tail']}) ---"
        )
        for component in COMPONENTS:
            share = tail["shares"][component]
            lines.append(f"{component:<12} {_bar(share)} {share:>6.1%}")
        for row in tail["servers"]:
            lines.append(
                f"critical server {row['server']:>3d}: "
                f"{row['share']:.1%} of tail time "
                f"({row['queries']} queries)"
            )
        annotations = []
        if tail["hedge_won_fraction"]:
            annotations.append(
                f"hedge-won {tail['hedge_won_fraction']:.1%}")
        if tail["retried_fraction"]:
            annotations.append(f"retried {tail['retried_fraction']:.1%}")
        if tail["degraded_fraction"]:
            annotations.append(f"degraded {tail['degraded_fraction']:.1%}")
        if annotations:
            lines.append("tail queries: " + ", ".join(annotations))

    hedges = attribution["hedges"]
    if hedges["hedges_launched"]:
        lines.append(
            f"hedging: launched={hedges['hedges_launched']} "
            f"won={hedges['hedge_won_queries']} "
            f"losses_cancelled={hedges['hedge_losses_cancelled']}"
        )
    if attribution["queries_timed_out"]:
        lines.append(f"queries failed: {attribution['queries_timed_out']}")

    slo = report["slo"]
    lines.append(
        f"--- SLO budgets (span={slo['span_ms']:.1f} ms, "
        f"fast={slo['windows_ms']['fast']:.1f} ms, "
        f"slow={slo['windows_ms']['slow']:.1f} ms) ---"
    )
    lines.append(f"{'class':<8} {'slo_ms':>8} {'bad/total':>12} "
                 f"{'remaining':>10} {'fast':>8} {'slow':>8}  alert")
    for name in sorted(slo["classes"]):
        row = slo["classes"][name]
        lines.append(
            f"{name:<8} {row['slo_ms']:>8.2f} "
            f"{row['bad']:>5d}/{row['total']:<6d} "
            f"{row['budget_remaining']:>10.3f} "
            f"{row['burn_rate']['fast']:>8.2f} "
            f"{row['burn_rate']['slow']:>8.2f}  "
            f"{'FIRING' if row['alert'] else 'ok'}"
        )

    if report["slowest_queries"]:
        lines.append("--- slowest queries ---")
        for entry in report["slowest_queries"]:
            lines.append(
                f"q{entry['query_id']} [{entry['class_name']} "
                f"kf={entry['fanout']}] {entry['latency_ms']:.4f} ms "
                f"via {entry['critical_kind']} on "
                f"server {entry['critical_server']}"
                + (" (degraded)" if entry["degraded"] else "")
            )
            latency = entry["latency_ms"]
            for component in COMPONENTS:
                value = entry["components"][component]
                if value == 0.0 and component != "service":
                    continue
                fraction = value / latency if latency > 0 else 0.0
                lines.append(f"    {component:<12} {_bar(fraction)} "
                             f"{value:>10.4f} ms")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Minimal JSON-Schema validation
# ----------------------------------------------------------------------
_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "integer": int,
    "null": type(None),
}


def _type_ok(value: Any, name: str) -> bool:
    if name == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if name == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    expected = _TYPES.get(name)
    return expected is not None and isinstance(value, expected)


def validate_report(instance: Any, schema: Dict[str, Any],
                    path: str = "$") -> List[str]:
    """Check ``instance`` against a (subset-)JSON-Schema.

    Supports ``type`` (string or list), ``required``, ``properties``,
    ``items``, ``enum``, and ``minimum`` — enough to pin the report
    contract.  Returns a list of human-readable violations; empty means
    valid.
    """
    errors: List[str] = []
    declared = schema.get("type")
    if declared is not None:
        names = declared if isinstance(declared, list) else [declared]
        if not any(_type_ok(instance, name) for name in names):
            errors.append(
                f"{path}: expected type {declared!r}, "
                f"got {type(instance).__name__}"
            )
            return errors
    if "enum" in schema and instance not in schema["enum"]:
        errors.append(f"{path}: {instance!r} not in enum {schema['enum']!r}")
    if "minimum" in schema and isinstance(instance, (int, float)) \
            and not isinstance(instance, bool) \
            and instance < schema["minimum"]:
        errors.append(f"{path}: {instance!r} < minimum {schema['minimum']!r}")
    if isinstance(instance, dict):
        for key in schema.get("required", ()):
            if key not in instance:
                errors.append(f"{path}: missing required key {key!r}")
        for key, subschema in schema.get("properties", {}).items():
            if key in instance:
                errors.extend(validate_report(instance[key], subschema,
                                              f"{path}.{key}"))
    if isinstance(instance, list) and "items" in schema:
        for i, item in enumerate(instance):
            errors.extend(validate_report(item, schema["items"],
                                          f"{path}[{i}]"))
    return errors
