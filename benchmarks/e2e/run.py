"""End-to-end benchmark of the TailGuard simulator.

One workload, in this process (what an automated runner calls)::

    python3 benchmarks/e2e/run.py --workload steady_n100 --seed 1 \\
        --seconds 10 --trace 0

prints every metric by name with its unit and, as the last line of
standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` is a separate
run that reports its per-layer metrics.

Every workload, each in a fresh subprocess, written to one JSON file::

    python3 benchmarks/e2e/run.py --seed 1 [--trace 1] [--out PATH]

Two such files compared under the bounds in ``BENCHMARK.json``::

    python3 benchmarks/e2e/run.py --compare A.json B.json

``--quick`` shrinks every workload about tenfold (for smoke tests).
The exit code is non-zero when any correctness check failed, and when
``--compare`` finds a metric worse.  See README.md for the protocol.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RUNS = HERE / "runs"

#: Fresh interpreters timed for ``setup_s`` (full run, --quick).
SETUP_PROBES = (7, 2)
#: Repeats measured however short ``--seconds`` is (full run, --quick).
MIN_REPEATS = (3, 2)
#: A traced repeat recording more spans than this has wrapped a
#: function that runs per query or per event.
MAX_SPANS_PER_RUN = 2000
#: Lowest share of a traced repeat its root spans should cover.
MIN_COVERAGE = 0.95


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def import_workloads():
    """Import the workloads module against this checkout's ``src``.

    Refuses to run against any other copy of ``repro``, so a tree that
    holds only the benchmark fails instead of measuring something else.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no simulator sources at {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro
    import workloads

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"run.py: imported repro from {repro.__file__}, "
                         f"not from {SRC}")
    return workloads


# ----------------------------------------------------------------------
# Host measurements
# ----------------------------------------------------------------------
def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: drift in host speed shows
    as drift in this number between the start and end of a run."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    return time.perf_counter() - start


def git_state() -> Tuple[str, Optional[bool]]:
    """(revision, dirty) of the checkout, or ("unknown", None)."""
    if not (ROOT / ".git").exists():
        return "unknown", None
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30,
                             check=True).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
            check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return "unknown", None
    return rev, bool(status.strip())


def provenance() -> dict:
    import numpy

    rev, dirty = git_state()
    return {
        "git": rev,
        "dirty": dirty,
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3), as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def setup_sample(name: str, seed: int, quick: bool) -> float:
    """One ``setup_s`` sample, timed in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(proc.stdout.split()[-1])


def setup_probe(name: str, seed: int, quick: bool) -> None:
    """Time import + config + first estimator, in this fresh process."""
    start = time.perf_counter()
    workloads = import_workloads()
    cls = workloads.WORKLOADS[name]
    workload = cls(seed, cls.queries[quick])
    workload.setup()
    elapsed = time.perf_counter() - start
    workload.close()
    print(repr(elapsed))


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
class Ledger:
    """Benchmark operations attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def run(self, workload, reference: Optional[str], tracer=None):
        """Execute once (timed, collector parked), then check the output.

        Returns ``(outcome, wall seconds)``; the outcome is None when the
        execution raised.
        """
        self.attempted += 1
        try:
            workload.prepare()
            gc.collect()
            gc.disable()
            try:
                with tracer or contextlib.nullcontext():
                    start = time.perf_counter()
                    raw = workload.execute()
                    wall = time.perf_counter() - start
            finally:
                gc.enable()
            outcome = workload.inspect(raw)
            if reference is None:
                outcome.problems.extend(workload.verify(raw))
            elif outcome.digest != reference:
                outcome.problems.append("output digest differs from the "
                                        "cold run")
        except Exception:
            traceback.print_exc()
            self.failed += 1
            self.problems.append(
                f"raised {traceback.format_exc().splitlines()[-1]}")
            return None, 0.0
        if outcome.problems:
            self.failed += 1
            self.problems.extend(outcome.problems)
        return outcome, wall


def metric(value: float, q1: Optional[float] = None,
           q3: Optional[float] = None) -> dict:
    """A measured value with its quartiles (its own value when it is a
    single sample)."""
    return {"value": value, "q1": value if q1 is None else q1,
            "q3": value if q3 is None else q3}


def measure(name: str, seed: int, seconds: float, trace: bool,
            quick: bool) -> dict:
    """Run one workload in this process and return its record."""
    bench = load_benchmark()
    calibration = [calibrate()]
    workloads = import_workloads()
    cls = workloads.WORKLOADS[name]
    gc.collect()
    workload = cls(seed, cls.queries[quick])
    gc.collect()
    ready_mb = workloads.rss_mb()

    ledger = Ledger()
    # The cold run: first execution in this process, the one whose
    # memory is measured, and the one the one-off checks look at.
    cold, cold_s = ledger.run(workload, None)
    peak = workloads.peak_rss_mb() - ready_mb
    if cold is not None:
        peak += workload.worker_growth_mb()
    record = {"workload": name, "seed": seed, "quick": quick,
              "trace": int(trace), "seconds": seconds, "cold_s": cold_s}
    metrics: Dict[str, dict] = {}
    walls: List[float] = []
    setup: List[float] = []
    if cold is not None:
        record["digest"] = cold.digest
        record["sim"] = {name: cold.readings[name]
                         for name in workloads.SIM_READINGS}
        stop = time.perf_counter() + seconds
        min_repeats = MIN_REPEATS[quick]
        if trace:
            metrics = traced_metrics(workload, ledger, cold, stop,
                                     min_repeats, record)
        else:
            # One set-up interpreter after each of the first repeats, so
            # that a slow spell of the host a second or two long hits
            # few of them.  Their time does not count against --seconds.
            while time.perf_counter() < stop or (
                    len(walls) < min_repeats and not ledger.failed):
                outcome, wall = ledger.run(workload, cold.digest)
                if outcome is not None:
                    walls.append(wall)
                if len(setup) < SETUP_PROBES[quick]:
                    start = time.perf_counter()
                    setup.append(setup_sample(name, seed, quick))
                    stop += time.perf_counter() - start
            while walls and len(setup) < SETUP_PROBES[quick]:
                setup.append(setup_sample(name, seed, quick))
            record["samples"] = {"wall_s": walls, "setup_s": setup}
    workload.close()
    if not trace and walls:
        # Every repeat does the same deterministic work (the digest check
        # proves it), so their spread is interference from the host,
        # which only ever adds time: the fastest repeat is the estimate
        # it disturbs least.  The quartiles go in the record beside it.
        q1, _, q3 = quartiles(walls)
        wall = min(walls)
        s1, setup_s, s3 = quartiles(setup)
        metrics = {
            "wall_s": metric(wall, q1, q3),
            "events_per_s": metric(cold.events / wall, cold.events / q3,
                                   cold.events / q1),
            "setup_s": metric(setup_s, s1, s3),
            "peak_rss_mb": metric(peak),
        }
    calibration.append(calibrate())

    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    record.update({
        "correct": ledger.failed == 0 and bool(metrics),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failed_frac": ledger.failed / ledger.attempted,
        "problems": ledger.problems[:20],
        "metrics": {m["name"]: {**metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted} if metrics else {},
        "calibration_s": calibration,
        "provenance": provenance(),
    })
    return record


def traced_metrics(workload, ledger: Ledger, cold, stop: float,
                   min_repeats: int, record: dict) -> Dict[str, dict]:
    """Alternate untraced and traced repeats; per-layer metrics."""
    import spans as spanlib

    tracer = spanlib.Tracer()
    untraced: List[float] = []
    traced: List[float] = []
    while time.perf_counter() < stop or (
            len(traced) < min_repeats and not ledger.failed):
        outcome, wall = ledger.run(workload, cold.digest)
        if outcome is not None:
            untraced.append(wall)
        tracer.run = len(traced)
        first_span = len(tracer.spans)
        outcome, wall = ledger.run(workload, cold.digest, tracer)
        if outcome is None:
            del tracer.spans[first_span:]
            continue
        traced.append(wall)
        if len(tracer.spans) - first_span > MAX_SPANS_PER_RUN:
            ledger.failed += 1
            ledger.problems.append("a traced repeat recorded too many spans: "
                                   "a wrapped function runs per query")
    if not traced or not untraced:
        return {}

    per_run = [spanlib.layer_self_times(tracer.spans, run)
               for run in range(len(traced))]
    coverage = statistics.median(
        spanlib.root_seconds(tracer.spans, run) / wall
        for run, wall in enumerate(traced))
    if coverage < MIN_COVERAGE:
        print(f"warning: root spans cover {coverage:.3f} of traced wall "
              f"time, below {MIN_COVERAGE}", file=sys.stderr)

    metrics: Dict[str, dict] = {}
    for layer in spanlib.LAYERS:
        calls = [stats.get(layer, (0, 0.0))[0] for stats in per_run]
        self_s = [stats.get(layer, (0, 0.0))[1] for stats in per_run]
        share = [s / wall for s, wall in zip(self_s, traced)]
        metrics[f"{layer}.calls"] = metric(statistics.median(calls))
        metrics[f"{layer}.self_s"] = _median_q(self_s)
        metrics[f"{layer}.share"] = _median_q(share)
    for name, value in cold.readings.items():
        metrics[name] = metric(value)
    metrics["trace.overhead_frac"] = metric(min(traced) / min(untraced)
                                            - 1.0)
    metrics["trace.coverage"] = metric(coverage)
    record["samples"] = {"wall_s": untraced, "traced_wall_s": traced}
    record["spans"] = tracer.spans
    return metrics


def _median_q(values: Sequence[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return metric(median, q1, q3)


def print_record(record: dict) -> None:
    status = "ok" if record["correct"] else "FAILED"
    print(f"{record['workload']}  seed={record['seed']}  "
          f"trace={record['trace']}  checks: {record['attempted']} "
          f"operations, {record['failed']} failed ({status})")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    for name, m in record["metrics"].items():
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']:9s} "
              f"(q1 {m['q1']:.6g}, q3 {m['q3']:.6g})")


def result_line(record: dict) -> str:
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in record["metrics"].items()},
    })


# ----------------------------------------------------------------------
# A set: every workload, each in a fresh subprocess
# ----------------------------------------------------------------------
def run_set(names: Sequence[str], seed: int, seconds: float, trace: bool,
            quick: bool, out: Path) -> int:
    calibration = [calibrate()]
    records = {}
    out.parent.mkdir(parents=True, exist_ok=True)
    part = out.with_name(out.name + ".part")
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(int(trace)),
               "--out", str(part)]
        if quick:
            cmd.append("--quick")
        part.unlink(missing_ok=True)
        proc = subprocess.run(cmd, timeout=900)
        if not part.exists():
            print(f"{name}: no record (exit {proc.returncode})",
                  file=sys.stderr)
            return proc.returncode or 1
        records[name] = json.loads(part.read_text(encoding="utf-8"))
        part.unlink()
    calibration.append(calibrate())

    spans = {name: rec.pop("spans") for name, rec in records.items()
             if "spans" in rec}
    payload = {
        "schema": "e2e/v1",
        "seed": seed,
        "trace": int(trace),
        "quick": quick,
        "seconds": seconds,
        "calibration_s": calibration,
        "provenance": provenance(),
        "workloads": records,
    }
    out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    if spans:
        span_path = out.with_name(out.stem + ".spans.json")
        span_path.write_text(json.dumps(spans) + "\n", encoding="utf-8")
        print(f"wrote {span_path}")
    return 0 if all(rec["correct"] for rec in records.values()) else 1


# ----------------------------------------------------------------------
# Compare two sets
# ----------------------------------------------------------------------
def verdict(base: dict, new: dict, bound: float, better: str) -> str:
    """better / same / worse under ``bound`` (a share of the baseline
    value), or unresolved when the baseline's own quartile spread is
    wider than the bound."""
    value = base["value"]
    if value == 0 or (base["q3"] - base["q1"]) / abs(value) > bound:
        return "unresolved"
    gain = (new["value"] - value) / abs(value)
    if better == "lower":
        gain = -gain
    if gain > bound:
        return "better"
    if gain < -bound:
        return "worse"
    return "same"


def compare(path_a: Path, path_b: Path) -> int:
    bench = load_benchmark()
    a = json.loads(path_a.read_text(encoding="utf-8"))
    b = json.loads(path_b.read_text(encoding="utf-8"))
    regressed = False
    for name, ra in a["workloads"].items():
        rb = b["workloads"].get(name)
        if rb is None:
            print(f"{name}: missing from {path_b}")
            continue
        same_inputs = (ra["seed"], ra["quick"]) == (rb["seed"], rb["quick"])
        print(f"{name}")
        for spec in bench["end_to_end"]:
            ma = ra["metrics"].get(spec["name"])
            mb = rb["metrics"].get(spec["name"])
            if ma is None or mb is None:
                continue
            result = verdict(ma, mb, spec["bound"], spec["better"])
            regressed |= result == "worse"
            print(f"  {spec['name']:14s} A {ma['value']:<12.6g} "
                  f"[{ma['q1']:.6g}, {ma['q3']:.6g}]  "
                  f"B {mb['value']:<12.6g} [{mb['q1']:.6g}, {mb['q3']:.6g}]"
                  f"  {result} (bound {spec['bound']:.0%})")
        if same_inputs:
            # Same seed, same inputs: the simulated results must repeat
            # exactly.
            sim_a, sim_b = ra.get("sim", {}), rb.get("sim", {})
            changed = [key for key in sim_a if sim_a[key] != sim_b.get(key)]
            if ra.get("digest") != rb.get("digest"):
                changed.insert(0, "digest")
            regressed |= bool(changed)
            print("  outputs        "
                  + ("changed: " + ", ".join(changed) if changed
                     else "identical"))
        if rb["failed_frac"] > ra["failed_frac"]:
            regressed = True
            print(f"  failed_frac    {ra['failed_frac']:.4g} -> "
                  f"{rb['failed_frac']:.4g}  worse")
        for key, ma in ra["metrics"].items():
            mb = rb["metrics"].get(key)
            if key.endswith(".self_s") and mb is not None and (
                    ma["value"] or mb["value"]):
                print(f"  {key:36s} {ma['value']:.6f} -> {mb['value']:.6f}"
                      f"  ({mb['value'] - ma['value']:+.6f} s)")
    print("worse" if regressed else "no metric worse")
    return 1 if regressed else 0


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names,
                        help="run this workload in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(bench["run_seconds"]),
                        help="measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run, per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="workloads about 10x smaller")
    parser.add_argument("--out", type=Path,
                        help="write the record (one workload) or the set "
                             "(all workloads) here")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("A.json", "B.json"))
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.quick)
        return 0
    if args.workload is None:
        out = args.out or RUNS / (f"set-s{args.seed}"
                                  f"{'-trace' if args.trace else ''}"
                                  f"{'-quick' if args.quick else ''}.json")
        return run_set(names, args.seed, args.seconds, bool(args.trace),
                       args.quick, out)

    record = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.quick)
    if args.out is not None:
        args.out.write_text(json.dumps(record) + "\n", encoding="utf-8")
    print_record(record)
    print(result_line(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
