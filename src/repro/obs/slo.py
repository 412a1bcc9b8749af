"""SLO error budgets and multi-window burn-rate accounting.

A class's latency objective — "p99 under ``slo_ms``" — implies an
*error budget*: a ``percentile`` of 99 tolerates 1% of queries being
*bad* (over the SLO, timed out, or rejected).  :class:`ErrorBudget`
tracks good/bad outcomes per service class, and
:class:`SLOAccountant` feeds one budget per class from the terminal
lifecycle events (``QUERY_COMPLETE`` / ``QUERY_TIMEOUT`` /
``QUERY_REJECTED``) of a :class:`~repro.obs.recorder.TraceRecorder`.

The burn rate over a window is ``(bad fraction in window) / (budget
fraction)``: a rate of 1.0 spends the budget exactly at the sustainable
pace, above 1.0 spends it faster.  The classic multi-window alert rule
(fast *and* slow window both burning hot) suppresses blips while still
catching sustained burn quickly; window spans default to fractions of
the observed run (fast = span/20, slow = span/5) so the same code works
on a 2-second smoke run and a 20-minute sweep.

Everything here is derived state over the event stream — ingesting the
same events twice doubles every count, so feed each accountant once.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.events import (
    QUERY_COMPLETE,
    QUERY_REJECTED,
    QUERY_TIMEOUT,
)

#: Default alert threshold: both windows burning at 2x the sustainable
#: pace.  Deliberately lower than production SRE folklore values (14.4)
#: because simulated runs are short and dense.
ALERT_BURN_RATE = 2.0


class ErrorBudget:
    """Good/bad accounting for one service class's latency SLO.

    ``budget_fraction`` is ``1 - percentile / 100``: the fraction of
    queries *allowed* to be bad.  Outcomes are recorded with their event
    time so trailing-window burn rates can be computed after the fact.
    """

    __slots__ = ("class_name", "slo_ms", "percentile", "budget_fraction",
                 "_times", "_bad_times")

    def __init__(self, class_name: str, slo_ms: float,
                 percentile: float = 99.0) -> None:
        if not 0 < percentile < 100:
            raise ConfigurationError(
                f"percentile must be in (0, 100), got {percentile}"
            )
        if slo_ms <= 0:
            raise ConfigurationError(f"slo_ms must be positive, got {slo_ms}")
        self.class_name = class_name
        self.slo_ms = float(slo_ms)
        self.percentile = float(percentile)
        self.budget_fraction = 1.0 - self.percentile / 100.0
        self._times: List[float] = []      # every outcome, in time order
        self._bad_times: List[float] = []  # bad outcomes, in time order

    # ------------------------------------------------------------------
    def record(self, time: float, bad: bool) -> None:
        """Record one terminal outcome at ``time`` (must be fed in
        non-decreasing time order, as event streams are)."""
        self._times.append(time)
        if bad:
            self._bad_times.append(time)

    def record_many(self, times: np.ndarray, bad: np.ndarray) -> None:
        """:meth:`record` for each ``times[i]`` with ``bad[i]``, in
        order."""
        self._times.extend(times.tolist())
        self._bad_times.extend(times[bad].tolist())

    @property
    def total(self) -> int:
        return len(self._times)

    @property
    def bad(self) -> int:
        return len(self._bad_times)

    def bad_fraction(self) -> float:
        return self.bad / self.total if self.total else 0.0

    def budget_consumed(self) -> float:
        """Fraction of the error budget spent (may exceed 1.0)."""
        return self.bad_fraction() / self.budget_fraction

    def budget_remaining(self) -> float:
        """1.0 = untouched budget, 0.0 = exactly spent, negative = blown."""
        return 1.0 - self.budget_consumed()

    # ------------------------------------------------------------------
    def _window_counts(self, window_ms: float, now: float) -> Tuple[int, int]:
        start = now - window_ms
        total = (bisect.bisect_right(self._times, now)
                 - bisect.bisect_left(self._times, start))
        bad = (bisect.bisect_right(self._bad_times, now)
               - bisect.bisect_left(self._bad_times, start))
        return total, bad

    def burn_rate(self, window_ms: float, now: float) -> float:
        """Error-budget burn rate over the trailing window ending at
        ``now``: 1.0 spends the budget exactly at the sustainable pace.
        Empty windows burn at 0.0."""
        if window_ms <= 0:
            raise ConfigurationError(
                f"window_ms must be positive, got {window_ms}"
            )
        total, bad = self._window_counts(window_ms, now)
        if total == 0:
            return 0.0
        return (bad / total) / self.budget_fraction


class SLOAccountant:
    """Per-class error budgets fed from terminal lifecycle events.

    Parameters
    ----------
    classes:
        Mapping of class name to ``(slo_ms, percentile)``, or any
        iterable of objects with ``name`` / ``slo_ms`` / ``percentile``
        attributes (e.g. :class:`repro.types.ServiceClass`).
    """

    def __init__(self, classes) -> None:
        self.budgets: Dict[str, ErrorBudget] = {}
        if isinstance(classes, Mapping):
            for name, (slo_ms, percentile) in classes.items():
                self.budgets[name] = ErrorBudget(name, slo_ms, percentile)
        else:
            for cls in classes:
                self.budgets[cls.name] = ErrorBudget(
                    cls.name, cls.slo_ms, cls.percentile)
        if not self.budgets:
            raise ConfigurationError("need at least one service class")
        self._first_time: Optional[float] = None
        self._last_time: Optional[float] = None

    # ------------------------------------------------------------------
    def ingest(self, recorder) -> int:
        """Feed every terminal event from a recorder; returns the number
        of outcomes absorbed.  Events for unknown classes are skipped
        (merged traces may carry classes this accountant doesn't track).
        """
        cols = recorder.columns()
        rows = cols.rows(QUERY_COMPLETE, QUERY_TIMEOUT, QUERY_REJECTED)
        class_code = cols.class_code[rows]
        budgets = [self.budgets.get(name) for name in cols.class_names]
        tracked = np.array([b is not None for b in budgets], bool)[class_code]
        rows, class_code = rows[tracked], class_code[tracked]
        if not len(rows):
            return 0
        slo = np.array([b.slo_ms if b is not None else np.inf
                        for b in budgets])[class_code]
        has_latency, latency = cols.extra_values("latency", rows)
        completed = cols.type_code[rows] == cols.type_names.index(
            QUERY_COMPLETE)
        bad = ~completed | ~has_latency | (latency > slo)
        times = cols.time[rows]
        for code in np.unique(class_code).tolist():
            mine = class_code == code
            budgets[code].record_many(times[mine], bad[mine])
        if self._first_time is None:
            self._first_time = float(times[0])
        self._last_time = float(times[-1])
        return len(rows)

    @classmethod
    def from_result(cls, result) -> "SLOAccountant":
        """Build and feed an accountant from a traced
        :class:`~repro.cluster.results.SimulationResult`."""
        if result.obs is None:
            raise ConfigurationError(
                "result has no trace recorder; run with a TraceRecorder "
                "to enable SLO accounting"
            )
        accountant = cls(result.classes)
        accountant.ingest(result.obs)
        return accountant

    # ------------------------------------------------------------------
    @property
    def span_ms(self) -> float:
        """Time between the first and last ingested outcome."""
        if self._first_time is None or self._last_time is None:
            return 0.0
        return self._last_time - self._first_time

    def windows(self, fast_ms: Optional[float] = None,
                slow_ms: Optional[float] = None) -> Dict[str, float]:
        """The (fast, slow) window spans, defaulting to span/20 and
        span/5 of the ingested stream."""
        span = self.span_ms
        fast = fast_ms if fast_ms is not None else max(span / 20.0, 1e-9)
        slow = slow_ms if slow_ms is not None else max(span / 5.0, 1e-9)
        if fast > slow:
            raise ConfigurationError(
                f"fast window ({fast}) must not exceed slow window ({slow})"
            )
        return {"fast": fast, "slow": slow}

    def burn_rates(self, fast_ms: Optional[float] = None,
                   slow_ms: Optional[float] = None
                   ) -> Dict[str, Dict[str, float]]:
        """Per-class burn rate over both trailing windows, anchored at
        the last ingested outcome."""
        spans = self.windows(fast_ms, slow_ms)
        now = self._last_time if self._last_time is not None else 0.0
        return {
            name: {window: budget.burn_rate(span, now)
                   for window, span in spans.items()}
            for name, budget in self.budgets.items()
        }

    def alerts(self, threshold: float = ALERT_BURN_RATE,
               fast_ms: Optional[float] = None,
               slow_ms: Optional[float] = None) -> Dict[str, bool]:
        """Multi-window alert per class: fires only when *both* windows
        burn above the threshold."""
        rates = self.burn_rates(fast_ms, slow_ms)
        return {
            name: (windows["fast"] > threshold
                   and windows["slow"] > threshold)
            for name, windows in rates.items()
        }

    # ------------------------------------------------------------------
    def to_json(self, fast_ms: Optional[float] = None,
                slow_ms: Optional[float] = None) -> Dict[str, Any]:
        """JSON-ready accounting snapshot."""
        spans = self.windows(fast_ms, slow_ms)
        rates = self.burn_rates(fast_ms, slow_ms)
        alerts = self.alerts(fast_ms=fast_ms, slow_ms=slow_ms)
        classes: Dict[str, Any] = {}
        for name, budget in self.budgets.items():
            classes[name] = {
                "slo_ms": budget.slo_ms,
                "percentile": budget.percentile,
                "budget_fraction": budget.budget_fraction,
                "total": budget.total,
                "bad": budget.bad,
                "bad_fraction": budget.bad_fraction(),
                "budget_consumed": budget.budget_consumed(),
                "budget_remaining": budget.budget_remaining(),
                "burn_rate": rates[name],
                "alert": alerts[name],
            }
        return {"span_ms": self.span_ms, "windows_ms": spans,
                "classes": classes}

    def to_prometheus(self, fast_ms: Optional[float] = None,
                      slow_ms: Optional[float] = None) -> str:
        """Prometheus text exposition of the accounting state."""
        rates = self.burn_rates(fast_ms, slow_ms)
        lines = [
            "# HELP tailguard_slo_queries_total Terminal query outcomes.",
            "# TYPE tailguard_slo_queries_total counter",
        ]
        for name, budget in self.budgets.items():
            lines.append(
                f'tailguard_slo_queries_total{{class="{name}"}} '
                f'{budget.total}')
        lines += [
            "# HELP tailguard_slo_bad_total Outcomes that violated the SLO.",
            "# TYPE tailguard_slo_bad_total counter",
        ]
        for name, budget in self.budgets.items():
            lines.append(
                f'tailguard_slo_bad_total{{class="{name}"}} {budget.bad}')
        lines += [
            "# HELP tailguard_slo_budget_remaining Error budget left "
            "(1 = untouched, <0 = blown).",
            "# TYPE tailguard_slo_budget_remaining gauge",
        ]
        for name, budget in self.budgets.items():
            lines.append(
                f'tailguard_slo_budget_remaining{{class="{name}"}} '
                f'{budget.budget_remaining():.6g}')
        lines += [
            "# HELP tailguard_slo_burn_rate Error-budget burn rate over "
            "a trailing window (1 = sustainable pace).",
            "# TYPE tailguard_slo_burn_rate gauge",
        ]
        for name, windows in rates.items():
            for window, rate in windows.items():
                lines.append(
                    f'tailguard_slo_burn_rate{{class="{name}",'
                    f'window="{window}"}} {rate:.6g}')
        return "\n".join(lines) + "\n"
