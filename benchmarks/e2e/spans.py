"""Outside-in spans around the public entry points of each layer.

The traced run of the benchmark wraps a fixed set of public functions —
each called once per run, shard or probe, never per query or event —
records one span per call, and restores the originals afterwards.
Nothing in ``src/`` knows it is being traced.

A span is ``(name, layer, start, end, parent, run)``: the wrapped
function, the layer it belongs to, ``perf_counter`` times, the index
of the enclosing span (``-1`` for a root span) and the repeat it was
recorded in.  A layer's self time is the time inside its spans minus
the time inside their child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: (layer, owner, attribute).  ``owner`` is a module, or ``module:Class``
#: for methods.  Module functions are rebound in every ``repro`` module
#: that imported them by name, so ``from x import f`` callers see the
#: wrapper too.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("workloads.generator", "repro.workloads.generator",
     "generate_query_arrays"),
    ("workloads.generator", "repro.workloads.generator", "generate_queries"),
    ("cluster.config", "repro.cluster.config:ClusterConfig",
     "resolve_server_cdfs"),
    ("core.deadline", "repro.core.deadline:DeadlineEstimator", "__init__"),
    ("core.deadline", "repro.core.deadline:DeadlineEstimator",
     "budget_table"),
    ("cluster.simulation", "repro.cluster.simulation", "simulate"),
    ("cluster.faultsim", "repro.cluster.faultsim", "simulate_with_faults"),
    ("federation.simulation", "repro.federation.simulation",
     "simulate_federation"),
    ("federation.router", "repro.federation.router", "route_queries"),
    ("experiments.maxload", "repro.experiments.maxload", "find_max_load"),
    ("experiments.parallel", "repro.experiments.parallel",
     "run_simulations"),
    ("experiments.parallel", "repro.experiments.parallel", "probe_feasible"),
    ("cluster.results", "repro.cluster.results:SimulationResult", "merge"),
    ("cluster.results", "repro.cluster.results:SimulationResult",
     "meets_all_slos"),
    ("obs.attribution", "repro.cluster.results:SimulationResult",
     "attribution_summary"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in TARGETS))

#: Index of each field in a span.
NAME, LAYER, START, END, PARENT, RUN = range(6)


class Tracer:
    """Installs the wrappers, collects spans, and restores the originals.

    Use as a context manager around one traced repeat; ``run`` tags the
    spans recorded inside it.  Spans accumulate across repeats.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.run = 0
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1,
                    self.run]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def __enter__(self) -> "Tracer":
        for layer, owner, attr in TARGETS:
            module_name, _, class_name = owner.partition(":")
            module = importlib.import_module(module_name)
            name = f"{owner.replace(':', '.')}.{attr}"
            if class_name:
                cls = getattr(module, class_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, layer,
                                                     raw.__func__))
                else:
                    wrapped = self._wrap(name, layer, raw)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, layer, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "repro"
                                       or mod_name.startswith("repro.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        self._stack.clear()


def layer_self_times(spans: Sequence[Sequence], run: Optional[int] = None
                     ) -> Dict[str, Tuple[int, float]]:
    """``{layer: (calls, self seconds)}`` over the spans of one run
    (``None``: all runs).  ``parent`` fields index ``spans``.

    Child spans of one parent never overlap (one thread, strictly
    nested calls), so the covered part of a span is the sum of its
    children's durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    out: Dict[str, Tuple[int, float]] = {}
    for span, inner in zip(spans, covered):
        if run is not None and span[RUN] != run:
            continue
        calls, self_s = out.get(span[LAYER], (0, 0.0))
        out[span[LAYER]] = (calls + 1,
                            self_s + (span[END] - span[START]) - inner)
    return out


def root_seconds(spans: Sequence[Sequence], run: Optional[int] = None
                 ) -> float:
    """Total duration of the root spans (those without a parent)."""
    return sum(span[END] - span[START] for span in spans
               if span[PARENT] < 0 and (run is None or span[RUN] == run))
