"""Typed metrics: counters, gauges, histograms and their registry.

This is the data half of the observability subsystem (the span tracer
lives in :mod:`repro.obs.telemetry`).  A :class:`MetricsRegistry` owns
every metric of one engine context.  The per-layer stats holders
(``SolverStats`` in ``solver/csp.py``, ``EngineStats`` in
``lowlevel/executor.py`` and the :class:`~repro.solver.cache.ModelCache`
counters) keep plain ``int`` attributes that the hot paths bump
directly.  Each holder registers itself once with
:meth:`~MetricsRegistry.attach`, and :meth:`~MetricsRegistry.snapshot`
reads the attributes when it is taken.  So *one* registry reports the
numbers of every layer — benchmarks, ``Session.metrics()`` and the
parallel coordinator all read the same snapshots instead of
re-plumbing their own dicts.

Naming convention: dotted ``<component>.<counter>`` names
(``solver.queries``, ``cache.hits``, ``engine.forks``,
``span.solver.check``); :func:`split_prefixed` recovers the legacy
per-component dicts from a snapshot.

Snapshots are plain JSON-able dicts; :func:`merge_snapshots` folds any
number of them (numbers add, histogram dicts merge), which is how
per-worker registries aggregate to run totals without bespoke
summation code in the coordinator.

This module deliberately imports nothing from the engine so every layer
can depend on it without cycles.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_snapshots",
    "split_prefixed",
]


class Counter:
    """Monotonic integer counter (mutable ``value`` for hot paths)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """Last-written value (sizes, frontier depth, cache entries)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Streaming distribution summary with slowest-observation capture.

    Tracks count/sum/min/max plus the ``keep_slowest`` largest
    observations with their labels — the span tracer feeds per-query
    wall times here, so the slowest solver queries of a run survive in
    the summary with enough context to find them again.
    """

    __slots__ = ("name", "count", "total", "min", "max", "keep_slowest", "slowest")

    def __init__(self, name: str, keep_slowest: int = 0):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.keep_slowest = keep_slowest
        #: (value, label) pairs, largest value first.
        self.slowest: List[Tuple[float, Optional[str]]] = []

    def observe(self, value: float, label: Optional[str] = None) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if self.keep_slowest:
            slowest = self.slowest
            if len(slowest) < self.keep_slowest or value > slowest[-1][0]:
                slowest.append((value, label))
                slowest.sort(key=lambda pair: -pair[0])
                del slowest[self.keep_slowest:]

    def snapshot(self) -> Dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "slowest": [list(pair) for pair in self.slowest],
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count}, sum={self.total:.6f})"


class MetricsRegistry:
    """Name → metric store; the single bookkeeping surface of a context.

    ``counter``/``gauge``/``histogram`` create on first use and return
    the existing instance afterwards (asking for a name under a
    different type raises — a name means one thing).  Stats holders
    with plain ``int`` attributes :meth:`attach` instead, and are read
    at :meth:`snapshot` time.
    """

    def __init__(self):
        self._metrics: Dict[str, object] = {}
        #: prefix → (object, attribute names) read by snapshot().
        self._attached: Dict[str, Tuple[object, Tuple[str, ...]]] = {}

    def _get(self, name: str, cls, *args):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name, *args)
        elif type(metric) is not cls:
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}, "
                f"requested {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str, keep_slowest: int = 0) -> Histogram:
        return self._get(name, Histogram, keep_slowest)

    def attach(self, prefix: str, obj, fields: Sequence[str]) -> None:
        """Report ``obj.<field>`` as ``<prefix>.<field>`` in every snapshot.

        The attributes are read when :meth:`snapshot` runs, so the
        owner keeps bumping plain ints on its hot paths.  A prefix
        names one object: attaching a second one under it raises.
        """
        held = self._attached.get(prefix)
        if held is not None:
            raise TypeError(
                f"prefix {prefix!r} already attached to {type(held[0]).__name__}"
            )
        self._attached[prefix] = (obj, tuple(fields))

    def snapshot(self) -> Dict:
        """Flat JSON-able view: numbers for counters/gauges and attached
        attributes, dicts for histograms."""
        out: Dict = {}
        for prefix, (obj, fields) in self._attached.items():
            for field in fields:
                out[f"{prefix}.{field}"] = getattr(obj, field)
        for name, metric in self._metrics.items():
            if isinstance(metric, Histogram):
                out[name] = metric.snapshot()
            else:
                out[name] = metric.value
        return out


def merge_snapshots(snapshots) -> Dict:
    """Fold registry snapshots into totals (numbers add, histograms merge).

    This is the one aggregation path for parallel runs: each worker
    ships its registry snapshot, the coordinator folds them here.
    Gauges add too — for the gauges we keep (cache entries), the sum
    over disjoint worker caches is the meaningful pool-wide total.
    """
    merged: Dict = {}
    for snap in snapshots:
        for name, value in snap.items():
            if isinstance(value, dict):
                into = merged.setdefault(
                    name, {"count": 0, "sum": 0.0, "min": None, "max": None, "slowest": []}
                )
                into["count"] += value.get("count", 0)
                into["sum"] += value.get("sum", 0.0)
                for bound, pick in (("min", min), ("max", max)):
                    v = value.get(bound)
                    if v is not None:
                        into[bound] = v if into[bound] is None else pick(into[bound], v)
                slowest = into["slowest"] + [list(p) for p in value.get("slowest", [])]
                slowest.sort(key=lambda pair: -pair[0])
                into["slowest"] = slowest[:8]
            else:
                merged[name] = merged.get(name, 0) + value
    return merged


def split_prefixed(snapshot: Dict, prefix: str) -> Dict:
    """Legacy per-component dict from a flat snapshot.

    ``split_prefixed(snap, "solver")`` returns ``{"queries": ..., ...}``
    — exactly the shape ``SolverStats.as_dict()`` reports, so
    benchmarks and CI gates consume the registry's numbers verbatim.
    """
    dot = prefix + "."
    return {
        name[len(dot):]: value
        for name, value in snapshot.items()
        if name.startswith(dot) and not isinstance(value, dict)
    }

