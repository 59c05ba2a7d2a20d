"""Disabled-telemetry overhead guard for the hot dispatch loop.

The instrumentation contract (docs/architecture.md, "Observability") is
that spans sit at *batch* granularity — one per executed path, per
solver query, per snapshot codec call — never per interpreted
instruction, and that with tracing disabled a span site costs a single
``telemetry.enabled`` branch (the hot sites in the executor and solver
all use that guard; unguarded call sites get the shared no-op span).
This microbenchmark holds the engine to that: a dispatch-shaped loop
(one guarded span site per simulated path of ``_OPS_PER_PATH`` integer
ops) must stay within 5% of the same loop with no telemetry at all.

Timing runs the two loops in ``_PAIRS`` back-to-back pairs, alternating
which side runs first, and asserts on the median of the per-pair
ratios.  Each ratio compares two runs taken moments apart, so a slow
phase of the host scales both sides of a pair alike, and the median
discards the pairs a scheduler hiccup hit on one side only.

The mechanism is pinned without timing: a disabled ``Telemetry.span``
call returns the ``NULL_SPAN`` singleton, and under ``tracemalloc`` the
instrumented loop allocates exactly what the plain loop does — the
disabled span site allocates nothing.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

from repro.bench.perfjson import update_bench_json
from repro.bench.reporting import render_table
from repro.obs.telemetry import NULL_SPAN, Telemetry

_PATHS = 400
_OPS_PER_PATH = 1000
_PAIRS = 21

#: ≤5% on the dispatch microbench — the ISSUE acceptance bar.
_MAX_OVERHEAD = 0.05


def _plain_workload(paths: int = _PATHS) -> int:
    acc = 0
    for _path in range(paths):
        for op in range(_OPS_PER_PATH):
            acc += op & 7
    return acc


def _instrumented_workload(telemetry: Telemetry, paths: int = _PATHS) -> int:
    # Mirrors the engine's hot-site pattern exactly (run_path, check):
    # guard on the enabled flag, only build a span when tracing is on.
    acc = 0
    for path in range(paths):
        if telemetry.enabled:
            with telemetry.span("engine.run_path", sid=path):
                for op in range(_OPS_PER_PATH):
                    acc += op & 7
        else:
            for op in range(_OPS_PER_PATH):
                acc += op & 7
    return acc


def _timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def _paired_times(telemetry: Telemetry):
    """``(plain_s, instrumented_s)`` per pair, alternating the lead."""
    pairs = []
    for index in range(_PAIRS):
        if index % 2 == 0:
            plain = _timed(_plain_workload)
            instrumented = _timed(_instrumented_workload, telemetry)
        else:
            instrumented = _timed(_instrumented_workload, telemetry)
            plain = _timed(_plain_workload)
        pairs.append((plain, instrumented))
    return pairs


def _traced_memory(fn, *args):
    """``(retained, peak)`` bytes one warm call of ``fn`` allocates."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        fn(*args)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return after - before, peak - before


def test_disabled_span_site_allocates_nothing():
    telemetry = Telemetry(enabled=False)
    assert telemetry.span("engine.run_path", sid=0) is NULL_SPAN
    assert _traced_memory(_instrumented_workload, telemetry, 8) == _traced_memory(
        _plain_workload, 8
    )


def test_disabled_telemetry_overhead(benchmark, report):
    telemetry = Telemetry(enabled=False)

    # Warm both code paths before timing.
    _plain_workload()
    _instrumented_workload(telemetry)

    pairs = benchmark.pedantic(_paired_times, args=(telemetry,), rounds=1, iterations=1)
    overhead = statistics.median(i / p for p, i in pairs) - 1.0
    plain = statistics.median(p for p, _ in pairs)
    instrumented = statistics.median(i for _, i in pairs)

    report(
        "Disabled-telemetry overhead on a dispatch-shaped loop "
        f"({_PATHS} paths x {_OPS_PER_PATH} ops, one span site per path, "
        f"median of {_PAIRS} interleaved pairs)",
        render_table(
            ["metric", "value"],
            [
                ["plain median (ms)", f"{plain * 1e3:.3f}"],
                ["instrumented median (ms)", f"{instrumented * 1e3:.3f}"],
                ["overhead (median pair ratio)", f"{overhead * 100:.2f}%"],
                ["budget", f"{_MAX_OVERHEAD * 100:.0f}%"],
            ],
        ),
    )
    update_bench_json(
        "obs_disabled_overhead",
        {
            "paths": _PATHS,
            "ops_per_path": _OPS_PER_PATH,
            "pairs": _PAIRS,
            "plain_median_s": round(plain, 6),
            "instrumented_median_s": round(instrumented, 6),
            "overhead_fraction": round(overhead, 4),
            "budget_fraction": _MAX_OVERHEAD,
        },
    )

    assert overhead <= _MAX_OVERHEAD, (
        f"disabled telemetry costs {overhead * 100:.2f}% on the dispatch "
        f"microbench (budget {_MAX_OVERHEAD * 100:.0f}%) — a span site is "
        "supposed to be one branch when tracing is off"
    )
