"""Parallel-exploration benchmark: persistent pool vs the serial loop.

Scales the branchy workload of ``test_solver_incremental`` up to 12
input bytes (4096 feasible paths) and explores it twice: the classic
in-process loop (``workers=1``) and the sharded coordinator over the
persistent worker pool (``workers=4`` by default).  Asserts the
properties that must hold on any machine — the two runs explore the
*identical* path set, cross-worker model-cache merging produces real
reuse (merged-delta hits > 0), and the Program image ships to the pool
exactly once across all parallel runs in this process — and asserts
the ≥2× wall-clock speedup only when the host actually has the cores
to show it (single-core CI runners measure pure IPC overhead; the CI
smoke job pins assertions to path sets and counter ratios for exactly
that reason).

A second, *traced* parallel run feeds :func:`phase_totals`, so the
report shows where the parallel wall-clock goes — snapshot
ship/decode/encode, delta merge, coordinator-side merge — next to the
headline ratio.  ``test_classification_suffix_ratio`` runs the
deep-traced workload (interpreter-startup-shaped trace prefix) through
the full Chef pipeline and gates the O(since-restore-suffix) pending
classification: tree steps must undercut full-trace replay ≥10×.

The stat dicts are prefix views of the obs metrics registry — the
same numbers ``Session.metrics()`` reports — and wall-clock ratios go
through :func:`speedup_summary`, which labels sub-1× runs
"overhead-bound" instead of calling them a speedup.
"""

import os

from repro.api.session import SymbolicSession
from repro.bench.perfjson import phase_totals, speedup_summary
from repro.bench.reporting import render_table
from repro.bench.workloads import branchy_source, deep_traced_source
from repro.chef.options import ChefConfig
from repro.clay import compile_program
from repro.lowlevel.executor import ExecutorConfig, LowLevelEngine
from repro.obs.telemetry import Telemetry
from repro.parallel import ParallelExplorer, shared_worker_pool
from repro.solver.cache import ModelCache
from repro.solver.csp import CspSolver

#: 12 bytes = 4096 feasible paths (scaled down via env for CI smoke).
_BYTES = int(os.environ.get("REPRO_BENCH_PARALLEL_BYTES", "12"))
_WORKERS = int(os.environ.get("REPRO_BENCH_PARALLEL_WORKERS", "4"))
_MAX_STATES = 1 << (_BYTES + 2)


def test_parallel_speedup(benchmark, report):
    compiled = compile_program(branchy_source(_BYTES))

    def run():
        serial_engine = LowLevelEngine(
            compiled.program,
            solver=CspSolver(cache=ModelCache()),
            config=ExecutorConfig(),
        )
        serial = serial_engine.explore(max_states=_MAX_STATES)
        explorer = ParallelExplorer(
            compiled.program,
            workers=_WORKERS,
            config=ExecutorConfig(),
            batch_size=64,
        )
        parallel = explorer.explore(max_states=_MAX_STATES)
        return serial, parallel

    serial, parallel = benchmark.pedantic(run, rounds=1, iterations=1)

    # One extra run with tracing on: the timed runs above stay span-free
    # (honest wall-clock), this one attributes the parallel time to
    # phases.  Same pool, same Program content — ship count must not
    # move.
    traced_explorer = ParallelExplorer(
        compiled.program,
        workers=_WORKERS,
        config=ExecutorConfig(),
        batch_size=64,
        telemetry=Telemetry(enabled=True),
    )
    traced = traced_explorer.explore(max_states=_MAX_STATES)
    coordinator_phases = phase_totals(traced_explorer.telemetry.registry.snapshot())
    worker_phases = phase_totals(traced_explorer.merged_metrics())
    pool = shared_worker_pool(_WORKERS)

    speedup = serial.wall_time / parallel.wall_time if parallel.wall_time else 0.0
    cpu_count = os.cpu_count() or 1
    merged_hits = parallel.cache_stats.get("merged_hits", 0)
    merged_stores = parallel.cache_stats.get("merged_stores", 0)
    summary = speedup_summary(serial.wall_time, {_WORKERS: parallel.wall_time})
    label = summary["runs"][0]["label"]

    rows = [
        ["paths (serial)", len(serial.records)],
        ["paths (parallel)", len(parallel.records)],
        ["path sets identical", serial.path_set() == parallel.path_set()],
        ["workers", parallel.workers],
        ["batches", parallel.batches],
        ["serial wall (s)", f"{serial.wall_time:.3f}"],
        ["parallel wall (s)", f"{parallel.wall_time:.3f}"],
        ["wall ratio", f"{speedup:.2f}x ({label})"],
        ["host cores", cpu_count],
        ["pool spawns / program ships", f"{pool.spawns} / {pool.program_ships}"],
        ["ship wall (s, traced run)",
         f"{coordinator_phases.get('parallel.ship', {}).get('total_s', 0.0):.3f}"],
        ["merge wall (s, traced run)",
         f"{coordinator_phases.get('parallel.merge', {}).get('total_s', 0.0):.3f}"],
        ["worker decode/encode (s)",
         f"{worker_phases.get('snapshot.decode', {}).get('total_s', 0.0):.3f}"
         f" / {worker_phases.get('snapshot.encode', {}).get('total_s', 0.0):.3f}"],
        ["merged-delta stores", merged_stores],
        ["merged-delta hits", merged_hits],
        ["serial solver queries", serial.solver_stats.get("queries", 0)],
        ["parallel solver queries", parallel.solver_stats.get("queries", 0)],
    ]
    report(
        f"Pooled parallel exploration on a {_BYTES}-byte branchy guest "
        f"({len(serial.records)} paths, {_WORKERS} workers)",
        render_table(["metric", "value"], rows),
    )

    # Portable acceptance bar: identical exploration + real cross-worker
    # cache flow + ship-once pooling, regardless of host core count.
    assert len(serial.records) == 1 << _BYTES, len(serial.records)
    assert serial.path_set() == parallel.path_set()
    assert traced.path_set() == parallel.path_set()
    assert merged_stores > 0, parallel.cache_stats
    assert merged_hits > 0, parallel.cache_stats
    # Both parallel runs (timed + traced) leased the same warm pool and
    # shipped content-identical Program images: one spawn set, one ship.
    assert pool.spawns == _WORKERS, (pool.spawns, _WORKERS)
    assert pool.program_ships == 1, pool.program_ships
    assert pool.configures >= 2, pool.configures
    # The traced run recorded every phase it claims to attribute.
    for phase in ("parallel.ship", "parallel.merge"):
        assert coordinator_phases.get(phase, {}).get("count", 0) > 0, phase
    for phase in ("snapshot.decode", "snapshot.encode", "worker.merge_delta"):
        assert worker_phases.get(phase, {}).get("count", 0) > 0, phase
    # The wall-clock claim is ">=2x at 4 workers"; it needs hardware
    # that can actually run the workers concurrently (a 1-core container
    # measures pure IPC overhead) and at least the 4-worker fan-out (2
    # workers cap below 2x by construction).
    if _WORKERS >= 4 and cpu_count >= _WORKERS:
        assert speedup >= 2.0, (
            f"expected >=2x speedup at {_WORKERS} workers on {cpu_count} cores, "
            f"got {speedup:.2f}x"
        )


def test_classification_suffix_ratio(report):
    """Chef pending classification is O(suffix): ≥10× under full replay.

    The deep-traced guest front-loads a 64-report HLPC prelude before
    the branch cascade — the interpreter-startup shape where every
    path's full trace is long but each since-restore suffix is short.
    ``coordinator.classify_full_trace`` accumulates what trace replay
    would walk per pending state; ``coordinator.classify_steps`` is
    what suffix grafting actually walked.
    """
    session = SymbolicSession.from_program(
        compile_program(deep_traced_source(_BYTES)).program,
        ChefConfig(time_budget=600.0, workers=_WORKERS),
    )
    result = session.run()
    metrics = session.metrics()
    steps = metrics["coordinator.classify_steps"]
    full = metrics["coordinator.classify_full_trace"]
    states = metrics["coordinator.classify_states"]
    ratio = full / steps if steps else 0.0

    rows = [
        ["paths", result.ll_paths],
        ["hl paths", result.hl_paths],
        ["states classified", states],
        ["suffix tree steps", steps],
        ["full-trace equivalent", full],
        ["reduction", f"{ratio:.1f}x"],
    ]
    report(
        f"O(suffix) pending classification on the {_BYTES}-byte deep-traced "
        f"guest ({_WORKERS} workers)",
        render_table(["metric", "value"], rows),
    )

    assert result.ll_paths == 1 << _BYTES, result.ll_paths
    assert states > 0 and steps > 0
    assert ratio >= 10.0, (
        f"classification walked {steps} tree steps where full-trace replay "
        f"would walk {full} ({ratio:.1f}x); the PR gate is >=10x"
    )
