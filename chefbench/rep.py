"""One repetition of one workload, run in a fresh interpreter.

``run.py`` starts this script once per repetition, so every repetition
begins with cold process-wide state (model cache, intern table) and its
peak resident memory is its own.  The last line of standard output is one
JSON object with the repetition's measurements.

    python3 chefbench/rep.py --workload pylite_packs --seed 1 --mode plain

Modes: ``plain`` (end-to-end timing, no tracing), ``traced`` (the same
run with layer wrappers or, for the service, the daemon's own spans),
``workers2`` and ``serial`` (the service's program in-process at two
workers and serially), and ``sweep`` (the Clay guest at ``--n`` symbolic
bytes, serial and traced, whatever ``--workload`` says).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402  (needs the benchmark directory on sys.path)
from layers import LayerTracer, chef_targets  # noqa: E402

from repro.api.events import PathCompleted, RunFinished, TestCaseFound  # noqa: E402
from repro.api.session import Session  # noqa: E402
from repro.chef.options import ChefConfig  # noqa: E402
from repro.clay import compile_program  # noqa: E402

clock = time.perf_counter

#: set-up is short, so it is repeated and its median reported.
SETUP_REPEATS = 9
#: daemon worker processes for the service workload.
SERVICE_WORKERS = 2


def _config(seed: int, **overrides) -> ChefConfig:
    return ChefConfig(
        strategy=W.STRATEGY, seed=seed, time_budget=W.TIME_BUDGET_S, **overrides
    )


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p99_ms(gaps: List[float]) -> float:
    """99th percentile of the gaps between test cases, in milliseconds."""
    return statistics.quantiles(gaps, n=100)[98] * 1000.0


class StreamTiming:
    """Consumer-side timing of one or more event streams, back to back.

    ``first_case_s`` is the time from claiming a stream to its first
    ``TestCaseFound``, averaged over the streams; ``gaps`` are the
    intervals between consecutive test cases across all of them.
    """

    def __init__(self):
        self.first_cases: List[float] = []
        self.gaps: List[float] = []
        self.wall_s = 0.0
        self.peak_rss_mb = 0.0
        #: per stream: (TestCaseFound cases, PathCompleted cases, RunResult).
        self.streams: List[tuple] = []

    def consume(self, makers: Iterable[Callable[[], Iterable]]) -> "StreamTiming":
        start = clock()
        last = None
        for make in makers:
            found, completed, result = [], [], None
            claimed = clock()
            for event in make():
                if isinstance(event, TestCaseFound):
                    now = clock()
                    if not found:
                        self.first_cases.append(now - claimed)
                    if last is not None:
                        self.gaps.append(now - last)
                    last = now
                    found.append(event.case)
                elif isinstance(event, PathCompleted):
                    completed.append(event.case)
                elif isinstance(event, RunFinished):
                    result = event.result
            self.streams.append((found, completed, result))
        self.wall_s = clock() - start
        # Read before any oracle runs, so the peak is the workload's own.
        self.peak_rss_mb = _peak_rss_mb()
        return self

    def end_to_end(self) -> Dict[str, float]:
        return {
            "wall_s": self.wall_s,
            "first_case_s": statistics.fmean(self.first_cases),
            "case_gap_p99_ms": p99_ms(self.gaps),
            "gaps": self.gaps,
            "peak_rss_mb": self.peak_rss_mb,
        }


def _counts(results) -> Dict[str, int]:
    """Work counts that must repeat exactly across runs of one seed."""
    return {
        "solver.queries": sum(r.solver_stats.get("queries", 0) for r in results),
        "solver.search_steps": sum(r.solver_stats.get("search_steps", 0) for r in results),
        "solver.atoms_sliced": sum(r.solver_stats.get("atoms_sliced", 0) for r in results),
        "lowlevel.instrs_executed": sum(
            r.engine_stats.get("instrs_executed", 0) for r in results
        ),
        "ll_paths": sum(r.ll_paths for r in results),
        "hl_paths": sum(r.hl_paths for r in results),
    }


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def _complete_layers(
    layers: Dict, counts: Dict, cache_hits: int, cache_misses: int, dispatch_s: float
) -> Dict:
    """Add the work counts and the per-unit ratios to a layer report.

    ``dispatch_s`` is the time charged to LVM dispatch, from which
    ``lowlevel.ns_per_instr`` is derived.
    """
    for name in (
        "solver.queries", "solver.search_steps", "solver.atoms_sliced",
        "lowlevel.instrs_executed", "chef.select_calls",
    ):
        layers[name] = counts[name]
    queries = counts["solver.queries"]
    layers["solver.us_per_query"] = _ratio(layers["solver.check_s"], queries, 1e6)
    layers["solver.atoms_per_query"] = _ratio(counts["solver.atoms_sliced"], queries)
    layers["solver.cache_hit_ratio"] = _ratio(cache_hits, cache_hits + cache_misses)
    layers["chef.select_us_per_call"] = _ratio(
        layers["chef.select_s"], counts["chef.select_calls"], 1e6
    )
    layers["chef.hl_per_ll"] = _ratio(counts["hl_paths"], counts["ll_paths"])
    layers["lowlevel.ns_per_instr"] = _ratio(
        dispatch_s, counts["lowlevel.instrs_executed"], 1e9
    )
    return layers


def _cache_counts(results) -> tuple:
    return (
        sum(r.solver_stats.get("cache_hits", 0) for r in results),
        sum(r.solver_stats.get("cache_misses", 0) for r in results),
    )


def _layer_report(tracer: LayerTracer, wall_s: float) -> Dict[str, float]:
    """Self time per layer; what no wrapper covered is ``unattributed_s``."""
    self_s = tracer.self_s
    return {
        "chef.select_s": self_s["chef.select"],
        "chef.add_s": self_s["chef.add"],
        "chef.hltree_s": self_s["chef.hltree"],
        "lowlevel.run_path_self_s": self_s["lowlevel.run_path"],
        "lowlevel.activate_self_s": self_s["lowlevel.activate"],
        "solver.check_s": self_s["solver.check"],
        "traced_wall_s": wall_s,
        "unattributed_s": wall_s - sum(self_s.values()),
    }


@contextlib.contextmanager
def _maybe_traced(traced: bool):
    if traced:
        with LayerTracer(chef_targets()) as tracer:
            yield tracer
    else:
        yield None


def _take(tracer: Optional[LayerTracer]) -> Dict[str, float]:
    """Return and clear the tracer's self times (set-up vs. run)."""
    if tracer is None:
        return {}
    taken = dict(tracer.self_s)
    tracer.self_s.clear()
    tracer.calls.clear()
    return taken


def _serial_report(
    tracer: Optional[LayerTracer], timing: StreamTiming, results, setups, keys, failed, expected
) -> Dict:
    """The repetition record shared by the in-process workloads."""
    counts = _counts(results)
    out = {
        "setup_s": statistics.median(setups),
        **timing.end_to_end(),
        "expected": expected,
        "failed": failed,
        "digest": W.multiset_digest(keys),
        "counts": counts,
    }
    if tracer is not None:
        counts["chef.select_calls"] = tracer.calls["chef.select"]
        layers = _layer_report(tracer, timing.wall_s)
        out["layers"] = _complete_layers(
            layers, counts, *_cache_counts(results),
            dispatch_s=layers["lowlevel.run_path_self_s"],
        )
    return out


# -- workloads ------------------------------------------------------------------


def rep_clay(seed: int, traced: bool, n: int) -> Dict:
    source = W.clay_source(n, seed)
    config = _config(seed)
    setups, compiles = [], []
    with _maybe_traced(traced) as tracer:
        for _ in range(SETUP_REPEATS):
            start = clock()
            program = compile_program(source).program
            compiled = clock()
            session = Session.from_program(program, config)
            setups.append(clock() - start)
            compiles.append(compiled - start)
        _take(tracer)
        timing = StreamTiming().consume([session.events])
    (found, completed, result), = timing.streams
    failed = sum(
        1 for case in found if case.output != W.clay_expected_output(case.inputs["b0"])
    )
    failed += W.multiset_failures(
        (W.clay_class(case.inputs) for case in found), W.clay_expected_classes(n)
    )
    keys = [W.case_key(c) for c in completed]
    out = _serial_report(tracer, timing, [result], setups, keys, failed, 1 << n)
    if traced:
        out["layers"]["clay.compile_s"] = statistics.median(compiles)
    return out


def rep_pylite(seed: int, traced: bool) -> Dict:
    sources = W.pylite_sources(seed)
    config = _config(seed)
    setups = []
    with _maybe_traced(traced) as tracer:
        for _ in range(SETUP_REPEATS):
            start = clock()
            sessions = [Session("pylite", text, config) for _name, text in sources]
            setups.append(clock() - start)
        setup_layers = _take(tracer)
        timing = StreamTiming().consume([s.events for s in sessions])
    # The CPython replay oracle runs outside the timed region.
    failed = 0
    keys = []
    results = []
    for (name, _text), session, (found, completed, result) in zip(
        sources, sessions, timing.streams
    ):
        results.append(result)
        failed += sum(
            1 for r in session.engine.differential_sweep(result.suite) if not r.matches
        )
        classify, expected = W.PYLITE_ORACLES[name]
        data = [case.inputs["b0"] for case in found]
        failed += W.multiset_failures(
            (classify(values) for values in data), expected(W.PYLITE_LENGTHS[name])
        )
        keys += [(name,) + W.case_key(c) for c in completed]
    out = _serial_report(
        tracer, timing, results, setups, keys, failed, W.pylite_expected_cases()
    )
    if traced:
        out["layers"]["frontend.compile_s"] = (
            setup_layers.get("frontend.compile", 0.0) / SETUP_REPEATS
        )
        out["layers"]["frontend.lvm_instrs"] = sum(
            len(fn.instrs)
            for session in sessions
            for fn in session.engine.build_program().functions.values()
        )
    return out


def rep_workers2(seed: int) -> Dict:
    """The service's program in-process at two workers (overhead base)."""
    program = compile_program(W.clay_source(W.SERVICE_BYTES, seed)).program
    session = Session.from_program(program, _config(seed, workers=SERVICE_WORKERS))
    try:
        timing = StreamTiming().consume([session.events])
    finally:
        Session.close_worker_pools()
    return {"wall_s": timing.wall_s}


def rep_service(seed: int, traced: bool) -> Dict:
    import service

    from repro.service.protocol import path_event_key

    out_dir = os.path.join(os.getcwd(), ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    config = {
        "strategy": W.STRATEGY,
        "seed": seed,
        "time_budget": W.TIME_BUDGET_S,
        "max_ll_paths": 1 << W.SERVICE_BYTES,
    }
    source = W.clay_source(W.SERVICE_BYTES, seed)
    start = clock()
    with service.Daemon(out_dir, SERVICE_WORKERS, traced) as daemon:
        daemon.warm_up(W.clay_source(4, seed + 1), config)
        setup_s = clock() - start
        stats_before = daemon.stats()
        run = daemon.run(source, config)
        stats = daemon.stats()
        peak_rss_mb = daemon.peak_rss_mb()
    failed = sum(
        1 for c in run.cases if c["output"] != W.clay_expected_output(c["inputs"]["b0"])
    )
    failed += W.multiset_failures(
        (W.clay_class(c["inputs"]) for c in run.cases),
        W.clay_expected_classes(W.SERVICE_BYTES),
    )
    keys = [path_event_key(message) for message in run.completed]
    metrics = run.metrics
    counts = {
        "solver.queries": metrics.get("solver.queries", 0),
        "solver.search_steps": metrics.get("solver.search_steps", 0),
        "solver.atoms_sliced": metrics.get("solver.atoms_sliced", 0),
        "lowlevel.instrs_executed": metrics.get("engine.instrs_executed", 0),
        "ll_paths": run.result.get("ll_paths", 0),
        "hl_paths": run.result.get("hl_paths", 0),
    }
    out = {
        "setup_s": setup_s,
        "wall_s": run.wall_s,
        "first_case_s": run.first_case_s,
        "case_gap_p99_ms": p99_ms(run.gaps),
        "gaps": run.gaps,
        "peak_rss_mb": peak_rss_mb,
        "expected": 1 << W.SERVICE_BYTES,
        "failed": failed,
        "digest": W.multiset_digest(keys),
        "counts": counts,
    }
    if traced:
        layers = service.layer_report(run, metrics, stats, stats_before)
        counts["chef.select_calls"] = layers.pop("chef.select_calls")
        out["layers"] = _complete_layers(
            layers, counts, metrics.get("cache.hits", 0), metrics.get("cache.misses", 0),
            dispatch_s=layers["parallel.worker_run_path_s"],
        )
        # The daemon compiles the guest out of sight; time the same
        # compilation here.
        compiles = []
        for _ in range(SETUP_REPEATS):
            began = clock()
            compile_program(source)
            compiles.append(clock() - began)
        out["layers"]["clay.compile_s"] = statistics.median(compiles)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", choices=("plain", "traced", "workers2", "serial", "sweep"),
        default="plain",
    )
    parser.add_argument("--n", type=int, help="symbolic bytes of the sweep's Clay guest")
    args = parser.parse_args(argv)
    traced = args.mode == "traced"
    if args.mode == "sweep":
        if args.n is None:
            parser.error("--mode sweep needs --n")
        out = rep_clay(args.seed, True, n=args.n)
    elif args.mode == "workers2":
        out = rep_workers2(args.seed)
    elif args.mode == "serial":
        out = rep_clay(args.seed, False, n=W.SERVICE_BYTES)
    elif args.workload == "pylite_packs":
        out = rep_pylite(args.seed, traced)
    elif args.workload == "service_parallel":
        out = rep_service(args.seed, traced)
    else:
        parser.error(f"unknown workload {args.workload!r}")
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
