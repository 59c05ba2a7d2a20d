"""Chef end-to-end benchmark: two workloads, untraced or traced.

Run from the repository root::

    python3 chefbench/run.py --workload pylite_packs --seed 1 --seconds 60 --trace 0

Workloads (why each was chosen is recorded in ``BENCHMARK.json``):

- ``pylite_packs``: the three PyLite scenario packs (turnstile 9 chars,
  parseint 64, rle 3), serial through ``Session("pylite", ...)``.
- ``service_parallel``: ``deep_traced_source(11)`` submitted to a
  ``python -m repro.service serve --workers 2`` daemon over one Unix-socket
  connection, events streamed as JSON lines to exhaustion.

Each repetition runs in a fresh interpreter (``rep.py``); with
``--trace 0`` repetitions run back to back, closed loop, until
``--seconds`` is used up, and every end-to-end metric is the median over
them.  With ``--trace 1`` the run alternates two untraced and two traced
repetitions, adds a scaling sweep of the Clay guest (``deep_traced_source``
at 8..12 symbolic bytes, serial ``cupa-path``, where CUPA selection
dominates) and reports the per-layer metrics.  Every repetition's outputs
are checked against the workload's oracle, and its work counts must repeat
exactly across repetitions of one seed.

The last line of standard output is the result object; a copy with
provenance (source digest, Python version, CPU count, calibration time)
is written under ``.bench_out/`` in the working directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("pylite_packs", "service_parallel")

#: end-to-end metrics and their units.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "first_case_s": "s",
    "case_gap_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

#: work counts compared across repetitions of one seed.
DETERMINISTIC = (
    "solver.queries",
    "solver.search_steps",
    "solver.atoms_sliced",
    "lowlevel.instrs_executed",
    "chef.select_calls",
    "ll_paths",
    "hl_paths",
)

#: per-layer metrics every traced run reports (0 where a layer is idle).
PER_LAYER_UNITS = {
    "chef.select_s": "s",
    "chef.select_calls": "count",
    "chef.select_us_per_call": "us",
    "chef.add_s": "s",
    "chef.hltree_s": "s",
    "chef.hl_per_ll": "ratio",
    "lowlevel.run_path_self_s": "s",
    "lowlevel.instrs_executed": "count",
    "lowlevel.ns_per_instr": "ns",
    "lowlevel.activate_self_s": "s",
    "frontend.compile_s": "s",
    "frontend.lvm_instrs": "count",
    "clay.compile_s": "s",
    "solver.check_s": "s",
    "solver.queries": "count",
    "solver.us_per_query": "us",
    "solver.search_steps": "count",
    "solver.atoms_sliced": "count",
    "solver.atoms_per_query": "ratio",
    "solver.cache_hit_ratio": "ratio",
    "parallel.encode_s": "s",
    "parallel.decode_s": "s",
    "parallel.worker_run_path_s": "s",
    "parallel.ship_wait_s": "s",
    "parallel.merge_s": "s",
    "parallel.transport_ratio": "ratio",
    "parallel.classify_steps": "count",
    "parallel.rounds": "count",
    "parallel.pool_spawns": "count",
    "parallel.program_ships": "count",
    "service.session_s": "s",
    "service.first_event_s": "s",
    "service.events": "count",
    "service.wire_bytes": "bytes",
    "service.client_decode_s": "s",
    "service.overhead_s": "s",
    "obs.trace_overhead": "ratio",
    "traced_wall_s": "s",
    "unattributed_s": "s",
    "chef.select_s.exp": "slope",
    "solver.check_s.exp": "slope",
    "lowlevel.run_path_self_s.exp": "slope",
}

#: symbolic byte counts of the scaling sweep (2**8 .. 2**12 paths).
SWEEP = (8, 9, 10, 11, 12)
#: distinct repetition seeds a run cycles through.
SEEDS_PER_RUN = 4
#: untraced/traced repetition pairs of a traced run.
TRACE_PAIRS = 2
#: seconds after start by which every repetition must have ended.
RUN_LIMIT_S = 170.0
STARTED = time.monotonic()


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, a repetition died)."""


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_rep(workload: str, seed: int, mode: str, n: Optional[int] = None) -> Dict:
    """Run one repetition in a fresh interpreter and return its result."""
    command = [
        sys.executable, os.path.join(HERE, "rep.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
    ]
    if n is not None:
        command += ["--n", str(n)]
    # A repetition may start a daemon and workers: its own process group
    # lets one signal stop all of them if it overruns or we are stopped.
    proc = subprocess.Popen(
        command, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, start_new_session=True,
    )
    timeout = max(RUN_LIMIT_S - (time.monotonic() - STARTED), 1.0)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} repetition overran the run limit") from exc
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    lines = stdout.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(stderr.decode("utf-8", "replace"))
        raise BenchError(f"{workload} {mode} repetition failed ({proc.returncode})")
    return json.loads(lines[-1])


# -- checks ------------------------------------------------------------------


def fail_whole(rep: Dict) -> None:
    """Count every expected case of a repetition as failed."""
    rep["failed"] = rep["expected"]


def check_determinism(reps: List[Dict], seeds: List[int]) -> None:
    """Fail every repetition whose digest or counts differ from its seed's first.

    ``seeds[i]`` is the seed of ``reps[i]``.  A repetition that disagrees
    with the first repetition of its seed on its path-multiset digest, or
    on any work count that both report, fails as a whole.
    """
    firsts: Dict[int, Dict] = {}
    for rep, seed in zip(reps, seeds):
        first = firsts.setdefault(seed, rep)
        if first is rep:
            continue
        same = rep["digest"] == first["digest"] and all(
            rep["counts"].get(k) == first["counts"].get(k)
            for k in DETERMINISTIC
            if k in rep["counts"] and k in first["counts"]
        )
        if not same:
            fail_whole(rep)


# -- provenance ------------------------------------------------------------------


def calibration_s() -> float:
    """Best of three timings of a fixed pure-Python loop."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) % 1_000_003
        best = min(best, time.perf_counter() - start)
    return best


def source_digest() -> str:
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode("utf-8"))
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def git_sha() -> Optional[str]:
    """Commit of the checkout, or None where it is not a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.decode().strip()


def provenance() -> Dict:
    return {
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_s": calibration_s(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# -- modes ------------------------------------------------------------------------


def rep_seed(seed: int, index: int) -> int:
    """Seed of repetition ``index``, derived from the run's seed.

    A run cycles through ``SEEDS_PER_RUN`` seeds: repetitions that share
    one give the determinism check runs to compare, and a run's medians
    span several seeded instances, so no single exploration order decides
    them.
    """
    return seed * 1000 + index % SEEDS_PER_RUN


def measure(workload: str, seed: int, seconds: float) -> Dict:
    """Closed-loop repetitions for ``seconds``; medians of each metric."""
    reps: List[Dict] = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        reps.append(run_rep(workload, rep_seed(seed, len(reps)), "plain"))
        now = time.monotonic()
        # Stop when one more repetition like the last would overrun; every
        # seed of the cycle must have run, and the first one twice.
        if len(reps) > SEEDS_PER_RUN and (now - start) + (now - began) > seconds:
            break
    seeds = [rep_seed(seed, index) for index in range(len(reps))]
    check_determinism(reps, seeds)
    if workload == "service_parallel":
        # The daemon must produce exactly the serial path multiset.
        serial = {s: run_rep(workload, s, "serial")["digest"] for s in set(seeds)}
        for rep, derived in zip(reps, seeds):
            if rep["digest"] != serial[derived]:
                fail_whole(rep)
    failed = sum(rep["failed"] for rep in reps)
    attempted = sum(rep["expected"] for rep in reps)
    metrics = {
        name: {"value": statistics.median(rep[name] for rep in reps), "unit": unit}
        for name, unit in END_TO_END.items()
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": {
            "repetitions": len(reps),
            "failed_ratio": failed / attempted,
            "gaps": sum(len(rep["gaps"]) for rep in reps),
            "per_repetition": {name: [rep[name] for rep in reps] for name in END_TO_END},
            "counts": [rep["counts"] for rep in reps],
            "digests": [rep["digest"] for rep in reps],
        },
    }


def _loglog_slope(xs: List[float], ys: List[float]) -> float:
    """Least-squares slope of log(y) against log(x): the scaling exponent."""
    return statistics.linear_regression(
        [math.log(x) for x in xs], [math.log(y) for y in ys]
    ).slope


def sweep(seed: int) -> Dict[str, float]:
    points = [run_rep("clay", seed, "sweep", n=n) for n in SWEEP]
    paths = [p["counts"]["ll_paths"] for p in points]
    return {
        f"{name}.exp": _loglog_slope(paths, [p["layers"][name] for p in points])
        for name in ("chef.select_s", "solver.check_s", "lowlevel.run_path_self_s")
    }


def trace(workload: str, seed: int) -> Dict:
    """Per-layer metrics: untraced and traced repetitions in turn, the sweep.

    Layer numbers are medians over the traced repetitions; the tracing
    overhead compares them with the untraced ones run in between.
    """
    seed = rep_seed(seed, 0)
    plain, traced = [], []
    for _ in range(TRACE_PAIRS):
        plain.append(run_rep(workload, seed, "plain"))
        traced.append(run_rep(workload, seed, "traced"))
    reps = traced + plain
    check_determinism(reps, [seed] * len(reps))
    failed = sum(rep["failed"] for rep in reps)
    layers = {name: 0.0 for name in PER_LAYER_UNITS}
    for name in traced[0]["layers"]:
        layers[name] = statistics.median(rep["layers"][name] for rep in traced)
    plain_wall = statistics.median(rep["wall_s"] for rep in plain)
    layers["obs.trace_overhead"] = layers["traced_wall_s"] / plain_wall - 1.0
    if workload == "service_parallel":
        in_process = run_rep(workload, seed, "workers2")["wall_s"]
        layers["service.overhead_s"] = plain_wall - in_process
    layers.update(sweep(seed))
    attempted = sum(rep["expected"] for rep in reps)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": layers[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        },
        "detail": {
            "repetitions": len(reps),
            "failed_ratio": failed / attempted,
            "counts": traced[0]["counts"],
        },
    }


def _print_table(workload: str, result: Dict) -> None:
    print(f"# {workload}: {result['detail']['repetitions']} repetitions, "
          f"failed_ratio {result['detail']['failed_ratio']:.6g}")
    for name, metric in result["metrics"].items():
        print(f"#   {name:32s} {metric['value']:>14.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so the running repetition is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            result = trace(args.workload, args.seed)
        else:
            result = measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result["detail"]["elapsed_s"] = time.monotonic() - STARTED
    _print_table(args.workload, result)
    out_dir = os.path.join(ROOT, ".bench_out", "results")
    os.makedirs(out_dir, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  provenance=provenance())
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
