"""Fault-tolerance smoke benchmark: recovery counters per PR.

Runs the three headline chaos scenarios at benchmark scale and reports
their recovery counters:

- worker SIGKILL mid-round at ``workers=2`` — path multiset must equal
  the uninjected run, with ``recovery.requeued_chunks > 0``;
- checkpoint, abandon, resume — ``TestCaseFound`` multiset must equal
  the crash-free run, with ``checkpoint.resumes == 1``;
- solver deadline storm — the wedged run terminates with
  ``solver.deadline_unknowns > 0``.

Every gate is a counter or a multiset — never wall-clock.
"""

from collections import Counter

from repro.api.events import CheckpointSaved, PathCompleted, TestCaseFound
from repro.api.session import SymbolicSession
from repro.bench.reporting import render_table
from repro.bench.workloads import branchy_source
from repro.chef.options import ChefConfig
from repro.clay import compile_program
from repro.faults import FaultPlan
from repro.parallel.pool import close_shared_pools

_BYTES = 4


def _case_key(case):
    return (
        tuple(sorted((k, tuple(v)) for k, v in case.inputs.items())),
        case.status,
        case.hl_path_signature,
        tuple(case.output),
    )


def _multiset(events, kind):
    return Counter(_case_key(e.case) for e in events if isinstance(e, kind))


def _run(config):
    program = compile_program(branchy_source(_BYTES)).program
    session = SymbolicSession.from_program(program, config)
    events = list(session.events())
    return session, events


def test_fault_tolerance_counters(report, tmp_path):
    close_shared_pools()
    try:
        # -- worker kill mid-round -------------------------------------------
        baseline, base_events = _run(ChefConfig(time_budget=120.0, workers=2))
        close_shared_pools()
        injected, inj_events = _run(
            ChefConfig(
                time_budget=120.0,
                workers=2,
                fault_plan=FaultPlan.from_seed(9, kill_chunk=(1, 1)),
            )
        )
        assert _multiset(inj_events, PathCompleted) == _multiset(
            base_events, PathCompleted
        )
        recovery = injected.metrics()
        assert recovery.get("recovery.worker_crashes", 0) >= 1
        assert recovery.get("recovery.requeued_chunks", 0) > 0

        # -- checkpoint / abandon / resume -----------------------------------
        ckpt_dir = str(tmp_path / "ckpt")
        program = compile_program(branchy_source(_BYTES)).program
        doomed = SymbolicSession.from_program(
            program,
            ChefConfig(
                time_budget=120.0, checkpoint_dir=ckpt_dir, checkpoint_every=4
            ),
        )
        stream = doomed.events()
        for event in stream:
            if isinstance(event, CheckpointSaved):
                break
        stream.close()
        resumed = SymbolicSession.resume(ckpt_dir)
        resumed_events = list(resumed.events())
        assert _multiset(resumed_events, TestCaseFound) == _multiset(
            base_events, TestCaseFound
        )
        ckpt_metrics = resumed.metrics()
        assert ckpt_metrics.get("checkpoint.resumes") == 1

        # -- solver deadline storm -------------------------------------------
        wedged, wedged_events = _run(
            ChefConfig(
                time_budget=60.0,
                solver_deadline_s=0.01,
                fault_plan=FaultPlan(wedge_from_query=2, wedge_seconds=0.05),
            )
        )
        storm = wedged.metrics()
        assert storm.get("solver.deadline_unknowns", 0) > 0
    finally:
        close_shared_pools()

    rows = [
        ["worker kill: paths (=uninjected)", str(injected.result.ll_paths)],
        ["recovery.worker_crashes", str(recovery.get("recovery.worker_crashes"))],
        ["recovery.requeued_chunks", str(recovery.get("recovery.requeued_chunks"))],
        ["checkpoint.saves (resumed run)", str(ckpt_metrics.get("checkpoint.saves", 0))],
        ["checkpoint.resumes", str(ckpt_metrics.get("checkpoint.resumes"))],
        ["deadline storm: paths", str(wedged.result.ll_paths)],
        ["solver.deadline_unknowns", str(storm.get("solver.deadline_unknowns"))],
    ]
    report(
        "Fault tolerance: recovery counters (multiset-gated, no wall-clock)",
        render_table(["scenario / counter", "value"], rows),
    )
