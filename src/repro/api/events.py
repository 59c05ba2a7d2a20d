"""Typed events streamed by a :class:`~repro.api.session.SymbolicSession`.

The event *set* of a run is scheduling-independent: the parallel
coordinator merges worker results in deterministic chunk order, so for
exhaustive runs the multiset of :class:`PathCompleted` /
:class:`TestCaseFound` events is identical at every worker count (event
*order* within a round is unspecified).  This module is deliberately
dependency-free so every layer of the engine can import it without
cycles; ``case``/``result`` fields are duck-typed
(:class:`repro.chef.testcase.TestCase` and
:class:`repro.chef.engine.RunResult` in practice).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class SessionEvent:
    """Base class of every event yielded by ``Session.events()``."""


@dataclass(frozen=True)
class PathCompleted(SessionEvent):
    """One low-level path terminated and was recorded as a test case.

    Discarded terminal statuses (infeasible alternates, solver
    timeouts, deadline artifacts) never produce this event.
    """

    case: Any  # TestCase


@dataclass(frozen=True)
class TestCaseFound(SessionEvent):
    """The path was the first to exercise a new *high-level* path.

    Every ``TestCaseFound`` is paired with the :class:`PathCompleted`
    for the same :class:`~repro.chef.testcase.TestCase`; the set of
    these events is the high-level test suite.
    """

    __test__ = False  # pytest: not a test class despite the Test* name

    case: Any  # TestCase


@dataclass(frozen=True)
class BatchMerged(SessionEvent):
    """Parallel mode: one worker chunk was merged by the coordinator.

    Emitted once per (round, chunk) in deterministic chunk order;
    serial runs (``workers=1``) never emit it.
    """

    round_no: int
    chunk_index: int
    records: int
    pending: int


@dataclass(frozen=True)
class MetricsUpdated(SessionEvent):
    """Periodic metrics-registry snapshot (dotted-name → value dict).

    Serial runs emit one after every completed path;
    parallel runs emit one per merged round (pool-wide worker totals).
    Every stream emits a final one just before :class:`RunFinished`.
    Unlike the path events, these are *progress* telemetry: their count
    and payloads are timing/scheduling-dependent, so determinism
    comparisons must filter them out.
    """

    metrics: Any  # Dict[str, int | float | dict]


@dataclass(frozen=True)
class StateQuarantined(SessionEvent):
    """A pending state was quarantined after crashing workers repeatedly.

    Lost-chunk recovery requeues the states a dead worker held; a state
    that takes a worker down ``quarantine_threshold`` times is dropped
    from the frontier instead of killing the run, and its coordinates
    are surfaced here.  ``recovery.quarantined_states`` counts these.
    """

    #: high-level program counter of the state, if known (else -1).
    hlpc: int
    #: number of worker crashes blamed on this state.
    crashes: int


@dataclass(frozen=True)
class CheckpointSaved(SessionEvent):
    """A crash-consistent campaign checkpoint was written to disk.

    Emitted once per checkpoint cadence in parallel/serial runs with
    ``checkpoint_dir`` set; ``checkpoint.saves`` counts them.
    """

    path: str
    #: pending frontier states captured in the checkpoint.
    frontier: int
    #: completed test cases captured in the checkpoint.
    cases: int


@dataclass(frozen=True)
class BudgetExhausted(SessionEvent):
    """Exploration stopped because a budget ran out (not frontier drain).

    ``reason`` is ``"time"``, ``"ll-paths"`` or ``"hl-paths"``.
    """

    reason: str


@dataclass(frozen=True)
class RunFinished(SessionEvent):
    """Terminal event of every stream; carries the complete RunResult."""

    result: Any  # RunResult
