"""Per-layer self time, measured around calls into each layer's public API.

:class:`LayerTracer` replaces public methods and functions with timing
wrappers for the length of a ``with`` block.  The wrappers keep one stack
of open calls, so a layer's *self* time is its call's duration minus the
part of it that nested wrapped calls cover: the time of a solver query
made inside ``LowLevelEngine.run_path`` counts as solver time, not as
low-level time.  Self times of all layers therefore never overlap, and
their sum is the wrapped share of the run's wall time.

No code under ``src/`` is changed; only the benchmark's own process is
affected, and the originals are restored on exit.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict, List, Tuple

_clock = time.perf_counter


class LayerTracer:
    """Wrap ``(owner, attribute, layer)`` targets and sum self times."""

    def __init__(self, targets: List[Tuple[object, str, str]]):
        self._targets = targets
        self._saved: List[Tuple[object, str, object]] = []
        #: layer → seconds spent in the layer itself (children excluded).
        self.self_s: Dict[str, float] = defaultdict(float)
        #: layer → number of wrapped calls.
        self.calls: Dict[str, int] = defaultdict(int)
        #: child time accumulated by each open call, innermost last.
        self._stack: List[float] = []

    def _wrap(self, original, layer: str):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        def timed(*args, **kwargs):
            stack.append(0.0)
            start = _clock()
            try:
                return original(*args, **kwargs)
            finally:
                duration = _clock() - start
                self_s[layer] += duration - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += duration

        return timed

    def __enter__(self) -> "LayerTracer":
        for owner, attribute, layer in self._targets:
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, layer))
        return self

    def __exit__(self, *_exc) -> bool:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()
        return False


def _subclasses(base) -> List[type]:
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            found.append(sub)
            todo.append(sub)
    return found


def chef_targets() -> List[Tuple[object, str, str]]:
    """The public layer boundaries of an in-process Chef run.

    Strategies and solver backends are wrapped on every subclass that
    defines the method itself, so each override is covered.
    """
    import repro.interpreters.pylite.engine as pylite_engine
    from repro.chef.hltree import HighLevelCfg, HighLevelTree
    from repro.chef.strategies import SearchStrategy
    from repro.lowlevel.executor import LowLevelEngine
    from repro.solver.backend import SolverBackend

    targets: List[Tuple[object, str, str]] = []
    for cls in _subclasses(SearchStrategy):
        for method, layer in (("select", "chef.select"), ("add", "chef.add")):
            if method in cls.__dict__:
                targets.append((cls, method, layer))
    for cls in _subclasses(SolverBackend):
        if "check" in cls.__dict__:
            targets.append((cls, "check", "solver.check"))
    targets += [
        (LowLevelEngine, "run_path", "lowlevel.run_path"),
        (LowLevelEngine, "activate", "lowlevel.activate"),
        (HighLevelTree, "advance", "chef.hltree"),
        (HighLevelTree, "record_path", "chef.hltree"),
        (HighLevelCfg, "observe", "chef.hltree"),
        (pylite_engine, "compile_pylite", "frontend.compile"),
    ]
    return targets
