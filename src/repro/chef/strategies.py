"""State-selection strategies: random baseline and the two CUPA instances.

- :class:`RandomStrategy` — uniform over pending states (the paper's
  baseline configuration).
- :class:`PathCupaStrategy` — §3.3: two CUPA levels, (1) dynamic HLPC of
  the fork point in the unfolded high-level tree, (2) low-level PC of the
  forking instruction.
- :class:`CoverageCupaStrategy` — §3.4: classes by static HLPC, weighted
  ``1/d`` by CFG distance to the nearest potential branching point; within
  a class, states are weighted by fork weight (p = 0.75), favouring the
  most recent fork at a given low-level location.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from repro.chef.cupa import CupaTree
from repro.chef.hltree import HighLevelCfg
from repro.lowlevel.executor import State


class SearchStrategy:
    """Interface shared by all strategies."""

    def add(self, state: State) -> None:
        raise NotImplementedError

    def select(self) -> Optional[State]:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def pending(self) -> list:
        """Every pending item, left in place (checkpoint capture).

        Read-only: neither the frontier nor the selection RNG changes,
        so a checkpointed run explores in the same order as one without.
        """
        raise NotImplementedError


class RandomStrategy(SearchStrategy):
    """Uniformly random selection over all pending states."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._states: list = []

    def add(self, state: State) -> None:
        self._states.append(state)

    def select(self) -> Optional[State]:
        if not self._states:
            return None
        index = self._rng.randrange(len(self._states))
        self._states[index], self._states[-1] = self._states[-1], self._states[index]
        return self._states.pop()

    def __len__(self) -> int:
        return len(self._states)

    def pending(self) -> list:
        return list(self._states)


class PathCupaStrategy(SearchStrategy):
    """Path-optimized CUPA (§3.3)."""

    def __init__(self, rng: random.Random):
        self._tree = CupaTree(
            classifiers=[
                lambda s: s.meta.get("dyn_node", 0),   # dynamic HLPC
                lambda s: s.fork_ll_pc or 0,           # low-level x86-equivalent PC
            ],
            rng=rng,
        )

    def add(self, state: State) -> None:
        self._tree.add(state)

    def select(self) -> Optional[State]:
        return self._tree.select()

    def __len__(self) -> int:
        return len(self._tree)

    def pending(self) -> list:
        return self._tree.states()


class CoverageCupaStrategy(SearchStrategy):
    """Coverage-optimized CUPA (§3.4)."""

    def __init__(self, rng: random.Random, cfg: HighLevelCfg, fork_weight_p: float = 0.75):
        self._cfg = cfg
        self._p = fork_weight_p
        self._group_max: Dict[Tuple[int, int], int] = {}
        self._tree = CupaTree(
            classifiers=[lambda s: s.meta.get("static_hlpc", 0)],
            rng=rng,
            weight_fns=[self._hlpc_weight],
        )

    def _hlpc_weight(self, hlpc, _level: int) -> float:
        distance = self._cfg.distance_to_uncovered(hlpc)
        return 1.0 / (1.0 + distance)

    def _fork_weight(self, state: State) -> float:
        group = state.fork_group
        if group is None:
            return 1.0
        latest = self._group_max.get(group, state.fork_index)
        return self._p ** max(latest - state.fork_index, 0)

    def add(self, state: State) -> None:
        group = state.fork_group
        if group is not None:
            current = self._group_max.get(group, 0)
            if state.fork_index > current:
                self._group_max[group] = state.fork_index
        self._tree.add(state)

    def select(self) -> Optional[State]:
        return self._tree.select(self._fork_weight)

    def __len__(self) -> int:
        return len(self._tree)

    def pending(self) -> list:
        return self._tree.states()


def make_strategy(
    name: str,
    rng: random.Random,
    cfg: HighLevelCfg,
    fork_weight_p: float = 0.75,
) -> SearchStrategy:
    """Factory keyed by the ChefConfig.strategy field."""
    if name == "random":
        return RandomStrategy(rng)
    if name == "cupa-path":
        return PathCupaStrategy(rng)
    if name == "cupa-cov":
        return CoverageCupaStrategy(rng, cfg, fork_weight_p)
    raise ValueError(f"unknown strategy {name!r} (random, cupa-path, cupa-cov)")
