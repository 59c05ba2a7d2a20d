"""Backtracking CSP solver with interval propagation.

This is the reproduction's constraint solver (the paper uses STP through
S2E), implementing the :class:`~repro.solver.backend.SolverBackend`
protocol over :class:`~repro.solver.constraints.ConstraintSet` inputs.
Path-condition atoms are integer expressions over finite-domain input
variables; the solver decides satisfiability by:

1. reusing the constraint set's known-model chain — a query whose atoms
   extend an already-satisfied ancestor set first re-checks only the new
   atoms against the ancestor's model (the incremental fast path),
2. normalising atoms to comparisons,
3. splitting the query into independent connected components, adopting
   the ancestor model wholesale for components no new atom touches
   (independence slicing) and consulting the engine-wide
   :class:`~repro.solver.cache.ModelCache` per component,
4. tightening per-variable domains from single-variable affine atoms,
5. depth-first search with concrete checks and interval pruning.

Search effort is budgeted in deterministic *steps*; exceeding the budget
raises :class:`~repro.errors.SolverTimeout` from :meth:`CspSolver.solve`
(and surfaces as :data:`~repro.solver.backend.UNKNOWN` from
:meth:`CspSolver.check`), which the engine treats as a discarded state
(the paper's completeness caveat, §3.1).  Hash-function constraints
remain genuinely hard here, exactly as they are for STP — this preserves
the motivation for the paper's hash-neutralisation optimisation (§4.2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import SolverDeadline, SolverTimeout
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import Telemetry
from repro.lowlevel.expr import (
    BinExpr,
    COMPARISONS,
    Expr,
    Sym,
    UnExpr,
    evaluate,
    mk_binop,
    negate_condition,
)
from repro.solver.backend import CheckResult, SAT, SolverBackend, UNKNOWN, UNSAT
from repro.solver.cache import (
    ModelCache,
    UNSAT as UNSAT_ENTRY,
    global_model_cache,
)
from repro.solver.constraints import ConstraintSet
from repro.solver.interval import Interval, interval_eval

#: Default search budget (value-assignment attempts per query).
DEFAULT_BUDGET = 12_000

#: Cap used by max_value when nothing bounds the expression.
DEFAULT_MAX_CAP = 1 << 20

Constraints = Union[ConstraintSet, Sequence]


#: Counter fields, reported as ``solver.<field>`` by the obs registry.
#: ``incremental_hits`` counts queries answered (fully or partly) from a
#: known ancestor model; ``component_cache_hits`` counts components
#: resolved from the engine-wide model cache; ``atoms_sliced`` counts
#: atoms never (re)solved because independence slicing adopted the
#: ancestor model for their whole component.
_STAT_FIELDS = (
    "queries",
    "sat",
    "unsat",
    "timeouts",
    "deadline_unknowns",
    "search_steps",
    "cex_reuses",
    "max_value_queries",
    "incremental_hits",
    "component_cache_hits",
    "atoms_sliced",
)

#: How many search steps run between wall-clock deadline checks — the
#: deadline is a degradation bound, not a precise timer, and checking
#: ``time.monotonic()`` per step would dominate small searches.
_DEADLINE_STRIDE = 128


class SolverStats:
    """Counters accumulated across queries (reported by benchmarks).

    Plain ``int`` attributes, attached to an obs
    :class:`~repro.obs.metrics.MetricsRegistry` as ``solver.*`` — the
    registry that backs ``Session.metrics()``, so there is exactly one
    set of numbers.
    """

    __slots__ = ("registry",) + _STAT_FIELDS

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        for field_name in _STAT_FIELDS:
            setattr(self, field_name, 0)
        self.registry.attach("solver", self, _STAT_FIELDS)

    def as_dict(self) -> Dict[str, int]:
        return {field_name: getattr(self, field_name) for field_name in _STAT_FIELDS}


@dataclass
class _Component:
    names: List[str] = field(default_factory=list)
    constraints: List[Expr] = field(default_factory=list)


def _is_boolean_valued(expr, memo: dict) -> bool:
    """True when ``expr`` can only evaluate to 0 or 1."""
    if not isinstance(expr, Expr):
        return expr in (0, 1)
    key = id(expr)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(expr, Sym):
        result = expr.lo >= 0 and expr.hi <= 1
    elif isinstance(expr, UnExpr):
        result = expr.op == "lnot"
    else:
        assert isinstance(expr, BinExpr)
        if expr.op in COMPARISONS or expr.op in ("land", "lor"):
            result = True
        elif expr.op in ("and", "or", "xor"):
            memo[key] = False  # guard against (impossible) cycles
            result = _is_boolean_valued(expr.a, memo) and _is_boolean_valued(expr.b, memo)
        else:
            result = False
    memo[key] = result
    return result


def _normalise(constraints: Sequence) -> Optional[List[Expr]]:
    """Return comparison-shaped atoms, or None if trivially UNSAT.

    Conjunctions are decomposed: branch-free guest code (fast-path-
    eliminated string comparison) produces conditions like
    ``(c0==97)&(c1==98)&... == 1``; splitting them into per-character
    atoms lets interval propagation solve them without search.
    """
    atoms: List[Expr] = []
    seen = set()
    bool_memo: dict = {}
    work = list(constraints)
    while work:
        c = work.pop()
        if not isinstance(c, Expr):
            if c == 0:
                return None
            continue
        if isinstance(c, UnExpr) and c.op == "lnot":
            c = mk_binop("eq", c.a, 0)
        elif not (isinstance(c, BinExpr) and (c.op in COMPARISONS or c.op in ("land", "lor"))):
            c = mk_binop("ne", c, 0)
        if not isinstance(c, Expr):
            if c == 0:
                return None
            continue
        # Decompose truthy conjunctions and falsy disjunctions.  Operands
        # are pushed back raw (or properly negated); the loop's own
        # normalisation turns them into comparison atoms.
        if isinstance(c, BinExpr):
            if c.op == "land":
                work.append(c.a)
                work.append(c.b)
                continue
            if (
                c.op == "ne"
                and not isinstance(c.b, Expr)
                and c.b == 0
                and isinstance(c.a, BinExpr)
                and c.a.op == "and"
                and _is_boolean_valued(c.a.a, bool_memo)
                and _is_boolean_valued(c.a.b, bool_memo)
            ):
                work.append(c.a.a)
                work.append(c.a.b)
                continue
            if (
                c.op == "eq"
                and not isinstance(c.b, Expr)
                and c.b == 0
                and isinstance(c.a, BinExpr)
            ):
                inner = c.a
                if inner.op == "lor" or (
                    inner.op == "or"
                    and _is_boolean_valued(inner.a, bool_memo)
                    and _is_boolean_valued(inner.b, bool_memo)
                ):
                    work.append(negate_condition(inner.a))
                    work.append(negate_condition(inner.b))
                    continue
            # eq(X, 1) for boolean X is the same as asserting X.
            if (
                c.op == "eq"
                and not isinstance(c.b, Expr)
                and c.b == 1
                and isinstance(c.a, BinExpr)
                and c.a.op in ("and", "land")
                and _is_boolean_valued(c.a, bool_memo)
            ):
                work.append(c.a)
                continue
        if id(c) in seen:
            continue
        seen.add(id(c))
        atoms.append(c)
    return atoms


def _affine_of_single_var(expr) -> Optional[Tuple[str, int, int]]:
    """Decompose ``expr`` as ``mul*var + add`` (mul > 0), if possible."""
    if isinstance(expr, Sym):
        return (expr.name, 1, 0)
    if isinstance(expr, BinExpr):
        if expr.op == "add" and not isinstance(expr.b, Expr):
            inner = _affine_of_single_var(expr.a)
            if inner:
                name, mul, add = inner
                return (name, mul, add + expr.b)
        if expr.op == "sub" and not isinstance(expr.b, Expr):
            inner = _affine_of_single_var(expr.a)
            if inner:
                name, mul, add = inner
                return (name, mul, add - expr.b)
        if expr.op == "mul" and not isinstance(expr.b, Expr) and expr.b > 0:
            inner = _affine_of_single_var(expr.a)
            if inner:
                name, mul, add = inner
                return (name, mul * expr.b, add * expr.b)
    return None


def _bound_from_atom(atom: Expr) -> Optional[Tuple[str, Interval, bool]]:
    """Derive a domain restriction from a single-variable comparison.

    Returns (name, interval, is_disequality).  For ``ne`` atoms the interval
    is the *excluded* single point.
    """
    if not (isinstance(atom, BinExpr) and atom.op in COMPARISONS):
        return None
    if isinstance(atom.b, Expr):
        return None
    affine = _affine_of_single_var(atom.a)
    if affine is None:
        return None
    name, mul, add = affine
    c = atom.b - add
    op = atom.op
    if op == "eq":
        if c % mul != 0:
            return (name, Interval(1, 0), False)  # empty: impossible
        return (name, Interval.exact(c // mul), False)
    if op == "ne":
        if c % mul != 0:
            return None  # always satisfied; no restriction
        return (name, Interval.exact(c // mul), True)
    if op == "le":
        return (name, Interval(None, c // mul), False)
    if op == "lt":
        return (name, Interval(None, (c - 1) // mul), False)
    if op == "ge":
        return (name, Interval(-(-c // mul), None), False)
    if op == "gt":
        return (name, Interval(-(-(c + 1) // mul), None), False)
    return None


def _holds(atom, env: Dict[str, int], memo: dict) -> bool:
    """True when ``atom`` is satisfied (nonzero) under ``env``."""
    if not isinstance(atom, Expr):
        return atom != 0
    return evaluate(atom, env, memo) != 0


class CspSolver(SolverBackend):
    """Finite-domain solver over symbolic input variables.

    By default every instance shares the process-wide
    :func:`~repro.solver.cache.global_model_cache`, so component verdicts
    flow between engines; pass an explicit ``cache`` to isolate one.
    ``incremental=False`` reproduces the seed's solve-from-scratch
    behaviour: no known-model reads, no chain annotation, no ancestor
    fast path, no independence slicing (used for A/B measurement and
    regression tests; the component cache is disabled separately by
    passing an empty-bounded ``ModelCache``).
    """

    def __init__(
        self,
        budget: int = DEFAULT_BUDGET,
        cache: Optional[ModelCache] = None,
        incremental: bool = True,
        telemetry: Optional[Telemetry] = None,
        deadline_s: Optional[float] = None,
        faults=None,
    ):
        self.budget = budget
        self.cache = cache if cache is not None else global_model_cache()
        self.incremental = incremental
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.stats = SolverStats(self.telemetry.registry)
        #: per-query wall-clock deadline (seconds; None = unbounded).
        #: Expiry surfaces as UNKNOWN from :meth:`check` and a
        #: :class:`~repro.errors.SolverDeadline` from :meth:`solve`,
        #: counted under ``solver.deadline_unknowns`` — the graceful-
        #: degradation bound that keeps a wedged query from stalling a
        #: whole session.
        self.deadline_s = deadline_s
        #: optional :class:`~repro.faults.FaultInjector` — chaos-test
        #: hook that can stall or fail queries; None costs one check.
        self._faults = faults
        self._deadline_at: Optional[float] = None

    # -- SolverBackend protocol ---------------------------------------------

    def check(
        self,
        constraints: Constraints,
        hint: Optional[Dict[str, int]] = None,
        budget: Optional[int] = None,
    ) -> CheckResult:
        """Decide satisfiability; UNKNOWN when the budget runs out."""
        telemetry = self.telemetry
        if not telemetry.enabled:
            return self._check_impl(constraints, hint, budget)
        cs = self._as_set(constraints)
        with telemetry.span("solver.check", atoms=len(cs)) as span:
            result = self._check_impl(cs, hint, budget)
            span.set(status=result.status)
        return result

    def _check_impl(
        self,
        constraints: Constraints,
        hint: Optional[Dict[str, int]],
        budget: Optional[int],
    ) -> CheckResult:
        try:
            model = self._solve_set(self._as_set(constraints), hint, budget)
        except SolverDeadline:
            self.stats.deadline_unknowns += 1
            return CheckResult(UNKNOWN)
        except SolverTimeout:
            self.stats.timeouts += 1
            return CheckResult(UNKNOWN)
        if model is None:
            return CheckResult(UNSAT)
        return CheckResult(SAT, model)

    def solve(
        self,
        constraints: Constraints,
        hint: Optional[Dict[str, int]] = None,
        budget: Optional[int] = None,
    ) -> Optional[Dict[str, int]]:
        """Return a satisfying assignment, or None if UNSAT.

        Raises :class:`SolverTimeout` when the search budget is exhausted.
        The assignment covers every variable occurring in the constraints.
        ``budget`` overrides the solver-wide step budget for this query.
        """
        try:
            return self._solve_set(self._as_set(constraints), hint, budget)
        except SolverDeadline:
            self.stats.deadline_unknowns += 1
            raise
        except SolverTimeout:
            self.stats.timeouts += 1
            raise

    def satisfiable(
        self, constraints: Constraints, hint: Optional[Dict[str, int]] = None
    ) -> bool:
        return self.solve(constraints, hint=hint) is not None

    def max_value(
        self,
        expr,
        constraints: Constraints,
        cap: int = DEFAULT_MAX_CAP,
        hint: Optional[Dict[str, int]] = None,
    ) -> Optional[int]:
        """Maximum of ``expr`` over satisfying assignments (upper_bound API).

        Returns None when the constraints are unsatisfiable.  The result is
        clamped to ``cap`` so unconstrained expressions stay finite.
        """
        telemetry = self.telemetry
        if telemetry.enabled:
            with telemetry.span("solver.max_value", cap=cap) as span:
                result = self._max_value_impl(expr, constraints, cap, hint)
                span.set(result=result)
            return result
        return self._max_value_impl(expr, constraints, cap, hint)

    def _max_value_impl(
        self,
        expr,
        constraints: Constraints,
        cap: int,
        hint: Optional[Dict[str, int]],
    ) -> Optional[int]:
        self.stats.max_value_queries += 1
        cs = self._as_set(constraints)
        if not isinstance(expr, Expr):
            return expr if self.satisfiable(cs, hint=hint) else None
        base = self.solve(cs, hint=hint)
        if base is None:
            return None
        domains = self._initial_domains(_normalise(cs.atoms()) or [])
        for var in expr.free_vars():
            domains.setdefault(var.name, (var.lo, var.hi))
        bound = interval_eval(expr, {n: d for n, d in domains.items()})
        hi = cap if bound.hi is None else min(bound.hi, cap)
        lo = evaluate(expr, self._complete(base, expr))
        lo = min(lo, hi)
        while lo < hi:
            mid = (lo + hi + 1) // 2
            probe = cs.append(mk_binop("ge", expr, mid))
            try:
                sol = self.solve(probe, hint=base)
            except SolverTimeout:
                # Be conservative: fall back to the best known value.
                return lo
            if sol is None:
                hi = mid - 1
            else:
                lo = max(mid, min(hi, evaluate(expr, self._complete(sol, expr))))
        return lo

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _as_set(constraints: Constraints) -> ConstraintSet:
        if isinstance(constraints, ConstraintSet):
            return constraints
        return ConstraintSet.from_atoms(constraints)

    def _solve_set(
        self,
        cs: ConstraintSet,
        hint: Optional[Dict[str, int]],
        budget: Optional[int],
    ) -> Optional[Dict[str, int]]:
        stats = self.stats
        stats.queries += 1
        # Arm the per-query wall-clock deadline before any injected
        # stall, so a wedged query degrades to UNKNOWN instead of
        # costing its full stall repeatedly deeper in the search.
        self._deadline_at = (
            time.monotonic() + self.deadline_s
            if self.deadline_s is not None
            else None
        )
        if self._faults is not None:
            self._faults.on_solver_query()  # may stall or raise SolverTimeout
            self._check_deadline()
        if self.incremental:
            if cs.known_unsat:
                stats.unsat += 1
                stats.incremental_hits += 1
                return None
            known = cs.model
            if known is not None:
                stats.sat += 1
                stats.incremental_hits += 1
                return self._complete_over_domains(known, cs.domains())
            ancestor_model, prefix_raw, suffix_raw = cs.split_at_model()
        else:
            ancestor_model, prefix_raw, suffix_raw = None, [], cs.atoms()
        prefix = _normalise(prefix_raw)
        suffix = _normalise(suffix_raw)
        if prefix is None or suffix is None:
            stats.unsat += 1
            if self.incremental:
                cs.note_unsat()
            return None
        prefix_ids = {id(a) for a in prefix}
        suffix = [a for a in suffix if id(a) not in prefix_ids]
        atoms = prefix + suffix
        if not atoms:
            stats.sat += 1
            return dict(hint) if hint else {}
        domains = self._initial_domains(atoms)

        # Incremental fast path: the ancestor model satisfies every prefix
        # atom by contract; re-check just the appended atoms against it
        # before any component work or search.
        if ancestor_model is not None and suffix:
            env = self._complete_over_domains(ancestor_model, domains)
            memo: dict = {}
            if all(_holds(a, env, memo) for a in suffix):
                stats.sat += 1
                stats.incremental_hits += 1
                cs.note_model(env)
                self.cache.remember_solution(env)
                return dict(env)

        components = self._split_components(atoms, domains)
        suffix_ids = {id(a) for a in suffix}
        merged_hint: Dict[str, int] = dict(ancestor_model) if ancestor_model else {}
        if hint:
            merged_hint.update(hint)
        step_budget = budget if budget is not None else self.budget

        solution: Dict[str, int] = {}
        steps_used = 0
        sliced = False
        unsat = False
        # First pass — independence slicing: a component no new atom
        # touches is made only of prefix atoms, all satisfied by the
        # ancestor model; adopt its values without solving anything.
        # Runs before any search so the slicing benefit is realised even
        # when a touched component later proves the query UNSAT.
        pending: List[_Component] = []
        for comp in components:
            if (
                ancestor_model is not None
                and comp.constraints
                and not any(id(a) in suffix_ids for a in comp.constraints)
            ):
                adopted = self._adopt_model(
                    ancestor_model, {n: domains[n] for n in comp.names}
                )
                if adopted is not None:
                    solution.update(adopted)
                    stats.atoms_sliced += len(comp.constraints)
                    sliced = True
                    continue
            pending.append(comp)
        for comp in pending:
            comp_domains = {n: domains[n] for n in comp.names}
            key = ModelCache.key_for(comp.constraints)
            cached = self.cache.lookup(key) if comp.constraints else None
            if cached is not None:
                _kind, result = cached
                if result == UNSAT_ENTRY:
                    stats.component_cache_hits += 1
                    unsat = True
                    break
                adopted = self._adopt_model(result, comp_domains)
                if adopted is not None:
                    stats.component_cache_hits += 1
                    solution.update(adopted)
                    continue
            # Counterexample reuse: try recent solutions before searching.
            reuse = self._try_recent_solutions(
                list(comp.constraints), comp_domains, merged_hint
            )
            if reuse is not None:
                stats.cex_reuses += 1
                self.cache.store(key, dict(reuse), atoms=comp.constraints)
                solution.update(reuse)
                continue
            result, used = self._search_component(
                comp, comp_domains, merged_hint, step_budget - steps_used
            )
            steps_used += used
            stats.search_steps += used
            if result is None:
                self.cache.store(key, UNSAT_ENTRY, atoms=comp.constraints)
                unsat = True
                break
            self.cache.store(key, dict(result), atoms=comp.constraints)
            solution.update(result)

        if sliced:
            stats.incremental_hits += 1
        if unsat:
            stats.unsat += 1
            if self.incremental:
                cs.note_unsat()
            return None
        stats.sat += 1
        if self.incremental:
            cs.note_model(dict(solution))
        self.cache.remember_solution(solution)
        return dict(solution)

    def _check_deadline(self) -> None:
        if (
            self._deadline_at is not None
            and time.monotonic() > self._deadline_at
        ):
            raise SolverDeadline(
                f"solver deadline ({self.deadline_s}s) exceeded"
            )

    @staticmethod
    def _complete_over_domains(
        model: Dict[str, int], domains: Dict[str, Tuple[int, int]]
    ) -> Dict[str, int]:
        """Model completed with ``lo`` defaults, restricted to ``domains``.

        Matches the note_model contract: missing variables take their
        domain minimum, out-of-domain values (impossible for contract-
        respecting callers) fall back to it too, keeping results sound.
        """
        env: Dict[str, int] = {}
        for name, (lo, hi) in domains.items():
            v = model.get(name, lo)
            env[name] = v if lo <= v <= hi else lo
        return env

    @staticmethod
    def _adopt_model(
        model: Dict[str, int], comp_domains: Dict[str, Tuple[int, int]]
    ) -> Optional[Dict[str, int]]:
        """Component-restricted view of ``model`` (lo for missing vars)."""
        adopted: Dict[str, int] = {}
        for name, (lo, hi) in comp_domains.items():
            v = model.get(name, lo)
            if not lo <= v <= hi:
                return None
            adopted[name] = v
        return adopted

    @staticmethod
    def _complete(solution: Dict[str, int], expr: Expr) -> Dict[str, int]:
        env = dict(solution)
        for var in expr.free_vars():
            env.setdefault(var.name, var.lo)
        return env

    @staticmethod
    def _initial_domains(atoms: Sequence[Expr]) -> Dict[str, Tuple[int, int]]:
        domains: Dict[str, Tuple[int, int]] = {}
        for atom in atoms:
            for var in atom.free_vars():
                domains.setdefault(var.name, (var.lo, var.hi))
        return domains

    def _try_recent_solutions(
        self,
        atoms: List[Expr],
        domains: Dict[str, Tuple[int, int]],
        hint: Optional[Dict[str, int]],
    ) -> Optional[Dict[str, int]]:
        candidates = []
        if hint:
            candidates.append(hint)
        candidates.extend(self.cache.candidate_solutions()[:8])
        for candidate in candidates:
            env = {}
            ok = True
            for name, (lo, hi) in domains.items():
                v = candidate.get(name, lo)
                if not (lo <= v <= hi):
                    ok = False
                    break
                env[name] = v
            if not ok:
                continue
            if all(evaluate(a, env) for a in atoms):
                return env
        return None

    @staticmethod
    def _split_components(atoms: List[Expr], domains) -> List[_Component]:
        parent: Dict[str, str] = {n: n for n in domains}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        atom_vars: List[List[str]] = []
        for atom in atoms:
            names = sorted(v.name for v in atom.free_vars())
            atom_vars.append(names)
            for other in names[1:]:
                ra, rb = find(names[0]), find(other)
                if ra != rb:
                    parent[rb] = ra

        groups: Dict[str, _Component] = {}
        for name in domains:
            root = find(name)
            groups.setdefault(root, _Component()).names.append(name)
        for atom, names in zip(atoms, atom_vars):
            if not names:
                continue
            groups[find(names[0])].constraints.append(atom)
        ordered = sorted(groups.values(), key=lambda c: (len(c.names), c.names))
        for comp in ordered:
            comp.names.sort()
        return ordered

    def _search_component(
        self,
        comp: _Component,
        domains: Dict[str, Tuple[int, int]],
        hint: Dict[str, int],
        budget: int,
    ) -> Tuple[Optional[Dict[str, int]], int]:
        if budget <= 0:
            raise SolverTimeout("solver budget exhausted before search")

        # Propagate single-variable bounds to a fixpoint (bounded passes).
        work = dict(domains)
        for _ in range(4):
            changed = False
            for atom in comp.constraints:
                restriction = _bound_from_atom(atom)
                if restriction is None:
                    continue
                name, interval, is_ne = restriction
                lo, hi = work[name]
                if is_ne:
                    # Exclude a single point only when it is an endpoint.
                    if interval.lo == lo == hi:
                        return None, 0
                    if interval.lo == lo:
                        lo += 1
                        changed = True
                    elif interval.lo == hi:
                        hi -= 1
                        changed = True
                else:
                    cur = Interval(lo, hi).intersect(interval)
                    if cur.is_empty():
                        return None, 0
                    new_lo = lo if cur.lo is None else cur.lo
                    new_hi = hi if cur.hi is None else cur.hi
                    if (new_lo, new_hi) != (lo, hi):
                        lo, hi = new_lo, new_hi
                        changed = True
                work[name] = (lo, hi)
            if not changed:
                break

        order = sorted(comp.names, key=lambda n: (work[n][1] - work[n][0], n))
        var_atoms: Dict[str, List[Expr]] = {n: [] for n in order}
        completes_at: Dict[str, List[Expr]] = {n: [] for n in order}
        position = {n: i for i, n in enumerate(order)}
        for atom in comp.constraints:
            names = [v.name for v in atom.free_vars()]
            last = max(names, key=lambda n: position[n])
            completes_at[last].append(atom)
            for n in names:
                if n != last:
                    var_atoms[n].append(atom)

        env: Dict[str, int] = {}
        steps = 0
        deadline_at = self._deadline_at

        def candidates(name: str):
            lo, hi = work[name]
            tried = set()
            for v in (hint.get(name), lo, hi):
                if v is not None and lo <= v <= hi and v not in tried:
                    tried.add(v)
                    yield v
            for v in range(lo, hi + 1):
                if v not in tried:
                    yield v

        def search(idx: int) -> bool:
            nonlocal steps
            if idx == len(order):
                return True
            name = order[idx]
            for value in candidates(name):
                steps += 1
                if steps > budget:
                    raise SolverTimeout(
                        f"solver budget exhausted ({budget} steps)"
                    )
                if (
                    deadline_at is not None
                    and steps % _DEADLINE_STRIDE == 0
                    and time.monotonic() > deadline_at
                ):
                    raise SolverDeadline(
                        f"solver deadline ({self.deadline_s}s) exceeded "
                        f"after {steps} steps"
                    )
                env[name] = value
                ok = True
                for atom in completes_at[name]:
                    if not evaluate(atom, env):
                        ok = False
                        break
                if ok:
                    for atom in var_atoms[name]:
                        iv = interval_eval(atom, work, env, {})
                        if iv.is_exact() and iv.lo == 0:
                            ok = False
                            break
                if ok and search(idx + 1):
                    return True
                del env[name]
            return False

        try:
            if search(0):
                return dict(env), steps
        except SolverTimeout:
            self.stats.search_steps += steps
            raise
        return None, steps


def make_default_solver(
    budget: int = DEFAULT_BUDGET,
    telemetry: Optional[Telemetry] = None,
    deadline_s: Optional[float] = None,
    faults=None,
) -> CspSolver:
    """Factory used by the engine; backed by the engine-wide model cache.

    ``telemetry`` shares the caller's observability context (registry +
    tracer) so solver counters land in the engine's one registry.
    ``deadline_s`` bounds each query's wall clock (graceful degradation
    to UNKNOWN); ``faults`` is the chaos-test injector, None in
    production.
    """
    return CspSolver(
        budget=budget, telemetry=telemetry, deadline_s=deadline_s, faults=faults
    )


__all__ = [
    "CspSolver",
    "SolverStats",
    "make_default_solver",
    "DEFAULT_BUDGET",
    "DEFAULT_MAX_CAP",
]
