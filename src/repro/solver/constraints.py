"""Incremental, share-structure path-condition sets.

A :class:`ConstraintSet` is an immutable chain of path-condition atoms:
``child = parent.append(atom)`` shares the whole parent chain, so the N
states alive during exploration hold O(N) atoms total instead of O(N^2)
copied lists.  This is the engine-side half of incremental solving (the
classic per-state constraint sets surveyed by Baldoni et al.): the solver
sees *which atoms are new* relative to an ancestor that is already known
to be satisfiable and only re-solves what those atoms touch.

Each set memoizes, per node and computed lazily:

- the free-variable *name index* (union of the parent's index and the
  last atom's variables),
- a *known model*: an assignment recorded by whoever proved or observed
  this exact set satisfiable (the concolic executor knows its concrete
  assignment satisfies every atom it appends; the solver records the
  models it finds).

The known-model contract: ``note_model(m)`` asserts that ``m``, completed
with ``var.lo`` for any variable missing from it, satisfies **every**
atom in this set.  Solvers use it two ways: re-check just the appended
suffix atoms against the nearest ancestor model before any search, and
adopt the ancestor model wholesale for components the suffix does not
touch (independence slicing).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.lowlevel.expr import Expr, flatten_values, rebuild_values

Atom = object  #: an Expr, or a concrete int (trivially true/false)


class ConstraintSet:
    """One immutable node in a share-structure chain of atoms."""

    __slots__ = ("parent", "atom", "_length", "_free", "_model", "_unsat")

    _EMPTY: Optional["ConstraintSet"] = None

    def __init__(self, parent: Optional["ConstraintSet"], atom: Optional[Atom]):
        self.parent = parent
        self.atom = atom
        self._length = (parent._length + 1) if parent is not None else 0
        self._free: Optional[FrozenSet[str]] = None
        self._model: Optional[Dict[str, int]] = None
        self._unsat = False

    # -- construction --------------------------------------------------------

    @classmethod
    def empty(cls) -> "ConstraintSet":
        """The shared empty set (root of every chain)."""
        if cls._EMPTY is None:
            cls._EMPTY = cls(None, None)
            cls._EMPTY._free = frozenset()
        return cls._EMPTY

    @classmethod
    def from_atoms(cls, atoms: Iterable[Atom]) -> "ConstraintSet":
        """Build a fresh chain from an iterable of atoms."""
        if isinstance(atoms, ConstraintSet):
            return atoms
        node = cls.empty()
        for atom in atoms:
            node = node.append(atom)
        return node

    def append(self, atom: Atom) -> "ConstraintSet":
        """Return a new set extending this one by ``atom`` (shared tail)."""
        return ConstraintSet(self, atom)

    def extend(self, atoms: Iterable[Atom]) -> "ConstraintSet":
        node = self
        for atom in atoms:
            node = node.append(atom)
        return node

    # -- basic views ---------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.atoms())

    def atoms(self) -> List[Atom]:
        """All atoms, oldest first."""
        out: List[Atom] = []
        node = self
        while node._length:
            out.append(node.atom)
            node = node.parent
        out.reverse()
        return out

    def key(self) -> Tuple[int, ...]:
        """Stable identity key (interned-atom ids, oldest first)."""
        return tuple(id(a) if isinstance(a, Expr) else hash(("c", a)) for a in self.atoms())

    # -- portable snapshots ---------------------------------------------------

    def __reduce__(self):
        """Pickle as (prefix atoms, nearest known model, suffix atoms).

        The chain is flattened so unpickling is iterative (no recursion
        over parent links) and the nearest ancestor known-model — the
        thing that makes sibling queries cheap — survives the trip.
        All atoms are flattened through one shared
        :func:`~repro.lowlevel.expr.flatten_values` call, so expression
        structure shared between atoms (the common case: each loop
        iteration's atom builds on the previous accumulator) is encoded
        once instead of once per atom.  Atoms re-intern on load, so a
        restored set keys into the receiving process's caches exactly
        like a native one.
        """
        model, prefix, suffix = self.split_at_model()
        instrs, refs = flatten_values(prefix + suffix)
        return (
            _restore_chain,
            (
                instrs,
                refs[: len(prefix)],
                None if model is None else dict(model),
                refs[len(prefix):],
            ),
        )

    def __repr__(self) -> str:
        return f"ConstraintSet(|atoms|={self._length}, model={'yes' if self._model is not None else 'no'})"

    # -- memoized free-variable index ----------------------------------------

    @property
    def free_names(self) -> FrozenSet[str]:
        """Names of all symbolic variables occurring in the set (memoized)."""
        free = self._free
        if free is None:
            base = self.parent.free_names
            if isinstance(self.atom, Expr):
                free = base | frozenset(v.name for v in self.atom.free_vars())
            else:
                free = base
            self._free = free
        return free

    def domains(self) -> Dict[str, Tuple[int, int]]:
        """Variable name → inclusive (lo, hi) domain over the set's atoms."""
        out: Dict[str, Tuple[int, int]] = {}
        for atom in self.atoms():
            if isinstance(atom, Expr):
                for var in atom.free_vars():
                    out.setdefault(var.name, (var.lo, var.hi))
        return out

    # -- known models ---------------------------------------------------------

    def note_model(self, model: Dict[str, int]) -> None:
        """Record an assignment known to satisfy every atom in this set.

        Contract: ``model`` completed with ``var.lo`` for missing variables
        satisfies all atoms.  The dict is stored by reference; callers may
        later *add* keys (the concolic executor lazily fills in fresh
        variables) but must never change the value of an existing key.
        """
        self._model = model

    @property
    def model(self) -> Optional[Dict[str, int]]:
        """The known satisfying assignment, if any."""
        return self._model

    def note_unsat(self) -> None:
        """Record that this exact set was proven unsatisfiable."""
        self._unsat = True

    @property
    def known_unsat(self) -> bool:
        return self._unsat

    def split_at_model(self) -> Tuple[Optional[Dict[str, int]], List[Atom], List[Atom]]:
        """Split at the nearest ancestor carrying a known model.

        Returns ``(model, prefix_atoms, suffix_atoms)``: ``prefix_atoms``
        are the atoms of the model-bearing ancestor (satisfied by the
        model, per the contract), ``suffix_atoms`` everything appended
        since.  With no model anywhere, returns ``(None, [], all_atoms)``.
        """
        suffix: List[Atom] = []
        node = self
        while node._length:
            if node._model is not None:
                suffix.reverse()
                return node._model, node.atoms(), suffix
            suffix.append(node.atom)
            node = node.parent
        suffix.reverse()
        return None, [], suffix


def _restore_chain(instrs, prefix_refs, model, suffix_refs) -> ConstraintSet:
    """Rebuild a pickled chain; see :meth:`ConstraintSet.__reduce__`."""
    values = rebuild_values(instrs)
    node = ConstraintSet.from_atoms(values[r] for r in prefix_refs)
    if model is not None:
        node.note_model(model)
    return node.extend(values[r] for r in suffix_refs)


__all__ = ["ConstraintSet"]
