"""Engine-wide counterexample/model cache with component-sliced keys.

The KLEE lineage caches solver results two ways; both are reproduced
here, but keyed on *independence components* rather than whole queries.
The solver splits each normalised query into connected components of the
atom/variable graph and consults the cache per component, so one cached
answer serves every future query that contains the same component —
which, with interned atoms and share-structure constraint sets, is most
of them.

Reuse rules (all sound):

- **exact**: the same atom set was answered before → same answer.
- **subset-UNSAT**: a cached UNSAT key that is a *subset* of the query
  is still contradictory inside the bigger query → UNSAT.
- **superset-SAT**: a cached model for a *superset* of the query
  satisfies every query atom (they are all in the superset) → SAT,
  reuse the model.

Keys are frozensets of interned-atom ids (structural identity is ``is``
for interned expressions).  One process-wide instance backs every
default solver, making the cache engine-wide: states, engines and runs
share it.  Anything that invalidates interned ids — the expression
intern table or the ``Sym`` registry being cleared — must reset it via
:func:`reset_global_model_cache` (the test suite does this between
tests).
"""

from __future__ import annotations

import os
import pickle
import threading
from collections import OrderedDict
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lowlevel.expr import Expr, fingerprint
from repro.obs.metrics import MetricsRegistry

#: Sentinel stored (and returned) for unsatisfiable entries.
UNSAT = "unsat"

#: Reuse kinds reported by :meth:`ModelCache.lookup`.
HIT_EXACT = "exact"
HIT_SUBSET_UNSAT = "subset-unsat"
HIT_SUPERSET_SAT = "superset-sat"

#: Counter fields, reported as ``cache.<field>`` by the obs registry.
_COUNTER_FIELDS = (
    "hits",
    "subset_hits",
    "superset_hits",
    "misses",
    "stores",
    "merged_stores",
    "merged_hits",
    "cross_run_hits",
    "persistent_loaded",
    "corrupt_frames_skipped",
)


class ModelCache:
    """Memoises per-component verdicts and recent satisfying models.

    Counters are plain ``int`` attributes (``cache.hits`` etc.),
    attached to a :class:`~repro.obs.metrics.MetricsRegistry` as
    ``cache.*`` together with ``cache.entries`` (pass ``registry`` to
    share an engine context's registry).
    """

    def __init__(
        self,
        max_entries: int = 8192,
        max_models: int = 64,
        scan_limit: int = 128,
        max_journal: int = 8192,
        registry: Optional[MetricsRegistry] = None,
    ):
        #: key → model dict or UNSAT, most recently used last.
        self._entries: "OrderedDict[FrozenSet[int], object]" = OrderedDict()
        self._recent_models: List[Dict[str, int]] = []
        self._max_entries = max_entries
        self._max_models = max_models
        self._scan_limit = scan_limit
        self.registry = registry if registry is not None else MetricsRegistry()
        for field in _COUNTER_FIELDS:
            setattr(self, field, 0)
        self.registry.attach("cache", self, _COUNTER_FIELDS + ("entries",))
        # -- cross-process delta protocol ----------------------------------
        #: append-only journal of portable entries: (fingerprint key,
        #: atom tuple, result).  Atoms re-intern on unpickle, so a journal
        #: slice shipped to another process re-keys itself there.
        self._journal: List[Tuple[FrozenSet[int], Tuple[Expr, ...], object]] = []
        self._journal_base = 0
        self._max_journal = max_journal
        #: fingerprint keys of live journaled/merged entries (dedup guard
        #: for re-broadcast entries); pruned on LRU eviction so a
        #: re-discovered verdict can be journaled again.
        self._known_fps: set = set()
        #: local key -> fingerprint key, for that eviction-time pruning.
        self._fp_of_key: Dict[FrozenSet[int], FrozenSet[int]] = {}
        #: local keys that arrived via merge(); hits on them are counted
        #: separately as cross-worker reuse.
        self._merged_keys: set = set()
        #: fingerprint keys whose entries came from a persistent store
        #: (another run, possibly another tenant); hits on them are
        #: counted separately as cross-run reuse.
        self._persistent_fps: Set[FrozenSet[int]] = set()
        #: serialises mutation against concurrent sessions: the engine-wide
        #: cache is shared by every tenant of a service daemon, and a bare
        #: ``popitem`` racing a ``store`` could raise mid-eviction.
        self._lock = threading.RLock()

    @staticmethod
    def key_for(atoms) -> FrozenSet[int]:
        """Cache key of an atom collection (interned-expression ids)."""
        return frozenset(id(a) for a in atoms if isinstance(a, Expr))

    def _count_reuse(self, matched_key: FrozenSet[int]) -> None:
        """Attribute a hit on ``matched_key`` to its provenance counters."""
        if matched_key in self._merged_keys:
            self.merged_hits += 1
        fp_key = self._fp_of_key.get(matched_key)
        if fp_key is not None and fp_key in self._persistent_fps:
            self.cross_run_hits += 1

    # -- lookup ---------------------------------------------------------------

    def lookup(self, key: FrozenSet[int]) -> Optional[Tuple[str, object]]:
        """Return ``(kind, result)`` or None on a miss.

        ``result`` is a model dict or :data:`UNSAT`; ``kind`` is one of
        the ``HIT_*`` constants.  Subset/superset scans are bounded to
        the most recently used entries.
        """
        if not key:
            return None
        with self._lock:
            entries = self._entries
            exact = entries.get(key)
            if exact is not None:
                entries.move_to_end(key)
                self.hits += 1
                self._count_reuse(key)
                return (HIT_EXACT, exact)
            scanned = 0
            for cached_key in reversed(entries):
                if scanned >= self._scan_limit:
                    break
                scanned += 1
                result = entries[cached_key]
                if result == UNSAT:
                    if cached_key <= key:
                        entries.move_to_end(cached_key)
                        self.subset_hits += 1
                        self._count_reuse(cached_key)
                        return (HIT_SUBSET_UNSAT, UNSAT)
                elif key <= cached_key:
                    entries.move_to_end(cached_key)
                    self.superset_hits += 1
                    self._count_reuse(cached_key)
                    return (HIT_SUPERSET_SAT, result)
            self.misses += 1
            return None

    # -- store ----------------------------------------------------------------

    def store(self, key: FrozenSet[int], result, atoms: Optional[Sequence] = None) -> None:
        """Record a verdict: a model dict or :data:`UNSAT`.

        When ``atoms`` (the expressions behind ``key``) are supplied and
        the key is new, the entry is also journaled in portable form so
        :meth:`export_delta` can ship it to other processes.
        """
        if not key:
            return
        with self._lock:
            is_new = key not in self._entries
            if not is_new:
                # A locally recomputed verdict replaces whatever was merged
                # in; its hits are local reuse, not cross-worker reuse.
                self._merged_keys.discard(key)
            self._entries[key] = result
            self._entries.move_to_end(key)
            self.stores += 1
            while len(self._entries) > self._max_entries:
                evicted_key, _ = self._entries.popitem(last=False)
                fp_key = self._fp_of_key.pop(evicted_key, None)
                if fp_key is not None:
                    self._known_fps.discard(fp_key)
                self._merged_keys.discard(evicted_key)
            if is_new and atoms is not None:
                self._journal_entry(key, tuple(atoms), result)
            if isinstance(result, dict):
                self.remember_solution(result)

    def _journal_entry(self, key: FrozenSet[int], atoms: Tuple[Expr, ...], result) -> None:
        fp_key = frozenset(fingerprint(a) for a in atoms)
        if fp_key in self._known_fps:
            return
        self._known_fps.add(fp_key)
        self._fp_of_key[key] = fp_key
        payload = dict(result) if isinstance(result, dict) else result
        self._journal.append((fp_key, atoms, payload))
        overflow = len(self._journal) - self._max_journal
        if overflow > 0:
            # Roll the window; stale marks just export less (sound: a
            # missing delta entry only costs reuse, never correctness).
            del self._journal[:overflow]
            self._journal_base += overflow

    # -- cross-process delta protocol ------------------------------------------

    def journal_mark(self) -> int:
        """Opaque high-water mark for :meth:`export_delta`."""
        return self._journal_base + len(self._journal)

    def export_delta(self, mark: int = 0) -> List[Tuple[FrozenSet[int], Tuple[Expr, ...], object]]:
        """Portable entries journaled since ``mark`` (see journal_mark).

        The returned list pickles cleanly: atoms re-intern themselves on
        load, so the receiver re-keys each entry under its own interned
        ids via :meth:`merge`.
        """
        with self._lock:
            start = max(mark - self._journal_base, 0)
            return self._journal[start:]

    def merge(self, delta: Sequence[Tuple[FrozenSet[int], Tuple[Expr, ...], object]]) -> int:
        """Fold another process's exported delta into this cache.

        Entries already known (by fingerprint or by local key) are
        skipped; newly adopted entries are journaled onward, so a
        coordinator can re-broadcast worker deltas to the rest of the
        pool.  Returns the number of entries adopted.
        """
        adopted = 0
        with self._lock:
            for fp_key, atoms, result in delta:
                if fp_key in self._known_fps:
                    continue
                key = self.key_for(atoms)
                if not key or key in self._entries:
                    self._known_fps.add(fp_key)
                    if key:
                        self._fp_of_key.setdefault(key, fp_key)
                    continue
                self.store(key, dict(result) if isinstance(result, dict) else result,
                           atoms=atoms)
                self._merged_keys.add(key)
                self.merged_stores += 1
                adopted += 1
        return adopted

    def mark_persistent(self, fp_keys: Iterable[FrozenSet[int]]) -> None:
        """Tag fingerprint keys as loaded from a persistent store.

        Hits on entries whose fingerprints are tagged count as
        ``cross_run_hits`` — reuse carried over from a previous run
        (possibly another tenant's), as opposed to ``merged_hits``
        (cross-worker reuse inside one run).
        """
        with self._lock:
            self._persistent_fps.update(fp_keys)

    def remember_solution(self, solution: Dict[str, int]) -> None:
        """Keep a model for cross-query counterexample reuse."""
        self._recent_models.append(dict(solution))
        if len(self._recent_models) > self._max_models:
            self._recent_models.pop(0)

    def candidate_solutions(self) -> List[Dict[str, int]]:
        """Most-recent-first models for counterexample reuse."""
        return list(reversed(self._recent_models))

    # -- maintenance -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> int:
        """Live entry count, reported as ``cache.entries``."""
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._recent_models.clear()
            for field in _COUNTER_FIELDS:
                setattr(self, field, 0)
            self._journal.clear()
            self._journal_base = 0
            self._known_fps.clear()
            self._fp_of_key.clear()
            self._merged_keys.clear()
            self._persistent_fps.clear()

    def stats_dict(self) -> Dict[str, int]:
        """Counter-dict view of the ``cache.*`` registry metrics."""
        return {field: getattr(self, field) for field in _COUNTER_FIELDS + ("entries",)}


#: largest frame a store will attempt to read back — a length prefix
#: beyond this is a desynchronised (torn) stream, not a real frame.
_MAX_FRAME_BYTES = 1 << 31


class PersistentCacheStore:
    """Disk-backed journal of portable model-cache entries.

    Because cache entries travel as ``(fingerprint key, atom tuple,
    result)`` and both halves are process-independent — fingerprints are
    stable blake2b structural digests, atoms re-intern themselves on
    unpickle — the same journal format that crosses *process* boundaries
    (PR 4's ``export_delta``/``merge``) can cross *run* boundaries: dump
    the entries to disk, load and :meth:`ModelCache.merge` them next
    run, and subset-UNSAT/superset-SAT reuse carries over between runs
    and between tenants hitting similar targets.

    File format: a sequence of length-prefixed pickled **frames**, each
    ``(magic, meta, entries)`` — ``meta`` records the writer's
    provenance (pid and a per-handle sequence number, mirroring the
    in-memory journal's (pool epoch, pid) keying).  Appends are one
    frame each, so concurrent runs interleave whole frames; the length
    prefix makes each frame independently skippable: an unpicklable
    frame — e.g. atoms that re-declare a symbolic variable under a
    different domain (a colliding namespace from an unrelated program)
    — is dropped alone, and only a truncated tail from a crashed writer
    ends the scan early.

    Reuse stays sound under every failure mode here: a lost or skipped
    entry only costs a solver query, never an answer — which is why
    invalidation can be this permissive.
    """

    MAGIC = "repro-cache/1"

    def __init__(self, path, faults=None):
        self.path = os.fspath(path)
        self._lock = threading.Lock()
        #: fingerprints this handle has seen (loaded or appended) —
        #: appends are filtered against it so re-discovered entries do
        #: not bloat the file across sessions.
        self._seen_fps: Set[FrozenSet[int]] = set()
        self._seq = 0
        #: frames dropped by :meth:`load` (unpicklable, bad magic, or a
        #: truncated tail), cumulative over this handle's lifetime;
        #: :meth:`load_into` folds the per-load delta into the cache's
        #: ``cache.corrupt_frames_skipped`` counter so torn writes are
        #: visible in run metrics instead of silently shrinking reuse.
        self.corrupt_frames_skipped = 0
        #: optional :class:`~repro.faults.FaultInjector`; when set, every
        #: append may be torn (tail-truncated) per the fault plan.
        self._faults = faults

    def load(self) -> List[Tuple[FrozenSet[int], Tuple[Expr, ...], object]]:
        """Read every loadable frame; entries deduped by fingerprint."""
        entries: List = []
        with self._lock:
            try:
                fh = open(self.path, "rb")
            except OSError:
                return entries
            with fh:
                while True:
                    header = fh.read(8)
                    if not header:
                        break
                    if len(header) < 8:
                        # Torn mid-header: the tail frame is lost.
                        self.corrupt_frames_skipped += 1
                        break
                    length = int.from_bytes(header, "big")
                    if length > _MAX_FRAME_BYTES:
                        # A length this large means we are reading the
                        # middle of a frame (a tear desynchronised the
                        # stream) — nothing past here can be trusted.
                        self.corrupt_frames_skipped += 1
                        break
                    blob = fh.read(length)
                    if len(blob) < length:
                        # Truncated tail from a crashed (or torn) writer:
                        # the longest valid prefix is what loaded so far.
                        self.corrupt_frames_skipped += 1
                        break
                    try:
                        frame = pickle.loads(blob)
                    except Exception:
                        self.corrupt_frames_skipped += 1
                        continue  # bad frame: skip it, keep scanning
                    if (
                        not isinstance(frame, tuple)
                        or len(frame) != 3
                        or frame[0] != self.MAGIC
                    ):
                        self.corrupt_frames_skipped += 1
                        continue
                    for entry in frame[2]:
                        fp_key = entry[0]
                        if fp_key in self._seen_fps:
                            continue
                        self._seen_fps.add(fp_key)
                        entries.append(entry)
        return entries

    def load_into(self, cache: ModelCache) -> int:
        """Merge the store into ``cache`` and tag the entries persistent.

        Returns the number of entries adopted; ``cache.persistent_loaded``
        counts them and hits on them count as ``cache.cross_run_hits``.
        Frames the load had to drop are folded into the cache's
        ``cache.corrupt_frames_skipped`` counter.
        """
        skipped_before = self.corrupt_frames_skipped
        entries = self.load()
        adopted = cache.merge(entries)
        cache.mark_persistent(entry[0] for entry in entries)
        cache.persistent_loaded += adopted
        skipped = self.corrupt_frames_skipped - skipped_before
        if skipped:
            cache.corrupt_frames_skipped += skipped
        return adopted

    def append(self, entries: Sequence[Tuple[FrozenSet[int], Tuple[Expr, ...], object]]) -> int:
        """Append one frame of not-yet-stored entries; returns the count."""
        with self._lock:
            fresh = [e for e in entries if e[0] not in self._seen_fps]
            if not fresh:
                return 0
            self._seen_fps.update(e[0] for e in fresh)
            self._seq += 1
            meta = {"pid": os.getpid(), "seq": self._seq}
            blob = pickle.dumps(
                (self.MAGIC, meta, fresh), protocol=pickle.HIGHEST_PROTOCOL
            )
            # One write() per frame: concurrent appenders (two sessions
            # of the same target closing together) interleave whole
            # frames, never a header split from its blob.
            with open(self.path, "ab") as fh:
                fh.write(len(blob).to_bytes(8, "big") + blob)
            if self._faults is not None:
                self._faults.maybe_truncate(self.path)
        return len(fresh)

    def append_from(self, cache: ModelCache, mark: int = 0) -> int:
        """Append ``cache``'s journal entries since ``mark``."""
        return self.append(cache.export_delta(mark))

    def seen_fps(self) -> FrozenSet[FrozenSet[int]]:
        """Fingerprint keys this handle has loaded or appended so far."""
        with self._lock:
            return frozenset(self._seen_fps)


#: Import-compatible alias for the pre-refactor class name ONLY — the
#: method contract changed with the rewrite: ``lookup`` now returns a
#: ``(kind, result)`` tuple (was a bare model/UNSAT/None) and ``store``
#: ignores empty keys.  Code written against the seed-era SolverCache
#: API must be ported, not just re-pointed.
SolverCache = ModelCache

_GLOBAL_CACHE: Optional[ModelCache] = None


def global_model_cache() -> ModelCache:
    """The process-wide cache shared by default solver instances."""
    global _GLOBAL_CACHE
    if _GLOBAL_CACHE is None:
        _GLOBAL_CACHE = ModelCache()
    return _GLOBAL_CACHE


def reset_global_model_cache() -> None:
    """Drop every cached verdict and model (tests call this between
    tests, because clearing the expression intern table recycles the
    ids the cache keys on)."""
    if _GLOBAL_CACHE is not None:
        _GLOBAL_CACHE.clear()


__all__ = [
    "HIT_EXACT",
    "HIT_SUBSET_UNSAT",
    "HIT_SUPERSET_SAT",
    "ModelCache",
    "PersistentCacheStore",
    "SolverCache",
    "UNSAT",
    "global_model_cache",
    "reset_global_model_cache",
]
