"""Workload inputs and output oracles of the Chef benchmark.

Every input is a pure function of the workload seed.  The seed picks the
state-selection RNG seed (``ChefConfig.seed``) and the concrete seed bytes
or strings the symbolic inputs start from; input lengths and program
shapes never change, so every seed explores the same number of paths.

Each oracle maps one generated test case to its *equivalence class* (the
high-level path it must stand for) and checks the case's output against a
Python reference.  Exhaustive exploration must produce every expected
class exactly once, so a missing, duplicated or wrong case is a failure.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from typing import Callable, Dict, Iterable, List, Tuple

from repro.bench.workloads import deep_traced_source
from repro.targets import pylite_packages

#: symbolic bytes of the guest the service runs.
SERVICE_BYTES = 11
#: exploration must end by exhaustion, never by this budget.
TIME_BUDGET_S = 150.0
#: the search strategy every workload runs (path-optimised CUPA, §3.3).
STRATEGY = "cupa-path"

_SYMBOLIC_DECL = "    make_symbolic(BUF, {n}, 0, 255);"


def clay_source(n: int, seed: int) -> str:
    """``deep_traced_source(n)`` whose symbolic bytes start from seeded values.

    The seed bytes are stored into the buffer before ``make_symbolic``,
    which adopts the memory contents as the initial concrete assignment.
    The branch structure, and so the path count ``2**n``, is unchanged.
    """
    source = deep_traced_source(n)
    decl = _SYMBOLIC_DECL.format(n=n)
    if decl not in source:
        raise ValueError("deep_traced_source changed shape; update the benchmark")
    rng = random.Random(seed)
    stores = "".join(
        f"    store(BUF + {i}, {rng.randrange(256)});\n" for i in range(n)
    )
    return source.replace(decl, stores + decl, 1)


def clay_expected_output(values: List[int]) -> List[int]:
    """Python reference of the Clay guest: one bit per matching byte."""
    acc = sum(1 << i for i, byte in enumerate(values) if byte == ord("a") + i)
    return [acc]


def clay_class(inputs: Dict[str, List[int]]) -> Tuple:
    """A Clay path is identified by which bytes matched (its ``acc``)."""
    return tuple(clay_expected_output(inputs["b0"]))


def clay_expected_classes(n: int) -> Counter:
    return Counter((acc,) for acc in range(1 << n))


# -- PyLite scenario packs ------------------------------------------------------

#: (name, source, test spec, symbolic string length).  Lengths are the
#: workload's size knobs: turnstile 1023 paths, parseint 256, rle 4.
PYLITE_PACKS = (
    ("turnstile", pylite_packages.TURNSTILE_SOURCE, pylite_packages.TURNSTILE_TEST, 9),
    ("parseint", pylite_packages.PARSEINT_SOURCE, pylite_packages.PARSEINT_TEST, 64),
    ("rle", pylite_packages.RLE_SOURCE, pylite_packages.RLE_TEST, 3),
)

#: seed-string alphabet: command letters, digits, a sign and filler, so
#: the first explored path differs from seed to seed.
_SEED_ALPHABET = "cpab-0123456789"


def pylite_sources(seed: int) -> List[Tuple[str, str]]:
    """``[(pack name, full guest source)]`` with seeded symbolic strings."""
    from repro.symtest.library import SimpleSymbolicTest

    rng = random.Random(seed)
    out = []
    for name, source, test, length in PYLITE_PACKS:
        text = "".join(rng.choice(_SEED_ALPHABET) for _ in range(length))
        (_kind, var, _default), = test["inputs"]
        test_code = SimpleSymbolicTest(
            [("str", var, text)], test["body"], language="pylite"
        ).build_driver()
        out.append((name, source.rstrip("\n") + "\n\n" + test_code))
    return out


def _turnstile_class(data: List[int]) -> Tuple:
    prefix = []
    for byte in data:
        if chr(byte) not in "cp":
            return ("raise", "".join(prefix))
        prefix.append(chr(byte))
    return ("ok", "".join(prefix))


def _parseint_class(data: List[int]) -> Tuple:
    minus = data[0] == ord("-")
    for i in range(1 if minus else 0, len(data)):
        if data[i] < 48:
            return (minus, "below-digit", i)
        if data[i] > 57:
            return (minus, "above-digit", i)
    return (minus, "ok", len(data))


def _rle_class(data: List[int]) -> Tuple:
    return tuple(data[i] == data[i + 1] for i in range(len(data) - 1))


def _turnstile_expected(length: int) -> Counter:
    expected: Counter = Counter()
    for k in range(length + 1):
        for bits in range(1 << k):
            word = "".join("cp"[(bits >> j) & 1] for j in range(k))
            expected[("ok" if k == length else "raise", word)] += 1
    return expected


def _parseint_expected(length: int) -> Counter:
    expected: Counter = Counter()
    for minus in (False, True):
        for i in range(1 if minus else 0, length):
            expected[(minus, "below-digit", i)] += 1
            expected[(minus, "above-digit", i)] += 1
        expected[(minus, "ok", length)] += 1
    return expected


def _rle_expected(length: int) -> Counter:
    expected: Counter = Counter()
    for bits in range(1 << (length - 1)):
        expected[tuple(bool((bits >> j) & 1) for j in range(length - 1))] += 1
    return expected


#: pack name → (class function, expected class multiset for a length).
PYLITE_ORACLES: Dict[str, Tuple[Callable, Callable[[int], Counter]]] = {
    "turnstile": (_turnstile_class, _turnstile_expected),
    "parseint": (_parseint_class, _parseint_expected),
    "rle": (_rle_class, _rle_expected),
}


PYLITE_LENGTHS = {name: length for name, _src, _test, length in PYLITE_PACKS}


def pylite_expected_cases() -> int:
    return sum(
        sum(PYLITE_ORACLES[name][1](length).values())
        for name, length in PYLITE_LENGTHS.items()
    )


# -- checks shared by every workload ------------------------------------------


def multiset_failures(seen: Iterable[Tuple], expected: Counter) -> int:
    """Cases missing from, or extra against, the expected class multiset."""
    got = Counter(seen)
    missing = sum((expected - got).values())
    extra = sum((got - expected).values())
    return missing + extra


def case_key(case) -> Tuple:
    """The service protocol's path-event key of an in-process test case.

    Serial runs and daemon runs are compared under the same key the
    service's determinism contract is stated over.  Imported here, after
    the run, so the service package stays out of a serial run's memory.
    """
    from repro.service.protocol import case_to_wire, path_event_key

    return path_event_key({"event": "PathCompleted", "case": case_to_wire(case)})


def multiset_digest(keys: Iterable[Tuple]) -> str:
    """Order-independent digest of a path multiset."""
    digest = hashlib.sha256()
    for key in sorted(repr(k) for k in keys):
        digest.update(key.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()[:16]
