"""CUPA partition-tree tests, including the class-uniformity property."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.chef.cupa import CupaTree, _Level


class FakeState:
    def __init__(self, cls_a, cls_b, name):
        self.cls_a = cls_a
        self.cls_b = cls_b
        self.name = name

    def __repr__(self):
        return f"FakeState({self.name})"


def _tree(rng=None, weights=None):
    return CupaTree(
        classifiers=[lambda s: s.cls_a, lambda s: s.cls_b],
        rng=rng or random.Random(0),
        weight_fns=weights,
    )


class TestBasics:
    def test_add_select_roundtrip(self):
        tree = _tree()
        state = FakeState(1, 1, "only")
        tree.add(state)
        assert len(tree) == 1
        assert tree.select() is state
        assert len(tree) == 0
        assert tree.select() is None

    def test_selection_removes(self):
        tree = _tree()
        states = [FakeState(i % 2, 0, i) for i in range(10)]
        for s in states:
            tree.add(s)
        picked = [tree.select() for _ in range(10)]
        assert sorted(s.name for s in picked) == list(range(10))

    def test_states_listing(self):
        tree = _tree()
        for i in range(5):
            tree.add(FakeState(0, i, i))
        assert len(tree.states()) == 5

    def test_requires_classifiers(self):
        with pytest.raises(ValueError):
            CupaTree([], random.Random(0))

    def test_weight_fn_count_checked(self):
        with pytest.raises(ValueError):
            CupaTree([lambda s: 0], random.Random(0), weight_fns=[None, None])


class TestClassUniformity:
    def test_small_class_not_starved(self):
        """The core CUPA property (§3.2): a class with 1 state is selected
        as often as a class with 100 states."""
        rng = random.Random(42)
        counts = Counter()
        trials = 400
        for _ in range(trials):
            tree = _tree(rng=rng)
            tree.add(FakeState("small", 0, "the-one"))
            for i in range(100):
                tree.add(FakeState("big", 0, f"b{i}"))
            first = tree.select()
            counts[first.cls_a] += 1
        # Uniform over classes => ~50/50, far from the 1/101 a flat queue
        # would give the small class.
        assert counts["small"] > trials * 0.35
        assert counts["big"] > trials * 0.35

    def test_weighted_level_biases_selection(self):
        rng = random.Random(7)
        weights = [lambda key, _level: 10.0 if key == "hot" else 0.1, None]
        counts = Counter()
        for _ in range(300):
            tree = _tree(rng=rng, weights=weights)
            tree.add(FakeState("hot", 0, "h"))
            tree.add(FakeState("cold", 0, "c"))
            counts[tree.select().cls_a] += 1
        assert counts["hot"] > counts["cold"] * 3

    def test_weighted_leaf_selection(self):
        rng = random.Random(9)
        counts = Counter()
        for _ in range(300):
            tree = CupaTree([lambda s: 0], rng)
            heavy = FakeState(0, 0, "heavy")
            light = FakeState(0, 0, "light")
            tree.add(heavy)
            tree.add(light)
            picked = tree.select(lambda s: 10.0 if s.name == "heavy" else 0.1)
            counts[picked.name] += 1
        assert counts["heavy"] > counts["light"] * 3

    def test_empty_classes_pruned(self):
        tree = _tree()
        tree.add(FakeState(1, 1, "a"))
        tree.select()
        tree.add(FakeState(2, 2, "b"))
        assert tree.select().name == "b"


class _ReferenceTree:
    """The filtering descent CUPA selection used before the never-empty
    invariant: every level re-counts each class and skips empty ones.
    Kept verbatim (RNG calls included) as the equivalence oracle."""

    def __init__(self, classifiers, rng, weight_fns):
        self._classifiers = classifiers
        self._rng = rng
        self._weight_fns = list(weight_fns)
        self._root = _Level()
        self._size = 0

    def add(self, state):
        node = self._root
        for index, classify in enumerate(self._classifiers):
            key = classify(state)
            if index == len(self._classifiers) - 1:
                node.classes.setdefault(key, []).append(state)
            else:
                node = node.classes.setdefault(key, _Level())
        self._size += 1

    def select(self, leaf_weight=None):
        if self._size == 0:
            return None
        path = []
        node = self._root
        for level_index in range(len(self._classifiers)):
            keys = [k for k, v in node.classes.items() if _subtree_size(v) > 0]
            if not keys:
                return None
            weight_fn = self._weight_fns[level_index]
            ordered = sorted(keys, key=repr)
            if weight_fn is None:
                key = self._rng.choice(ordered)
            else:
                weights = [max(weight_fn(k, level_index), 1e-12) for k in ordered]
                key = self._rng.choices(ordered, weights=weights, k=1)[0]
            path.append((node, key))
            node = node.classes[key]
        leaf = node
        if leaf_weight is None:
            index = self._rng.randrange(len(leaf))
        else:
            weights = [max(leaf_weight(s), 1e-12) for s in leaf]
            index = self._rng.choices(range(len(leaf)), weights=weights, k=1)[0]
        state = leaf.pop(index)
        self._size -= 1
        for node, key in reversed(path):
            if _subtree_size(node.classes[key]) == 0:
                del node.classes[key]
        return state


def _subtree_size(node):
    if isinstance(node, list):
        return len(node)
    return sum(_subtree_size(child) for child in node.classes.values())


def _has_empty_class(level) -> bool:
    for child in level.classes.values():
        if isinstance(child, list):
            if not child:
                return True
        elif not child.classes or _has_empty_class(child):
            return True
    return False


def _level_weight(key, level):
    return 1.0 + sum(map(ord, repr(key))) % 7 + level


def _leaf_weight(state):
    return 0.0 if state.name % 5 == 0 else 1.0 + state.name % 3


_keys = st.one_of(st.integers(0, 4), st.sampled_from(["a", "b", None, (1, 2)]))
_ops = st.lists(
    st.one_of(st.tuples(st.just("add"), _keys, _keys), st.just(("select",))),
    max_size=60,
)


class TestReferenceEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(
        ops=_ops,
        seed=st.integers(0, 2**16),
        level_weights=st.tuples(st.booleans(), st.booleans()),
        leaf_weighted=st.booleans(),
    )
    def test_same_selections_as_filtering_descent(
        self, ops, seed, level_weights, leaf_weighted
    ):
        weights = [_level_weight if on else None for on in level_weights]
        leaf_weight = _leaf_weight if leaf_weighted else None
        classifiers = [lambda s: s.cls_a, lambda s: s.cls_b]
        tree = CupaTree(classifiers, random.Random(seed), weight_fns=weights)
        reference = _ReferenceTree(classifiers, random.Random(seed), weights)
        for name, op in enumerate(ops):
            if op[0] == "add":
                state = FakeState(op[1], op[2], name)
                tree.add(state)
                reference.add(state)
            else:
                assert tree.select(leaf_weight) is reference.select(leaf_weight)
            assert len(tree) == reference._size
            assert not _has_empty_class(tree._root)
        while len(tree):
            assert tree.select(leaf_weight) is reference.select(leaf_weight)
            assert not _has_empty_class(tree._root)
        assert reference.select(leaf_weight) is None
