"""``Poset``'s extremal queries against the popcounts they replaced.

``maximal_elements`` and ``minimal_elements`` read the cover lists: a
label is maximal exactly when it has no upper cover, minimal when it has
no lower one. The references below are the earlier routines, kept
verbatim, which popcount every up-set or down-set mask (``ref_maximum``
calls the reference ``ref_maximal_elements``). Both must agree on random
posets of every density the tests use, in any declaration order, on
fences, total orders, ``with_top`` results and one-label posets.
"""

from __future__ import annotations

import random

import pytest

from chainforge import Poset
from chainforge.gen import random_policy

# -- references: the queries before they read the cover lists ----------------


def ref_maximal_elements(self) -> tuple[str, ...]:
    return tuple(x for x, up in zip(self.elements, self._up) if up.bit_count() == 1)


def ref_minimal_elements(self) -> tuple[str, ...]:
    return tuple(x for x, down in zip(self.elements, self._down) if down.bit_count() == 1)


def ref_maximum(self) -> str | None:
    """The unique maximum element, or None if there is none."""
    maxs = ref_maximal_elements(self)
    return maxs[0] if len(maxs) == 1 else None


# -- shapes ----------------------------------------------------------------------

DENSITIES = (0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.8, 1.0)


def fence(tops: int, reverse: bool) -> Poset:
    t = [f"t{i}" for i in range(tops)]
    b = [f"b{i}" for i in range(tops)]
    covers = [(b[i], t[i]) for i in range(tops)] + [(b[i], t[i - 1]) for i in range(1, tops)]
    return Poset((t[::-1] if reverse else t) + b, covers)


def total_order(n: int, top_first: bool) -> Poset:
    labels = [f"c{i}" for i in range(n)]
    covers = [(labels[i], labels[i + 1]) for i in range(n - 1)]
    return Poset(labels[::-1] if top_first else labels, covers)


def shuffled(p: Poset, rng: random.Random) -> Poset:
    labels, covers = list(p.elements), list(p.covers)
    rng.shuffle(labels)
    rng.shuffle(covers)
    return Poset(labels, covers)


def assert_same(p: Poset) -> None:
    assert p.maximal_elements() == ref_maximal_elements(p)
    assert p.minimal_elements() == ref_minimal_elements(p)
    assert p.maximum() == ref_maximum(p)
    # with_top covers the maximal elements, and its result is the poset
    # built anew with those covers
    q = p.with_top("new-top")
    rebuilt = Poset(p.elements + ("new-top",), p.covers + tuple((m, "new-top") for m in ref_maximal_elements(p)))
    assert q.covers == rebuilt.covers
    assert (q._up, q._down, q._parents, q._children) == (
        rebuilt._up, rebuilt._down, rebuilt._parents, rebuilt._children,
    )
    assert q.maximal_elements() == ref_maximal_elements(q) == ("new-top",)
    assert q.minimal_elements() == ref_minimal_elements(q)
    assert q.maximum() == ref_maximum(q) == "new-top"


@pytest.mark.parametrize("density", DENSITIES)
def test_random_posets(density):
    rng = random.Random(int(density * 100))
    for i in range(40):
        p = random_policy(rng.randint(1, 60), density, seed=7000 + i).poset
        assert_same(p)
        assert_same(shuffled(p, rng))


@pytest.mark.parametrize("tops", [1, 2, 3, 250])
@pytest.mark.parametrize("reverse", [False, True], ids=["increasing", "reversed"])
def test_fences(tops, reverse):
    assert_same(fence(tops, reverse))


@pytest.mark.parametrize("n", [1, 2, 3, 200])
@pytest.mark.parametrize("top_first", [False, True], ids=["bottom-first", "top-first"])
def test_total_orders(n, top_first):
    p = total_order(n, top_first)
    assert_same(p)
    assert p.maximum() == f"c{n - 1}"


def test_one_label_posets():
    for label in ("solo", "r", "new-top-2"):
        p = Poset([label])
        assert_same(p)
        assert p.maximal_elements() == p.minimal_elements() == (label,)
        assert p.maximum() == label


def test_nested_with_top():
    # a with_top result built on another: its cover lists are extended,
    # not rebuilt, so the queries must read them right
    rng = random.Random(11)
    for i, density in enumerate(DENSITIES):
        p = random_policy(rng.randint(1, 30), density, seed=7100 + i).poset
        assert_same(p.with_top("r"))
        assert_same(p.with_top("r").with_top("r2"))
