"""``Poset.width`` against the matching it replaced, past brute-force size.

The width seeds its matching along the covers and then searches augmenting
paths only from the labels the seed leaves unmatched. The reference below
is the earlier routine, kept verbatim: one augmenting-path search from
every label over precomputed successor masks. Both must give the same
width on random policies with and without a synthetic top, on fences in
both declaration orders and on total orders deep enough that a recursive
search would overflow the stack.
"""

from __future__ import annotations

import random

import pytest

from chainforge import Poset
from chainforge.gen import random_policy
from chainforge.policy import augment_with_maximum


def ref_width(self) -> int:
    n = len(self.elements)
    if n == 0:
        raise ValueError("width of an empty poset is undefined")
    succ = [self._up[i] & ~(1 << i) for i in range(n)]
    match_of = [0] * n  # right vertex -> its left vertex, once not free
    free = (1 << n) - 1  # right vertices not yet matched
    for i in range(n):
        # path: the right vertices leading from i to the left vertex searched
        path, seen = [], 0
        while True:
            cand = succ[match_of[path[-1]] if path else i] & ~seen
            pick = cand & free or cand  # an unmatched successor first
            if pick:
                low = pick & -pick
                seen |= low
                path.append(low.bit_length() - 1)
                if low & free:
                    free ^= low
                    lefts = [i] + [match_of[j] for j in path[:-1]]
                    for left, right in zip(lefts, path):
                        match_of[right] = left
                    break
            elif path:
                path.pop()
            else:
                break
    # each unmatched right vertex is the bottom of one chain in the cover
    return free.bit_count()


def fence(tops: int, reverse: bool) -> Poset:
    """b_i < t_i and b_i < t_(i-1), tops declared first, in increasing or
    reversed order."""
    t = [f"t{i}" for i in range(tops)]
    b = [f"b{i}" for i in range(tops)]
    covers = [(b[i], t[i]) for i in range(tops)] + [(b[i], t[i - 1]) for i in range(1, tops)]
    return Poset((t[::-1] if reverse else t) + b, covers)


def total_order(n: int, top_first: bool) -> Poset:
    labels = [f"c{i}" for i in range(n)]
    covers = [(labels[i], labels[i + 1]) for i in range(n - 1)]
    return Poset(labels[::-1] if top_first else labels, covers)


def shuffled(p: Poset, rng: random.Random) -> Poset:
    """The same order with labels and covers declared in a random order."""
    labels, covers = list(p.elements), list(p.covers)
    rng.shuffle(labels)
    rng.shuffle(covers)
    return Poset(labels, covers)


def matching_chains(p: Poset) -> list[list[str]]:
    """The chains of the width's matching, each walked down its chain
    children from a label that is no label's chain child."""
    child = p._chain_children()
    chains = []
    for top in sorted(set(range(len(p))) - set(child)):
        chain = [top]
        while child[chain[-1]] >= 0:
            chain.append(child[chain[-1]])
        chains.append([p.elements[i] for i in chain])
    return chains


def test_small_posets_in_any_declaration_order():
    rng = random.Random(5)
    for i in range(600):
        p = random_policy(rng.randint(1, 30), rng.choice((0.05, 0.1, 0.2, 0.4, 0.8)), i).poset
        for q in (p, shuffled(p, rng), p.with_top("r")):
            assert q.width() == ref_width(q)
            # the matching itself is a partition into width-many chains
            chains = matching_chains(q)
            assert q.is_chain_partition(chains) and len(chains) == q.width()


@pytest.mark.parametrize("n, density", [(50, 0.2), (100, 0.2), (200, 0.1), (400, 0.05), (800, 0.05)])
@pytest.mark.parametrize("top", [False, True], ids=["plain", "with-top"])
def test_random_policies(n, density, top):
    rng = random.Random(n)
    for seed in range(n, n + 3):
        policy = random_policy(n, density, seed)
        if top:
            policy = augment_with_maximum(policy)[0]
        for p in (policy.poset, shuffled(policy.poset, rng)):
            assert p.width() == ref_width(p)


@pytest.mark.parametrize("tops", [1, 2, 3, 250, 1000, 1500])
@pytest.mark.parametrize("reverse", [False, True], ids=["increasing", "reversed"])
def test_fences(tops, reverse):
    p = fence(tops, reverse)
    assert p.width() == ref_width(p) == tops


@pytest.mark.parametrize("n", [1, 2, 200, 1200, 2000])
@pytest.mark.parametrize("top_first", [False, True], ids=["bottom-first", "top-first"])
def test_total_orders(n, top_first):
    p = total_order(n, top_first)
    assert p.width() == ref_width(p) == 1
