"""Shared fixtures: the 8-element demo policy, its three reference
partitions, and slow-but-obvious oracles for cross-checking."""

from __future__ import annotations

import itertools
import random

import pytest

from chainforge import ChainPartition, Policy, Poset
from chainforge.gen import random_policy

DEMO_ELEMENTS = tuple("abcdefgh")
DEMO_COVERS = (
    ("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("c", "e"),
    ("d", "f"), ("d", "g"), ("e", "g"), ("f", "h"), ("g", "h"),
)

# three hand-picked chain partitions of the demo poset, from widest to best
PART_A_BLOCKS = [["a", "b"], ["c", "e"], ["d", "g"], ["f", "h"]]
PART_B_BLOCKS = [["a", "b"], ["c", "d", "f"], ["e", "g", "h"]]
PART_C_BLOCKS = [["a", "c", "e", "g"], ["b", "d", "f", "h"]]


@pytest.fixture(scope="session")
def demo_poset() -> Poset:
    return Poset(DEMO_ELEMENTS, DEMO_COVERS)


@pytest.fixture(scope="session")
def demo_unit(demo_poset) -> Policy:
    return Policy.unit(demo_poset)


@pytest.fixture(scope="session")
def part_a(demo_poset) -> ChainPartition:
    return ChainPartition.from_blocks(demo_poset, PART_A_BLOCKS)


@pytest.fixture(scope="session")
def part_b(demo_poset) -> ChainPartition:
    return ChainPartition.from_blocks(demo_poset, PART_B_BLOCKS)


@pytest.fixture(scope="session")
def part_c(demo_poset) -> ChainPartition:
    return ChainPartition.from_blocks(demo_poset, PART_C_BLOCKS)


def enumerate_min_cost(net):
    """Oracle: try every integral assignment within the arc bounds and keep
    the cheapest feasible one. Only for tiny networks."""
    from chainforge.flow import flow_cost, is_feasible

    arcs = list(net.arcs)
    assert len(arcs) <= 12
    ranges = [range(net.arcs[a].lower, net.arcs[a].upper + 1) for a in arcs]
    best = None
    for combo in itertools.product(*ranges):
        f = dict(zip(arcs, combo))
        if is_feasible(net, f):
            c = flow_cost(net, f)
            if best is None or c < best:
                best = c
    return best


def brute_max_antichain(poset: Poset) -> int:
    """Oracle for width: largest pairwise-incomparable subset, by scanning
    all subsets. Only for small posets."""
    assert len(poset) <= 10
    best = 0
    for r in range(1, len(poset) + 1):
        for sub in itertools.combinations(poset.elements, r):
            if all(
                not poset.leq(x, y) and not poset.leq(y, x)
                for x, y in itertools.combinations(sub, 2)
            ):
                best = max(best, r)
    return best


def random_policies(count: int, max_n: int, seed: int, min_n: int = 1):
    """A seeded stream of random policies with varied size and density."""
    rng = random.Random(seed)
    densities = (0.0, 0.15, 0.3, 0.5, 0.8, 1.0)
    for i in range(count):
        n = rng.randint(min_n, max_n)
        d = densities[i % len(densities)]
        yield random_policy(n, d, seed=seed * 100003 + i)
