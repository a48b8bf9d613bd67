"""Seeded random policies for testing and benchmarks."""

from __future__ import annotations

import random

from .policy import Policy
from .poset import Poset


def _bit_indices(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def random_policy(n: int, density: float, seed: int) -> Policy:
    """A random n-label policy, deterministic per seed.

    Samples a DAG on a shuffled linear order with the given edge
    probability, transitively reduces it to covers, and assigns user
    counts uniformly from 0..5.
    """
    if n < 1:
        raise ValueError("need at least one element")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be in [0, 1]")
    rng = random.Random(seed)
    labels = [f"x{i}" for i in range(n)]
    order = labels[:]
    rng.shuffle(order)

    direct: list[int] = [0] * n  # position i -> bitmask of sampled successors j > i
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                direct[i] |= 1 << j
    # strict reachability over positions, and the transitive reduction: i < j
    # is a cover when nothing sits strictly between, that is when j is not
    # above any direct successor of i
    above: list[int] = [0] * n
    kept: list[int] = [0] * n  # position i -> bitmask of its covers
    for i in range(n - 1, -1, -1):
        implied = 0
        for j in _bit_indices(direct[i]):
            implied |= above[j]
        above[i] = direct[i] | implied
        kept[i] = direct[i] & ~implied
    covers = [(order[i], order[j]) for i in range(n) for j in _bit_indices(kept[i])]

    counts = {lab: rng.randint(0, 5) for lab in labels}
    return Policy(Poset(labels, covers), counts)
