"""Exhaustive ground truth for small instances.

Enumerates every chain partition of a poset exactly once and scans them
for the minimum number of issued secrets. This is the certification
oracle used against the flow-based optimizer; it stays deliberately
definition-direct and shares no code with the flow path.

Note that a chain is any totally ordered subset: chains in a partition
may skip over elements (e.g. a partition of the 3-chain a < b < c may
place a and c together and b alone), so a total order on n elements has
Bell(n) chain partitions, not 2^(n-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import TooLarge
from .policy import ChainPartition, Policy, issued_secrets
from .poset import Poset

DEFAULT_LIMIT = 9


def enumerate_chain_partitions(p: Poset, limit: int = DEFAULT_LIMIT) -> Iterator[ChainPartition]:
    """Yield every chain partition of the poset exactly once.

    Elements are placed in reverse linear-extension order, so a new
    element can only extend an existing chain at its bottom (or open a new
    chain); this makes each partition reachable by exactly one assignment
    sequence. Chains are reported top-first, ordered by their bottom
    element's declaration index.
    """
    if len(p) > limit:
        raise TooLarge(f"{len(p)} elements exceeds the enumeration cap of {limit}")
    order = list(reversed(p.linear_extension()))
    chains: list[list[str]] = []

    def emit() -> ChainPartition:
        return ChainPartition(
            tuple(sorted((tuple(c) for c in chains), key=lambda c: p.index[c[-1]]))
        )

    def options(x: str) -> Iterator[list[str]]:
        # the chains x can extend at the bottom, then a new chain of its own
        return iter([c for c in chains if p.lt(x, c[-1])] + [[]])

    if not order:
        yield emit()
        return
    # depth-first over the placements, on an explicit stack so that the
    # depth is not bounded by recursion: choices[i] runs through the
    # options of order[i], and placed[i] is the chain it is in now
    choices = [options(order[0])]
    placed: list[list[str]] = []
    while choices:
        i = len(choices) - 1
        if len(placed) > i:  # take back the previous placement of order[i]
            c = placed.pop()
            c.pop()
            if not c:
                chains.pop()
        c = next(choices[-1], None)
        if c is None:
            choices.pop()
            continue
        if not c:
            chains.append(c)
        c.append(order[i])
        placed.append(c)
        if i + 1 == len(order):
            yield emit()
        else:
            choices.append(options(order[i + 1]))


@dataclass(frozen=True)
class OracleReport:
    min_khat: int
    argmin: ChainPartition
    partitions_examined: int
    min_chain_count_at_min: int


def brute_minimum(policy: Policy, limit: int = DEFAULT_LIMIT) -> OracleReport:
    """Scan all chain partitions for the minimum of ``issued_secrets``.

    Returns the minimum, the first partition attaining it, the number of
    partitions examined, and the smallest chain count among all minima.
    """
    best: int | None = None
    argmin: ChainPartition | None = None
    examined = 0
    min_chains = 0
    for pi in enumerate_chain_partitions(policy.poset, limit):
        examined += 1
        k = issued_secrets(policy, pi)
        if best is None or k < best:
            best, argmin, min_chains = k, pi, len(pi.chains)
        elif k == best:
            min_chains = min(min_chains, len(pi.chains))
    return OracleReport(best, argmin, examined, min_chains)
