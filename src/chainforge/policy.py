"""Information flow policies and the cost metrics of their chain partitions.

A policy is a poset of security labels plus a user count per label. Every
cost formula in this package depends only on those counts, never on user
identities.

For a chain partition, each user class receives one secret per chain that
contains a label below (or equal to) its own; the labels of those secrets
are the per-class bundle. The module computes

* ``bundle_labels``     the bundle of a label (one chain suffix maximum each)
* ``max_bundle_size``   the largest bundle over all labels
* ``total_secrets``     sum of bundle sizes, one per label
* ``issued_secrets``    user-weighted sum: total secrets handed to users

plus two deliberately independent recomputations of ``issued_secrets``
(via the derivation tree, and via chain bottoms). These exist as oracles
for cross-validation, not as optimizations, and must always agree.

Bundles are read off the poset's bitmasks: each chain's labels form one
mask, and a chain meets the down-set of x iff that mask shares a bit with
x's down-set mask. A top-first chain meets a down-set in a suffix, so the
bundle element is the first label of that suffix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import InvalidPartition, NoMaximum, NotComparable, UnknownLabel
from .poset import Poset


class Policy:
    """A poset plus a nonnegative user count for every label."""

    __slots__ = ("poset", "user_count")

    def __init__(self, poset: Poset, user_count: Mapping[str, int] | None = None):
        counts = {x: 0 for x in poset.elements}
        for lab, cnt in (user_count or {}).items():
            if lab not in poset:
                raise UnknownLabel(f"user count for unknown label {lab!r}")
            if not isinstance(cnt, int) or isinstance(cnt, bool) or cnt < 0:
                raise ValueError(f"user count for {lab!r} must be a nonnegative integer")
            counts[lab] = cnt
        self.poset = poset
        self.user_count = counts

    @classmethod
    def unit(cls, poset: Poset) -> "Policy":
        return cls(poset, {x: 1 for x in poset.elements})

    def count(self, x: str) -> int:
        try:
            return self.user_count[x]
        except KeyError:
            raise UnknownLabel(f"unknown label {x!r}") from None

    def __repr__(self) -> str:
        return f"Policy({len(self.poset)} labels, {sum(self.user_count.values())} users)"


@dataclass(frozen=True)
class ChainPartition:
    """Disjoint chains covering a poset; each chain is stored top-first."""

    chains: tuple[tuple[str, ...], ...]

    @classmethod
    def from_blocks(cls, poset: Poset, blocks: Iterable[Iterable[str]]) -> "ChainPartition":
        """Validate blocks as a chain partition and order each one top-first."""
        blocks = [tuple(b) for b in blocks]
        if any(not b for b in blocks):
            raise InvalidPartition("empty chain")
        if not poset.is_chain_partition(blocks):
            raise InvalidPartition("blocks are not disjoint chains covering the poset")
        return cls(tuple(poset.descending(b) for b in blocks))

    @property
    def tops(self) -> tuple[str, ...]:
        return tuple(c[0] for c in self.chains)

    @property
    def bottoms(self) -> tuple[str, ...]:
        return tuple(c[-1] for c in self.chains)


@dataclass(frozen=True)
class DerivationTree:
    """Parent links of a chain partition's tree: chain links, plus every
    non-root chain top attached directly under the maximum."""

    root: str
    parent: dict[str, str]  # child -> parent


def _require_partition(policy: Policy, pi: ChainPartition) -> None:
    p = policy.poset
    for chain in pi.chains:
        if not chain:
            raise InvalidPartition("empty chain")
        for hi, lo in zip(chain, chain[1:]):
            if not p.lt(lo, hi):
                raise InvalidPartition(f"chain not in descending order at {hi!r} > {lo!r}")
    if not p.is_chain_partition(pi.chains):
        raise InvalidPartition("chains are not disjoint or do not cover the poset")


def _chain_masks(p: Poset, pi: ChainPartition) -> list[int]:
    """One label bitmask per chain, in chain order."""
    index = p.index
    return [sum(1 << index[z] for z in chain) for chain in pi.chains]


def _bundle_sizes(p: Poset, pi: ChainPartition) -> list[int]:
    """Bundle size of every label, in declaration order: the number of
    chains that meet its down-set."""
    masks = _chain_masks(p, pi)
    return [sum(1 for m in masks if m & down) for down in p._down]


def secret_holders(policy: Policy, parent: str, child: str) -> tuple[str, ...]:
    """Labels whose users must hold the child's secret directly if the child
    is chained under the given parent: everything at or above the child but
    not at or above the parent.

    Contains the child, never the parent, never the poset's maximum.
    """
    p = policy.poset
    if not p.lt(child, parent):
        raise NotComparable(f"{child!r} is not strictly below {parent!r}")
    return p._labels(p._up[p.index[child]] & ~p._up[p.index[parent]])


def link_cost(policy: Policy, parent: str, child: str) -> int:
    """User-weighted size of ``secret_holders``: the number of extra secrets
    incurred by chaining the child under the parent."""
    return sum(policy.count(x) for x in secret_holders(policy, parent, child))


def bundle_labels(policy: Policy, x: str, pi: ChainPartition) -> tuple[str, ...]:
    """The labels whose secrets the user class at ``x`` receives.

    One label per chain that intersects the down-set of ``x``; always
    contains ``x`` itself.
    """
    _require_partition(policy, pi)
    p = policy.poset
    down = p._down[p._i(x)]
    out = []
    for chain, mask in zip(pi.chains, _chain_masks(p, pi)):
        below = mask & down
        if below:
            # the chain's suffix below x starts at its first such label
            out.append(chain[-below.bit_count()])
    return p.ordered(out)


def max_bundle_size(policy: Policy, pi: ChainPartition) -> int:
    _require_partition(policy, pi)
    return max(_bundle_sizes(policy.poset, pi))


def total_secrets(policy: Policy, pi: ChainPartition) -> int:
    """Sum of bundle sizes over all labels (user counts ignored)."""
    _require_partition(policy, pi)
    return sum(_bundle_sizes(policy.poset, pi))


def issued_secrets(policy: Policy, pi: ChainPartition) -> int:
    """Total secrets issued to users: bundle size weighted by user count."""
    _require_partition(policy, pi)
    p = policy.poset
    return sum(policy.count(x) * size for x, size in zip(p.elements, _bundle_sizes(p, pi)))


def derivation_tree(policy: Policy, pi: ChainPartition) -> DerivationTree:
    """The tree over all labels: in-chain parent links, with every other
    chain top attached directly under the unique maximum."""
    root = policy.poset.maximum()
    if root is None:
        raise NoMaximum("derivation tree requires a unique maximum element")
    _require_partition(policy, pi)
    parent: dict[str, str] = {}
    for chain in pi.chains:
        for hi, lo in zip(chain, chain[1:]):
            parent[lo] = hi
    for top in pi.tops:
        if top != root:
            parent[top] = root
    return DerivationTree(root=root, parent=parent)


def issued_secrets_via_tree(policy: Policy, pi: ChainPartition) -> int:
    """Recompute ``issued_secrets`` from the derivation tree: the root's
    users pay once per chain, and each tree link is paid for by exactly the
    classes that must hold the child's secret."""
    tree = derivation_tree(policy, pi)
    total = len(pi.chains) * policy.count(tree.root)
    for child, parent in tree.parent.items():
        total += link_cost(policy, parent, child)
    return total


def issued_secrets_via_bottoms(policy: Policy, pi: ChainPartition) -> int:
    """Recompute ``issued_secrets`` from chain bottoms alone: each bottom is
    paid for by every user at or above it."""
    _require_partition(policy, pi)
    p = policy.poset
    return sum(policy.count(x) for b in pi.bottoms for x in p.up_set(b))


def augment_with_maximum(policy: Policy) -> tuple[Policy, str, bool]:
    """Policy with a guaranteed unique maximum.

    Returns ``(policy, top, added)``. A policy whose poset already has a
    maximum is returned itself. Otherwise a fresh synthetic top (``r``, or
    ``r1``, ``r2``, ... if taken) covers every maximal element and carries
    user count zero, so all metrics are unchanged. Idempotent.
    """
    p = policy.poset
    if len(p) == 0:
        raise ValueError("cannot add a maximum to an empty poset")
    top = p.maximum()
    if top is not None:
        return policy, top, False
    top, k = "r", 0
    while top in p:
        k += 1
        top = f"r{k}"
    covers = p.covers + tuple((m, top) for m in p.maximal_elements())
    counts = dict(policy.user_count)
    counts[top] = 0
    return Policy(Poset(p.elements + (top,), covers), counts), top, True


def attach_to_maximum(policy: Policy, pi: ChainPartition) -> tuple[Policy, ChainPartition]:
    """Lift a partition onto the maximum-augmented policy.

    When a synthetic top is added it extends the chain whose top has the
    largest declaration index; bottoms are unchanged, so every metric is
    preserved. No-op when the poset already has a maximum.
    """
    policy2, top, added = augment_with_maximum(policy)
    if not added:
        return policy2, pi
    p = policy.poset
    host = max(range(len(pi.chains)), key=lambda i: p.index[pi.chains[i][0]])
    chains = tuple(
        (top,) + c if i == host else c for i, c in enumerate(pi.chains)
    )
    return policy2, ChainPartition(chains)
