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

Every metric first runs the poset's partition check, which also returns
each label's chain number. A top-first chain meets the down-set of x in a
suffix, so x's bundle takes from each chain its first label inside x's
down-set mask. Bundle sizes for all labels at once come from one bottom-up
pass over the covers instead, seeded with each label's own chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .errors import InvalidPartition, MalformedFlow, NoMaximum, NotComparable, UnknownLabel
from .poset import Poset


class Policy:
    """A poset plus a nonnegative user count for every label."""

    __slots__ = ("poset", "user_count")

    def __init__(self, poset: Poset, user_count: Mapping[str, int] | None = None):
        counts = {x: 0 for x in poset.elements}
        index = poset.index
        for lab, cnt in (user_count or {}).items():
            if lab not in index:
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
        chains = tuple(map(poset.descending, blocks))
        try:
            poset._chain_index(chains)
        except InvalidPartition:
            raise InvalidPartition("blocks are not disjoint chains covering the poset") from None
        return cls(chains)

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


def _bundle_sizes(p: Poset, chain_index: list[int]) -> list[int]:
    """Bundle size of every label, in declaration order: the number of
    chains that meet its down-set.

    Each label gets the mask of the chain ids in its down-set: its own
    chain's bit (``chain_index`` as ``Poset._chain_index`` returns it) ORed
    with the masks of the labels it covers, in one pass over the covers
    from the bottom up.
    """
    meets = [1 << c for c in chain_index]
    children = p._children
    for i in p._order:
        for c in children[i]:
            meets[i] |= meets[c]
    return [m.bit_count() for m in meets]


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
    p = policy.poset
    p._chain_index(pi.chains)
    down, index = p._down[p._i(x)], p.index
    out = []
    for chain in pi.chains:
        # a top-first chain meets the down-set in a suffix: its first label there
        for z in chain:
            if down >> index[z] & 1:
                out.append(z)
                break
    return p.ordered(out)


def max_bundle_size(policy: Policy, pi: ChainPartition) -> int:
    """Largest bundle size over all labels; 0 on an empty poset."""
    return max(_bundle_sizes(policy.poset, policy.poset._chain_index(pi.chains)), default=0)


def total_secrets(policy: Policy, pi: ChainPartition) -> int:
    """Sum of bundle sizes over all labels (user counts ignored)."""
    return sum(_bundle_sizes(policy.poset, policy.poset._chain_index(pi.chains)))


def issued_secrets(policy: Policy, pi: ChainPartition) -> int:
    """Total secrets issued to users: bundle size weighted by user count."""
    p = policy.poset
    sizes = _bundle_sizes(p, p._chain_index(pi.chains))
    return sum(policy.count(x) * size for x, size in zip(p.elements, sizes))


def derivation_tree(policy: Policy, pi: ChainPartition) -> DerivationTree:
    """The tree over all labels: in-chain parent links, with every other
    chain top attached directly under the unique maximum."""
    root = policy.poset.maximum()
    if root is None:
        raise NoMaximum("derivation tree requires a unique maximum element")
    policy.poset._chain_index(pi.chains)
    parent: dict[str, str] = {}
    for chain in pi.chains:
        for hi, lo in zip(chain, chain[1:]):
            parent[lo] = hi
    for top in pi.tops:
        if top != root:
            parent[top] = root
    return DerivationTree(root=root, parent=parent)


def _chains_from_parents(p: Poset, r: str, w: int, parent: dict[str, str]) -> ChainPartition:
    """The w chains that the chain-parent links (child -> parent, one link
    for every label but the maximum r) form.

    r has w or w - 1 children. The one with the largest declaration index
    continues r's own chain (the choice never affects any metric), the rest
    start their own chains; with w - 1 children r is a chain by itself.
    """
    child_of: dict[str, str] = {}
    roots_children: list[str] = []
    for y, x in parent.items():
        if x == r:
            roots_children.append(y)
        else:
            if x in child_of:
                raise MalformedFlow(f"{x!r} has two chain children")
            child_of[x] = y
    if len(roots_children) not in (w, w - 1):
        raise MalformedFlow(
            f"maximum has {len(roots_children)} chain children, expected {w} or {w - 1}"
        )

    def walk(top: str) -> tuple[str, ...]:
        chain = [top]
        while chain[-1] in child_of:
            chain.append(child_of[chain[-1]])
        return tuple(chain)

    tops = sorted(roots_children, key=p.index.__getitem__)
    if len(tops) == w:
        extend = tops[-1]  # largest declaration index continues r's chain
        chains = [(r,) + walk(extend)]
        chains += [walk(t) for t in tops if t != extend]
    else:
        # r's bottom arc carries the unit: r is a chain by itself
        chains = [(r,)]
        chains += [walk(t) for t in tops]

    if sum(len(c) for c in chains) != len(p):
        raise MalformedFlow("decoded chains do not cover the poset")
    return ChainPartition(tuple(chains))


def _users_in(policy: Policy) -> Callable[[int], int]:
    """The number of users at the labels of a mask, summed per user count:
    one mask operation per distinct count."""
    by_count: dict[int, int] = {}
    for i, c in enumerate(map(policy.user_count.__getitem__, policy.poset.elements)):
        if c:
            by_count[c] = by_count.get(c, 0) | 1 << i
    groups = by_count.items()
    return lambda mask: sum(c * (mask & m).bit_count() for c, m in groups)


def issued_secrets_via_tree(policy: Policy, pi: ChainPartition) -> int:
    """Recompute ``issued_secrets`` from the derivation tree: the root's
    users pay once per chain, and each tree link is paid for by exactly the
    classes that must hold the child's secret (see ``secret_holders``)."""
    tree = derivation_tree(policy, pi)
    p, users_in = policy.poset, _users_in(policy)
    up, index = p._up, p.index
    total = len(pi.chains) * policy.count(tree.root)
    for child, parent in tree.parent.items():
        total += users_in(up[index[child]] & ~up[index[parent]])
    return total


def issued_secrets_via_bottoms(policy: Policy, pi: ChainPartition) -> int:
    """Recompute ``issued_secrets`` from chain bottoms alone: each bottom is
    paid for by every user at or above it."""
    p, users_in = policy.poset, _users_in(policy)
    p._chain_index(pi.chains)
    return sum(users_in(p._up[p.index[b]]) for b in pi.bottoms)


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
    # the source policy's counts are already checked, in declaration order
    augmented = Policy.__new__(Policy)
    augmented.poset = p.with_top(top)
    augmented.user_count = {**policy.user_count, top: 0}
    return augmented, top, True


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
