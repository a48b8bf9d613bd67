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

A partition stores its chains as tuples of tuples, whatever it is built
from, so it cannot change after a check. It is checked against a poset
once. The first check of it on a poset (a metric's,
``attach_to_maximum``'s or ``ChainPartition.from_blocks``'s), which also
returns each label's chain number, binds the partition to that poset
(compared by identity) with those chain numbers, and every later metric
on the same poset reads them instead of checking again; the bundle sizes
are computed once into the same binding when a metric first needs them.
The three ``issued_secrets`` formulas share only the checked chain
numbers, never a result. ``bundle_labels`` checks the
partition on every call. A top-first chain meets the down-set of x in a
suffix, so x's bundle takes from each chain its first label inside x's
down-set mask. Bundle sizes for all labels at once come from one bottom-up
pass over the covers instead, seeded with each label's own chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
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
    def _checked(cls, poset: Poset, user_count: dict[str, int]) -> "Policy":
        """A policy that keeps ``user_count`` as it is: a valid count for
        every label of the poset, in declaration order, checked by the
        caller."""
        policy = cls.__new__(cls)
        policy.poset = poset
        policy.user_count = user_count
        return policy

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
    """Disjoint chains covering a poset; each chain is stored top-first.

    The chains are stored as a tuple of tuples whatever sequences they are
    given as, so a partition built from lists equals, hashes and prints as
    its tuple twin and keeps its chains when the lists change.
    """

    chains: tuple[tuple[str, ...], ...]
    # the _Binding to the poset this partition was last checked against
    # (see _bound): never set by the constructor, and not part of ==, hash
    # or repr
    _binding = None

    def __post_init__(self) -> None:
        # a frozen dataclass: the chains are set past its __setattr__
        object.__setattr__(self, "chains", tuple(map(tuple, self.chains)))

    @classmethod
    def from_blocks(cls, poset: Poset, blocks: Iterable[Iterable[str]]) -> "ChainPartition":
        """Validate blocks as a chain partition and order each one top-first.
        The partition is returned bound to the poset, as its first check
        by a metric would bind it."""
        blocks = [tuple(b) for b in blocks]
        if any(not b for b in blocks):
            raise InvalidPartition("empty chain")
        pi = cls(tuple(map(poset.descending, blocks)))
        try:
            _bound(poset, pi)
        except InvalidPartition:
            raise InvalidPartition("blocks are not disjoint chains covering the poset") from None
        return pi

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


class _Binding:
    """A partition's check against one poset: the poset, each label's chain
    number as ``Poset._chain_index`` returns it, and the bundle sizes once a
    metric needs them."""

    __slots__ = ("poset", "chain_index", "sizes")

    def __init__(self, poset: Poset, chain_index: list[int]):
        self.poset = poset
        self.chain_index = chain_index
        self.sizes: list[int] | None = None


def _bind(pi: ChainPartition, binding: _Binding) -> None:
    # a frozen dataclass: the binding is set past its __setattr__
    object.__setattr__(pi, "_binding", binding)


def _bound(p: Poset, pi: ChainPartition) -> _Binding:
    """The partition's binding to p. A partition not bound to p is checked
    first, raising ``InvalidPartition`` or ``UnknownLabel`` as
    ``Poset._chain_index`` does, and is bound to p."""
    binding = pi._binding
    if binding is None or binding.poset is not p:
        binding = _Binding(p, p._chain_index(pi.chains))
        _bind(pi, binding)
    return binding


def _sizes(p: Poset, pi: ChainPartition) -> list[int]:
    """The bundle sizes of the partition's binding to p, computed once."""
    binding = _bound(p, pi)
    if binding.sizes is None:
        binding.sizes = _bundle_sizes(p, binding.chain_index)
    return binding.sizes


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
    return max(_sizes(policy.poset, pi), default=0)


def total_secrets(policy: Policy, pi: ChainPartition) -> int:
    """Sum of bundle sizes over all labels (user counts ignored)."""
    return sum(_sizes(policy.poset, pi))


def issued_secrets(policy: Policy, pi: ChainPartition) -> int:
    """Total secrets issued to users: bundle size weighted by user count."""
    p = policy.poset
    sizes = _sizes(p, pi)
    return sum(map(mul, map(policy.user_count.__getitem__, p.elements), sizes))


def derivation_tree(policy: Policy, pi: ChainPartition) -> DerivationTree:
    """The tree over all labels: in-chain parent links, with every other
    chain top attached directly under the unique maximum."""
    root = policy.poset.maximum()
    if root is None:
        raise NoMaximum("derivation tree requires a unique maximum element")
    _bound(policy.poset, pi)
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


def _count_groups(policy: Policy) -> list[tuple[int, int]]:
    """Each nonzero user count with the mask of the labels that have it."""
    by_count: dict[int, int] = {}
    for i, c in enumerate(map(policy.user_count.__getitem__, policy.poset.elements)):
        if c:
            by_count[c] = by_count.get(c, 0) | 1 << i
    return list(by_count.items())


def _users_in(policy: Policy) -> Callable[[int], int]:
    """The number of users at the labels of a mask, summed per user count:
    one mask operation per distinct count."""
    groups = _count_groups(policy)
    return lambda mask: sum(c * (mask & m).bit_count() for c, m in groups)


def _users_in_all(policy: Policy, masks: list[int]) -> int:
    """The number of users at the labels of each mask, summed over the
    masks: one pass over all of them per distinct user count."""
    return sum(
        c * sum(map(int.bit_count, map(m.__and__, masks)))
        for c, m in _count_groups(policy)
    )


def issued_secrets_via_tree(policy: Policy, pi: ChainPartition) -> int:
    """Recompute ``issued_secrets`` from the derivation tree: the root's
    users pay once per chain, and each tree link is paid for by exactly the
    classes that must hold the child's secret (see ``secret_holders``)."""
    tree = derivation_tree(policy, pi)
    p = policy.poset
    up, index = p._up, p.index
    holders = [up[index[child]] & ~up[index[parent]] for child, parent in tree.parent.items()]
    return len(pi.chains) * policy.count(tree.root) + _users_in_all(policy, holders)


def issued_secrets_via_bottoms(policy: Policy, pi: ChainPartition) -> int:
    """Recompute ``issued_secrets`` from chain bottoms alone: each bottom is
    paid for by every user at or above it."""
    p = policy.poset
    _bound(p, pi)
    up, index = p._up, p.index
    return _users_in_all(policy, [up[index[b]] for b in pi.bottoms])


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
    return Policy._checked(p.with_top(top), {**policy.user_count, top: 0}), top, True


def attach_to_maximum(policy: Policy, pi: ChainPartition) -> tuple[Policy, ChainPartition]:
    """Lift a partition onto the maximum-augmented policy.

    When a synthetic top is added it extends the chain whose top has the
    largest declaration index; bottoms are unchanged, so every metric is
    preserved. No-op when the poset already has a maximum. Otherwise the
    partition is checked against the policy's poset first, unless it is
    bound to it, raising ``InvalidPartition`` or ``UnknownLabel`` as the
    metrics do; the lifted partition is bound to the new poset from that
    binding without a second check: the top lies above every label and
    takes the host chain's number.
    """
    policy2, top, added = augment_with_maximum(policy)
    if not added:
        return policy2, pi
    p = policy.poset
    binding = _bound(p, pi)
    host = max(range(len(pi.chains)), key=lambda i: p.index[pi.chains[i][0]])
    lifted = ChainPartition(tuple(
        (top,) + c if i == host else c for i, c in enumerate(pi.chains)
    ))
    # the top is the new poset's last label
    _bind(lifted, _Binding(policy2.poset, binding.chain_index + [host]))
    return policy2, lifted
