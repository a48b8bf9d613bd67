"""Finite partially ordered sets of security labels.

A :class:`Poset` is built from its elements plus the cover relation (the
Hasse diagram, given as ``(child, parent)`` pairs with ``child < parent``)
and eagerly computes the reflexive-transitive closure as one bitmask per
element, so every order query afterwards is a couple of integer ops.

Declared covers must be a genuine Hasse diagram: edges that are already
implied transitively are rejected rather than silently dropped, which
catches modeling errors in input files early.

Poset values are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import re
from collections import deque
from typing import Iterable, Sequence

from .errors import (
    CycleDetected,
    DuplicateLabel,
    InvalidLabel,
    InvalidPartition,
    RedundantCover,
    UnknownLabel,
)


# a label: nonempty, no whitespace, and none of the characters or whole
# tokens that the policy and partition files reserve ('>', '#', '=' and the
# section headers)
_LABEL = re.compile(r"(?!(?:elements|covers|users):\Z)[^\s>#=]+")


def _check_label(label: str) -> None:
    if isinstance(label, str) and _LABEL.fullmatch(label):
        return
    if isinstance(label, str) and label.split() == [label]:
        raise InvalidLabel(
            f"bad label {label!r}: '>', '#', '=' and section headers cannot be "
            "written to a policy file"
        )
    raise InvalidLabel(f"bad label {label!r}: must be nonempty with no whitespace")


class Poset:
    """A finite poset over string labels, with O(1) order queries.

    All set-valued query results are tuples sorted by element declaration
    order, so output is deterministic across runs.
    """

    __slots__ = ("elements", "covers", "index", "_up", "_down", "_parents", "_children", "_order")

    def __init__(self, elements: Sequence[str], covers: Iterable[tuple[str, str]] = ()):
        elements = tuple(elements)
        for lab in elements:
            _check_label(lab)
        index = {lab: i for i, lab in enumerate(elements)}
        if len(index) != len(elements):
            seen: set[str] = set()
            for lab in elements:
                if lab in seen:
                    raise DuplicateLabel(f"label {lab!r} declared twice")
                seen.add(lab)

        covers = tuple(covers)
        parents: list[list[int]] = [[] for _ in elements]  # child -> parents
        children: list[list[int]] = [[] for _ in elements]
        kids = [0] * len(elements)  # parent -> mask of its declared children
        get = index.get
        for child, parent in covers:
            ic, ip = get(child), get(parent)
            if ic is None or ip is None:
                lab = child if ic is None else parent
                raise UnknownLabel(f"cover endpoint {lab!r} is not a declared element")
            if ic == ip:
                raise CycleDetected(child)
            bit = 1 << ic
            if kids[ip] & bit:
                raise RedundantCover(f"cover {child!r} < {parent!r} declared twice")
            kids[ip] |= bit
            parents[ic].append(ip)
            children[ip].append(ic)

        self.elements = elements
        self.covers = covers
        self.index = index
        # the covers by index: each element's cover parents and children, in
        # declaration order of the covers, and a bottom-up order
        self._parents, self._children = parents, children
        self._down, self._up, self._order = self._closure(parents, children)
        self._reject_redundant_covers()

    def _closure(
        self, parents: list[list[int]], children: list[list[int]]
    ) -> tuple[list[int], list[int], list[int]]:
        """The down-set and up-set masks of every element, down-sets in a
        topological pass from the minimal elements and up-sets in the same
        order reversed, and that order."""
        n = len(self.elements)
        indeg = [len(children[i]) for i in range(n)]
        queue = deque(i for i in range(n) if indeg[i] == 0)
        down = [0] * n
        order = []
        while queue:
            i = queue.popleft()
            order.append(i)
            mask = 1 << i
            for c in children[i]:
                mask |= down[c]
            down[i] = mask
            for p in parents[i]:
                indeg[p] -= 1
                if indeg[p] == 0:
                    queue.append(p)
        if len(order) != n:
            # walk backwards through unresolved nodes until one repeats
            left = {i for i in range(n) if indeg[i] > 0}
            node = next(iter(left))
            trail = set()
            while node not in trail:
                trail.add(node)
                node = next(c for c in children[node] if c in left)
            raise CycleDetected(self.elements[node])
        up = [0] * n
        for i in reversed(order):
            mask = 1 << i
            for p in parents[i]:
                mask |= up[p]
            up[i] = mask
        return down, up, order

    def _reject_redundant_covers(self) -> None:
        # a cover's up-set and down-set meet in its two ends, and in every
        # label between them when it is implied transitively
        up, down, index = self._up, self._down, self.index
        for child, parent in self.covers:
            if (up[index[child]] & down[index[parent]]).bit_count() > 2:
                raise RedundantCover(
                    f"cover {child!r} < {parent!r} is implied transitively"
                )

    def with_top(self, top: str) -> Poset:
        """This poset plus a new label ``top`` covering its maximal elements.

        Equal to ``Poset(elements + (top,), covers + maximal covers)``, but
        extends the masks already computed instead of checking and closing
        the covers again.
        """
        _check_label(top)
        if top in self.index:
            raise DuplicateLabel(f"label {top!r} declared twice")
        n = len(self.elements)
        bit = 1 << n
        maximal = [i for i, ps in enumerate(self._parents) if not ps]
        new = Poset.__new__(Poset)
        new.elements = self.elements + (top,)
        new.covers = self.covers + tuple((self.elements[i], top) for i in maximal)
        new.index = {**self.index, top: n}
        new._down = self._down + [(bit << 1) - 1]
        new._up = [up | bit for up in self._up] + [bit]
        new._parents = self._parents + [[]]
        for i in maximal:
            new._parents[i] = [n]  # a maximal element has no parent yet
        new._children = self._children + [maximal]
        new._order = self._order + [n]
        return new

    # -- queries ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, label: str) -> bool:
        return label in self.index

    def __repr__(self) -> str:
        return f"Poset({len(self.elements)} elements, {len(self.covers)} covers)"

    def _i(self, label: str) -> int:
        try:
            return self.index[label]
        except KeyError:
            raise UnknownLabel(f"unknown label {label!r}") from None

    def _labels(self, mask: int) -> tuple[str, ...]:
        out = []
        while mask:
            low = mask & -mask
            out.append(self.elements[low.bit_length() - 1])
            mask ^= low
        return tuple(out)

    def leq(self, y: str, x: str) -> bool:
        """True iff ``y <= x``."""
        return bool(self._down[self._i(x)] >> self._i(y) & 1)

    def lt(self, y: str, x: str) -> bool:
        return y != x and self.leq(y, x)

    def up_set(self, x: str) -> tuple[str, ...]:
        """All labels ``>= x``, in declaration order (always contains x)."""
        return self._labels(self._up[self._i(x)])

    def down_set(self, x: str) -> tuple[str, ...]:
        """All labels ``<= x``, in declaration order."""
        return self._labels(self._down[self._i(x)])

    def up_size(self, x: str) -> int:
        return self._up[self._i(x)].bit_count()

    def maximal_elements(self) -> tuple[str, ...]:
        """The labels with no upper cover, in declaration order."""
        return tuple(x for x, ps in zip(self.elements, self._parents) if not ps)

    def minimal_elements(self) -> tuple[str, ...]:
        """The labels with no lower cover, in declaration order."""
        return tuple(x for x, cs in zip(self.elements, self._children) if not cs)

    def maximum(self) -> str | None:
        """The unique maximum element, or None if there is none."""
        maxs = self.maximal_elements()
        return maxs[0] if len(maxs) == 1 else None

    def width(self) -> int:
        """Maximum antichain size.

        Computed as |X| minus a maximum matching of the strict-order
        bipartite graph (minimum chain cover, which Dilworth's theorem
        equates with the maximum antichain size): the number of chain
        bottoms of :meth:`_chain_children`.
        """
        if not self.elements:
            raise ValueError("width of an empty poset is undefined")
        return self._chain_children().count(-1)

    def _chain_children(self) -> list[int]:
        """Each label's chain child, by index, in a maximum matching of the
        strict-order bipartite graph, -1 for a chain bottom: the chains
        partition the poset into :meth:`width` chains (Fulkerson 1956).

        The matching is seeded along the covers: top-down, each label takes
        a cover parent that no label has taken yet. Augmenting paths are
        then searched once from each label the seed leaves unmatched. A
        label with no augmenting path never gains one when later paths are
        flipped, so none is left at the end, and by Berge's theorem the
        matching is maximum. Paths are searched on an explicit stack, so
        depth is not bounded by recursion.
        """
        n = len(self.elements)
        up, parents = self._up, self._parents
        match_of = [-1] * n  # right vertex -> its left vertex, -1 while free
        free = (1 << n) - 1  # right vertices not yet matched
        unmatched = []
        for i in reversed(self._order):  # top-down
            for p in parents[i]:
                if match_of[p] < 0:
                    match_of[p] = i
                    free ^= 1 << p
                    break
            else:
                unmatched.append(i)
        for i in unmatched:
            # path: the right vertices leading from i to the left vertex searched
            path, seen = [], 0
            while True:
                v = match_of[path[-1]] if path else i  # the left vertex searched
                cand = (up[v] ^ 1 << v) & ~seen
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
        return match_of

    def is_chain_partition(self, blocks: Iterable[Iterable[str]]) -> bool:
        """True iff the blocks are disjoint chains that cover all elements.

        A block may list its labels in any order, and empty blocks are
        ignored. An unknown label in any block is an error, not a False.
        """
        try:
            self._chain_index([c for c in map(self.descending, blocks) if c])
        except InvalidPartition:
            return False
        return True

    def _chain_index(self, chains: Sequence[Sequence[str]]) -> list[int]:
        """The chain number of every label, in declaration order, if chains
        given top-first partition the poset.

        Otherwise raises ``InvalidPartition`` for the first fault in this
        order: chain by chain, an empty chain or a label not strictly below
        the one before it (tested as ``lt`` does, the upper label looked up
        first); then an unknown label anywhere raises ``UnknownLabel``;
        last, a label in two chains or in none.
        """
        for chain in chains:
            if not chain:
                raise InvalidPartition("empty chain")
            for hi, lo in zip(chain, chain[1:]):
                if lo == hi or not self._down[self._i(hi)] >> self._i(lo) & 1:
                    raise InvalidPartition(f"chain not in descending order at {hi!r} > {lo!r}")
        chain_of = [-1] * len(self)
        for c, chain in enumerate(chains):
            for lab in chain:
                chain_of[self._i(lab)] = c
        # descending chains repeat no label: len(self) labels in all that cover are disjoint
        if sum(map(len, chains)) != len(self) or -1 in chain_of:
            raise InvalidPartition("chains are not disjoint or do not cover the poset")
        return chain_of

    def descending(self, labels: Iterable[str]) -> tuple[str, ...]:
        """Sort the labels of a chain from top to bottom."""
        return tuple(
            sorted(labels, key=lambda x: (-self._down[self._i(x)].bit_count(), self._i(x)))
        )

    def ordered(self, labels: Iterable[str]) -> tuple[str, ...]:
        """Sort labels by declaration order (deterministic reporting)."""
        return tuple(sorted(labels, key=self._i))

    def linear_extension(self) -> tuple[str, ...]:
        """A linear extension of the order, ties broken by declaration order."""
        return tuple(
            sorted(
                self.elements,
                key=lambda x: (self._down[self.index[x]].bit_count(), self.index[x]),
            )
        )
