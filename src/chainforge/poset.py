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

from collections import deque
from typing import Iterable, Sequence

from .errors import (
    CycleDetected,
    DuplicateLabel,
    InvalidLabel,
    RedundantCover,
    UnknownLabel,
)


# characters and whole tokens that the policy and partition files reserve
_RESERVED_CHARS = ">#="
_SECTION_HEADERS = ("elements:", "covers:", "users:")


def _check_label(label: str) -> None:
    if not isinstance(label, str) or not label or any(c.isspace() for c in label):
        raise InvalidLabel(f"bad label {label!r}: must be nonempty with no whitespace")
    if any(c in _RESERVED_CHARS for c in label) or label in _SECTION_HEADERS:
        raise InvalidLabel(
            f"bad label {label!r}: '>', '#', '=' and section headers cannot be "
            "written to a policy file"
        )


class Poset:
    """A finite poset over string labels, with O(1) order queries.

    All set-valued query results are tuples sorted by element declaration
    order, so output is deterministic across runs.
    """

    __slots__ = ("elements", "covers", "index", "_up", "_down")

    def __init__(self, elements: Sequence[str], covers: Iterable[tuple[str, str]] = ()):
        elements = tuple(elements)
        for lab in elements:
            _check_label(lab)
        index: dict[str, int] = {}
        for i, lab in enumerate(elements):
            if lab in index:
                raise DuplicateLabel(f"label {lab!r} declared twice")
            index[lab] = i

        covers = tuple(covers)
        parents: list[list[int]] = [[] for _ in elements]  # child -> parents
        children: list[list[int]] = [[] for _ in elements]
        seen_arcs: set[tuple[int, int]] = set()
        for child, parent in covers:
            for lab in (child, parent):
                if lab not in index:
                    raise UnknownLabel(f"cover endpoint {lab!r} is not a declared element")
            ic, ip = index[child], index[parent]
            if ic == ip:
                raise CycleDetected(child)
            if (ic, ip) in seen_arcs:
                raise RedundantCover(f"cover {child!r} < {parent!r} declared twice")
            seen_arcs.add((ic, ip))
            parents[ic].append(ip)
            children[ip].append(ic)

        self.elements = elements
        self.covers = covers
        self.index = index
        self._down, self._up = self._closure(parents, children)
        self._reject_redundant_covers()

    def _closure(
        self, parents: list[list[int]], children: list[list[int]]
    ) -> tuple[list[int], list[int]]:
        """The down-set and up-set masks of every element: down-sets in a
        topological pass from the minimal elements, up-sets in the same
        order reversed."""
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
        return down, up

    def _reject_redundant_covers(self) -> None:
        for child, parent in self.covers:
            ic, ip = self.index[child], self.index[parent]
            between = self._up[ic] & self._down[ip] & ~(1 << ic) & ~(1 << ip)
            if between:
                raise RedundantCover(
                    f"cover {child!r} < {parent!r} is implied transitively"
                )

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
        return tuple(x for x in self.elements if self._up[self.index[x]].bit_count() == 1)

    def minimal_elements(self) -> tuple[str, ...]:
        return tuple(x for x in self.elements if self._down[self.index[x]].bit_count() == 1)

    def maximum(self) -> str | None:
        """The unique maximum element, or None if there is none."""
        maxs = self.maximal_elements()
        return maxs[0] if len(maxs) == 1 else None

    def width(self) -> int:
        """Maximum antichain size.

        Computed as |X| minus a maximum matching of the strict-order
        bipartite graph (minimum chain cover, which Dilworth's theorem
        equates with the maximum antichain size). Augmenting paths are
        searched on an explicit stack, so depth is not bounded by recursion.
        """
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

    def is_chain_partition(self, blocks: Iterable[Iterable[str]]) -> bool:
        """True iff the blocks are disjoint chains that cover all elements.

        Each block is walked top-first, and every label must lie strictly
        below the one before it. An unknown label in any block is an error,
        not a False.
        """
        chains = [self.descending(b) for b in blocks]
        seen = 0
        for chain in chains:
            below = -1  # every bit: any label may top a chain
            for lab in chain:
                i = self.index[lab]
                bit = 1 << i
                if not below & bit or seen & bit:
                    return False
                seen |= bit
                below = self._down[i] ^ bit
        return seen == (1 << len(self.elements)) - 1

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
