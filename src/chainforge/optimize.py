"""End-to-end chain partition optimization.

Pipeline: guarantee a unique maximum (synthetic, zero users, if needed),
solve the paper's min-cost flow on the poset's bitmasks (which also gives
the width w), read the chain-parent links back into a chain partition with
exactly w chains, strip the synthetic maximum again, and report the
metrics.

The result minimizes the total number of issued secrets over all chain
partitions while no user class ever holds more than w secrets. The flow
network of :mod:`chainforge.flow`, solved by :func:`min_cost_flow` and
decoded by :func:`partition_from_flow`, stays as the oracle that the
bitmask solver is tested against.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import accumulate
from operator import or_

from .errors import InternalError, MalformedFlow, NoMaximum, NotAFeasibleFlow

# eliminate_lower_bounds, min_cost_flow and restore_lower_bounds are not
# called here; they stay imported because bench/spans.py wraps the flow
# oracle's stages under these names in this module.
from .flow import (
    Flow,
    build_flow_network,
    eliminate_lower_bounds,
    is_feasible,
    min_cost_flow,
    restore_lower_bounds,
    vout,
)
from .policy import (
    ChainPartition,
    Policy,
    augment_with_maximum,
    issued_secrets,
    issued_secrets_via_bottoms,
    issued_secrets_via_tree,
    attach_to_maximum,
    max_bundle_size,
)
from .poset import Poset


@dataclass(frozen=True)
class OptimizationResult:
    partition: ChainPartition
    khat: int
    width: int
    flow_cost: int
    kmax: int


def partition_from_flow(policy: Policy, flow: Flow) -> ChainPartition:
    """Decode a feasible flow on the policy's network into the chain
    partition it encodes.

    Unit flow on out(x) -> in(y) makes x the chain-parent of y; the chains
    are read off those links as :func:`_chains_from_parents` describes.
    w is read from the network's balance at out(r).
    """
    p = policy.poset
    r = p.maximum()
    if r is None:
        raise NoMaximum("flow decoding requires a unique maximum element")
    net = build_flow_network(policy)
    w = net.balance[vout(r)]

    parent: dict[str, str] = {}
    for (u, v), a in net.arcs.items():
        if u[0] == "out" and v[0] == "in" and flow.get((u, v), 0) == 1:
            child, par = v[1], u[1]
            if child in parent:
                raise MalformedFlow(f"{child!r} has two chain parents")
            parent[child] = par
    missing = [x for x in p.elements if x != r and x not in parent]
    if missing:
        raise MalformedFlow(f"{missing[0]!r} has no chain parent")

    pi = _chains_from_parents(p, r, w, parent)
    if not is_feasible(net, flow):
        raise NotAFeasibleFlow("flow violates capacity or balance constraints")
    return pi


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


def _chain_parents(work: Policy) -> tuple[dict[str, str], int, int]:
    """Solve the min-cost flow of ``build_flow_network(work)`` on the
    poset's bitmasks, without building the network.

    Returns the chain-parent links (child -> parent, one for every label
    but the maximum r), the width w, and the flow cost: the sum of
    W(up y) - W(up x) over the links x -> y, W being the user-weighted
    up-set size.

    The search is :func:`min_cost_flow`'s on the lower-bound-eliminated
    network: the same node order with the sink first, the same heap keys
    (distance, node id) and the same strict improvement test, so every
    augmenting path and potential, and the optimum, are the ones it
    finds. Only residual edges are visited: the forced in(x) -> out(x)
    arcs are saturated both ways, an in-node leads either to the sink or
    back to its one chain parent, and the bottom node leads back to the
    out-nodes routed to it. Edges back into the source never improve a
    distance.

    Each potential is kept as base(v) + shift, and each search runs in
    distances shifted by that same shift, so no search rebuilds O(n)
    state. After a search every node not settled closer than the sink
    moves by the sink's distance, which is the new shift; only the nodes
    settled closer correct their base. The state that depends on the
    potentials persists across searches and is repaired for those nodes
    only: the free out-nodes' source offers, kept as one sorted key list
    (a sorted list is a heap, so a search starts from a slice of it), and
    the in-nodes sorted by b(y) = W(y) - base(in y), with prefix masks.

    An out-node x settled at distance d offers each in-node y below it
    a + b(y), with a = d + base(out x) - W(x), so its offers are one mask
    operation on x's down-set: in-nodes not yet reached take it, reached
    ones only if a is below their best offer so far. Offers above a bound
    on the sink's distance are dropped: such a node is never settled
    before the sink, and its potential moves by the sink's distance
    either way. The in-nodes sorted by b(y) turn the bound into one more
    mask. A minimal label's out-node relaxes nothing but the bottom node.
    While free its potential stays 0, so only the lowest free one can be
    the first to reach the bottom node; once routed to the bottom node it
    is a dead end whose potential is never read.
    """
    p = work.poset
    n = len(p)
    r = p.index[p.maximum()]
    w = p.width()
    by_count: dict[int, int] = {}  # user count -> the labels that have it
    for i, x in enumerate(p.elements):
        c = work.count(x)
        if c:
            by_count[c] = by_count.get(c, 0) | 1 << i
    weight = [sum(c * (up & m).bit_count() for c, m in by_count.items()) for up in p._up]
    below = [down ^ 1 << i for i, down in enumerate(p._down)]

    # build_flow_network's node order with the sink moved first; in(y) is
    # y + 1 and out(x) is OUT + x for declaration indices x, y (in(r) is unused)
    SINK, OUT, BOT, SRC = 0, n + 1, 2 * n + 1, 2 * n + 2
    size = 2 * n + 3
    in_bit = [0] + [1 << y for y in range(n)]  # by in-node id
    leaves = sum(1 << x for x in range(n) if not below[x])
    inner = ((1 << n) - 1) ^ leaves
    parent = [r] * n  # chain parent of every matched in-node
    kids = [0] * n  # in-nodes that out(x) sends its flow to
    supply = [1] * n  # units left on the source edge of out(x)
    supply[r] = w
    free = (1 << n) - 1  # out-nodes with supply left
    all_in = free ^ 1 << r
    matched = 0  # in-nodes whose sink edge is saturated
    to_bottom = 0  # out-nodes that send their unit to the bottom node
    bottom_left = w
    INF = float("inf")
    heappush, heappop = heapq.heappush, heapq.heappop

    # the potential of node v is base[v] + shift; the sink's base stays 0
    # (it is settled at the sink's distance) and a free minimal label's
    # out-node has potential 0, so neither is kept
    base = [0] * size
    shift = 0
    # the source offers of the free out-nodes of non-minimal labels, as
    # sorted heap keys (shifted distance -base[v], node id)
    offers = [OUT + x for x in range(n) if below[x]]
    # shifted distances and predecessors; between searches an out-node
    # holds its source offer and the source
    dist: list[float] = [INF] * size
    for v in offers:
        dist[v] = 0
    prev = [SRC] * size
    # the in-nodes as sorted keys (b(y), node id), their bits and the
    # prefix masks: within[k] holds the first k of them
    offset = [0] + weight  # b(y) by in-node id
    keys = sorted(y + 1 + weight[y] * size for y in range(n) if y != r)
    bits = [in_bit[k % size] for k in keys]
    within = list(accumulate(bits, or_, initial=0))
    best = [0] * n  # a(y) of every in-node reached in the current search

    for _ in range(n - 1 + w):
        # a bound on the sink's shifted distance, which is its true one as
        # its base is 0: the path source -> out(x) -> bottom -> sink costs 0
        bound = 0 if bottom_left and free & ~to_bottom else INF
        heap = offers[: bisect_left(offers, (bound + 1) * size)]
        first = free & leaves
        if first:  # the lowest free minimal label's out-node, at potential 0
            heappush(heap, shift * size + OUT - 1 + (first & -first).bit_length())
        unreached, pending = all_in, 0
        settled = []  # heap keys of the nodes settled before the sink, in order
        touched = []  # out-nodes whose distance or predecessor changed

        while True:
            if not heap:
                raise InternalError("the flow network's sink is unreachable")
            key = heappop(heap)
            d, u = divmod(key, size)
            if u == SINK:
                break
            if u < OUT:  # in(y)
                y = u - 1
                bit = 1 << y
                if not pending & bit:  # settled already: a stale entry
                    continue
                pending ^= bit
                settled.append(key)
                du = d + base[u]
                if matched & bit:
                    x = parent[y]
                    v = OUT + x
                    nd = du + weight[x] - weight[y] - base[v]
                    if nd < dist[v]:
                        dist[v] = nd
                        prev[v] = u
                        touched.append(v)
                        heappush(heap, nd * size + v)
                elif du < dist[SINK]:
                    dist[SINK] = du
                    prev[SINK] = u
                    heappush(heap, du * size)
                continue
            if d > dist[u]:
                continue
            settled.append(key)
            if u < BOT:  # out(x)
                x = u - OUT
                if below[x]:
                    du = d + base[u]
                    a = du - weight[x]
                    cand = below[x] & ~kids[x] & within[bisect_left(keys, (bound - a + 1) * size)]
                    better = cand & unreached
                    old = cand & pending
                    while old:
                        low = old & -old
                        old ^= low
                        if a < best[low.bit_length() - 1]:
                            better |= low
                    unreached &= ~better
                    pending |= better
                    while better:
                        low = better & -better
                        better ^= low
                        v = low.bit_length()
                        nd = a + offset[v]
                        prev[v] = u
                        best[v - 1] = a
                        heappush(heap, nd * size + v)
                        if not matched & low and nd + base[v] < bound:
                            bound = nd + base[v]
                else:  # the lowest free minimal label's out-node, at potential 0
                    du = d - shift
                if not to_bottom >> x & 1:
                    nd = du - base[BOT]
                    if nd < dist[BOT]:
                        dist[BOT] = nd
                        prev[BOT] = u
                        heappush(heap, nd * size + BOT)
            else:  # the bottom node
                du = d + base[BOT]
                m = to_bottom & inner
                while m:
                    low = m & -m
                    m ^= low
                    v = OUT - 1 + low.bit_length()
                    nd = du - base[v]
                    if nd < dist[v]:
                        dist[v] = nd
                        prev[v] = u
                        touched.append(v)
                        heappush(heap, nd * size + v)
                if bottom_left and du < dist[SINK]:
                    dist[SINK] = du
                    prev[SINK] = u
                    heappush(heap, du * size)

        # correct the nodes settled closer than the sink:
        # base += dist - dist(sink)
        moved = []  # such in-nodes, to be re-placed in the b(y) order
        for key in settled[: bisect_left(settled, d * size)]:
            t, v = divmod(key, size)
            if v < OUT:
                moved.append(v)
            elif v < BOT:
                if not below[v - OUT]:  # a minimal label's: its potential is not kept
                    continue
                touched.append(v)
                if free >> (v - OUT) & 1:  # re-key its source offer
                    del offers[bisect_left(offers, -base[v] * size + v)]
                    insort(offers, (d - t - base[v]) * size + v)
            base[v] += t - d
        if moved:
            # a settled in-node's b(y) only grows: the prefix masks change
            # from the first position one left to the last one entered
            gone = [bisect_left(keys, offset[v] * size + v) for v in moved]
            for k in sorted(gone, reverse=True):
                del keys[k]
                del bits[k]
            for v in moved:
                offset[v] = weight[v - 1] - base[v]
                k = bisect_left(keys, offset[v] * size + v)
                keys.insert(k, offset[v] * size + v)
                bits.insert(k, in_bit[v])
            lo = min(gone)
            hi = max(bisect_left(keys, offset[v] * size + v) for v in moved)
            within[lo : hi + 2] = accumulate(bits[lo : hi + 1], or_, initial=within[lo])
        shift = d

        # push one unit along the path, walking back from the sink
        v = SINK
        for _ in range(size):
            if v == SRC:
                break
            u = prev[v]
            if v == SINK:
                if u == BOT:
                    bottom_left -= 1
                else:
                    matched |= 1 << (u - 1)
            elif v < OUT:  # out(x) -> in(y) gains the unit
                parent[v - 1] = u - OUT
                kids[u - OUT] |= 1 << (v - 1)
            elif v == BOT:
                to_bottom |= 1 << (u - OUT)
            elif u == SRC:
                x = v - OUT
                supply[x] -= 1
                if not supply[x]:
                    free ^= 1 << x
                    if below[x]:
                        del offers[bisect_left(offers, -base[v] * size + v)]
                        touched.append(v)
            elif u == BOT:
                to_bottom ^= 1 << (v - OUT)
            else:  # in(y) -> out(x): out(x) -> in(y) gives its unit back
                kids[v - OUT] ^= 1 << (u - 1)
            v = u
        else:
            raise InternalError("the augmenting path does not lead back to the source")

        # reset the search state: out-nodes to their source offers
        dist[SINK] = dist[BOT] = INF
        for v in touched:
            dist[v] = -base[v] if free >> (v - OUT) & 1 else INF
            prev[v] = SRC

    labels = p.elements
    links = {labels[y]: labels[parent[y]] for y in range(n) if y != r}
    cost = sum(weight[y] - weight[parent[y]] for y in range(n) if y != r)
    return links, w, cost


def optimal_partition(policy: Policy) -> OptimizationResult:
    """A chain partition minimizing the total number of issued secrets.

    The partition always has exactly width-many chains, so no user class
    holds more than width secrets. Deterministic: equal-cost optima are
    broken by the solver's fixed path selection, the one
    :func:`min_cost_flow` makes on :func:`build_flow_network`'s network.
    """
    if len(policy.poset) == 0:
        raise ValueError("cannot optimize an empty policy")
    work, top, added = augment_with_maximum(policy)
    links, w, cost = _chain_parents(work)
    pi = _chains_from_parents(work.poset, top, w, links)
    if added:
        chains = tuple(c[1:] if c[0] == top else c for c in pi.chains)
        pi = ChainPartition(tuple(c for c in chains if c))

    return OptimizationResult(
        partition=pi,
        khat=issued_secrets(policy, pi),
        width=w,
        flow_cost=cost,
        kmax=max_bundle_size(policy, pi),
    )


def verify_result(policy: Policy, result: OptimizationResult) -> bool:
    """Independent cross-validation of an optimization result.

    Checks partition validity and chain count, the three-way agreement of
    the issued-secret formulas with the reported value, the flow-cost
    identity khat = width * users(top) + flow_cost, and kmax <= width.
    """
    try:
        khat = issued_secrets(policy, result.partition)
        bottoms = issued_secrets_via_bottoms(policy, result.partition)
        aug_policy, aug_pi = attach_to_maximum(policy, result.partition)
        tree = issued_secrets_via_tree(aug_policy, aug_pi)
        top_users = aug_policy.count(aug_policy.poset.maximum())
    except Exception:
        return False
    return (
        len(result.partition.chains) == result.width
        and khat == bottoms == tree == result.khat
        and result.khat == result.width * top_users + result.flow_cost
        and result.kmax <= result.width
    )
