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
from bisect import bisect_right
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


def partition_from_flow(policy: Policy, flow: Flow, net=None) -> ChainPartition:
    """Decode a feasible flow on the policy's network into the chain
    partition it encodes.

    Unit flow on out(x) -> in(y) makes x the chain-parent of y; the chains
    are read off those links as :func:`_chains_from_parents` describes.
    Pass ``net`` to reuse an already-built network for this policy; w is
    read from its balance at out(r).
    """
    p = policy.poset
    r = p.maximum()
    if r is None:
        raise NoMaximum("flow decoding requires a unique maximum element")
    if net is None:
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

    An out-node x settled at distance d offers each in-node y below it
    a + b(y), with a = d + pot(out x) - W(x) and b(y) = W(y) - pot(in y),
    so its offers are one mask operation on x's down-set: in-nodes not yet
    reached take it, reached ones only if a is below their best offer so
    far. Offers above a bound on the sink's distance are dropped: such a
    node is never settled before the sink, and its potential moves by the
    sink's distance either way. The in-nodes sorted by b(y) turn the bound
    into one more mask. A minimal label's out-node relaxes nothing but the
    bottom node, so it is only put on the heap when it can be the first to
    reach the bottom node.
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
    in_ids = [y + 1 for y in range(n) if y != r]
    in_bit = [0] + [1 << y for y in range(n)]  # by in-node id
    inner = [OUT + x for x in range(n) if below[x]]
    leaves = [OUT + x for x in range(n) if not below[x]]
    pot = [0] * size
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

    for _ in range(n - 1 + w):
        psink = pot[SINK]
        # the reduced length of a source-sink path found so far: source ->
        # out(x) -> bottom -> sink costs 0, that is -pot(sink) reduced
        bound = -psink if bottom_left and free & ~to_bottom else INF
        dist: list[float] = [INF] * size
        dist[OUT:BOT] = [-pv if s and -pv <= bound else INF for pv, s in zip(pot[OUT:BOT], supply)]
        dist[SRC] = 0
        prev = [SRC] * size
        # every out-node reached from the source offers the bottom node the
        # same -pot(bottom); of the minimal labels' out-nodes, which offer
        # nothing else, only the first in heap order can be the first to do so
        heap = [dist[v] * size + v for v in inner if dist[v] != INF]
        first_leaf = min((dist[v] * size + v for v in leaves if dist[v] != INF), default=None)
        if first_leaf is not None:
            heap.append(first_leaf)
        heapq.heapify(heap)
        offset = [0] + [wy - py for wy, py in zip(weight, pot[1:OUT])]  # b(y) by in-node id
        order = sorted(in_ids, key=offset.__getitem__)
        ascending = list(map(offset.__getitem__, order))
        within = list(accumulate(map(in_bit.__getitem__, order), or_, initial=0))
        best = [0] * n  # a(y) of every reached in-node
        unreached, pending = all_in, 0

        while True:
            if not heap:
                raise InternalError("the flow network's sink is unreachable")
            d, u = divmod(heappop(heap), size)
            if d > dist[u]:
                continue
            if u == SINK:
                break
            du = d + pot[u]
            if u < OUT:  # in(y)
                y = u - 1
                bit = 1 << y
                pending ^= bit
                if matched & bit:
                    x = parent[y]
                    v = OUT + x
                    nd = du + weight[x] - weight[y] - pot[v]
                else:
                    v = SINK
                    nd = du - psink
                if nd < dist[v]:
                    dist[v] = nd
                    prev[v] = u
                    heappush(heap, nd * size + v)
            elif u < BOT:  # out(x)
                x = u - OUT
                a = du - weight[x]
                cand = below[x] & ~kids[x] & within[bisect_right(ascending, bound - a)]
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
                    dist[v] = nd
                    prev[v] = u
                    best[v - 1] = a
                    heappush(heap, nd * size + v)
                    if not matched & low and nd + pot[v] - psink < bound:
                        bound = nd + pot[v] - psink
                if not to_bottom >> x & 1:
                    nd = du - pot[BOT]
                    if nd < dist[BOT]:
                        dist[BOT] = nd
                        prev[BOT] = u
                        heappush(heap, nd * size + BOT)
            else:  # the bottom node
                m = to_bottom
                while m:
                    low = m & -m
                    m ^= low
                    v = OUT - 1 + low.bit_length()
                    nd = du - pot[v]
                    if nd < dist[v]:
                        dist[v] = nd
                        prev[v] = u
                        if below[v - OUT]:  # else out(x) of a minimal x: a dead end
                            heappush(heap, nd * size + v)
                if bottom_left:
                    nd = du - psink
                    if nd < dist[SINK]:
                        dist[SINK] = nd
                        prev[SINK] = u
                        heappush(heap, nd * size + SINK)

        dsink = dist[SINK]
        pot = [pv + (dv if dv < dsink else dsink) for pv, dv in zip(pot, dist)]
        # push one unit along the path, walking back from the sink
        v = SINK
        while v != SRC:
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
                supply[v - OUT] -= 1
                if not supply[v - OUT]:
                    free ^= 1 << (v - OUT)
            elif u == BOT:
                to_bottom ^= 1 << (v - OUT)
            else:  # in(y) -> out(x): out(x) -> in(y) gives its unit back
                kids[v - OUT] ^= 1 << (u - 1)
            v = u

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
