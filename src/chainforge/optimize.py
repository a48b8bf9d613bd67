"""End-to-end chain partition optimization.

Pipeline: guarantee a unique maximum (synthetic, zero users, if needed),
solve the paper's min-cost flow on the poset's bitmasks (which also gives
the width w), read the chain-parent links back into a chain partition with
exactly w chains, strip the synthetic maximum again, and report the
metrics.

The result minimizes the total number of issued secrets over all chain
partitions while no user class ever holds more than w secrets. The flow
network of :mod:`chainforge.flow`, with its solver and its decoder
``partition_from_flow``, stays there as the oracle that the bitmask solver
is tested against; this module holds only the production path.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import accumulate
from operator import or_

from .errors import InternalError

# not called here: bench/spans.py wraps the flow oracle's stages under
# these names in this module
from .flow import (
    build_flow_network,
    eliminate_lower_bounds,
    is_feasible,
    min_cost_flow,
    partition_from_flow,
    restore_lower_bounds,
)
from .policy import (
    ChainPartition,
    Policy,
    _chains_from_parents,
    augment_with_maximum,
    issued_secrets,
    issued_secrets_via_bottoms,
    issued_secrets_via_tree,
    attach_to_maximum,
    max_bundle_size,
)


@dataclass(frozen=True)
class OptimizationResult:
    partition: ChainPartition
    khat: int
    width: int
    flow_cost: int
    kmax: int


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
    only: the free out-nodes' source offers and the out-nodes routed to the
    bottom node, each kept as one sorted key list, and the in-nodes sorted
    by b(y) = W(y) - base(in y), with prefix masks.

    An out-node x settled at distance d offers each in-node y below it
    a + b(y), with a = d + base(out x) - W(x), so its offers are one mask
    operation on x's down-set: in-nodes not yet reached take it, reached
    ones only if a is below their best offer so far. Offers above a bound
    on the sink's distance are dropped: such a node is never settled
    before the sink, and its potential moves by the sink's distance either
    way. A search's bound opens at 0 while the bottom node has room and a
    free out-node is not routed to it, as the path through them costs 0,
    and otherwise at 1 + sum W(y): path costs are nonnegative and add up
    to the flow's cost, which is at most sum W(y), since a link x -> y
    costs W(y) - W(x). The in-nodes sorted by b(y) turn the bound into one
    more mask. An offer exactly on the bound is still made: until the sink
    is pushed, an in-node on the bound may pop first and become the sink's
    predecessor. An unmatched in-node leads straight to the sink, so it is
    never settled closer than the sink and its base stays 0: x's offer to
    it, a + W(y), bounds the sink's distance. So before x offers, the
    bound is lowered to x's least offer to an unmatched in-node y, found
    by a search down the prefix masks, and x's offers after y's in key
    order are cut: y pops before them and pushes the sink ahead of them.
    None of the offers x then makes could lower the bound further.

    Each out-node also keeps a floor, a lower bound on b(y) over the
    in-nodes it may still offer to. It stays valid because a settled
    in-node's b(y) only grows; it comes down when a unit is given back and
    goes up when a search finds no offer under the bound. An out-node
    whose a + floor lies above the bound offers nothing and skips the mask
    work.

    A free out-node whose one move is the bottom node's relaxation is
    idle: a minimal label's, and under a zero bound one that is not awake
    (its floor exceeds W(x), so it offers nothing under the bound) and not
    routed to the bottom node. Idle out-nodes sit at potential 0 and are
    not read from the source offers; they all make the same relaxation,
    so one heap entry, the lowest, stands for them. A routed minimal
    label's out-node is a dead end whose potential is never read.

    The source offers are not copied into the heap but read from their
    sorted list as a second stream, merged with the heap in the same
    (distance, id) order. The bottom node's offers to the out-nodes routed
    to it are a third stream: sorted by -base, they come in heap-key order
    once the bottom node is settled, and only the next one waits in the
    heap. An offer read after the sink changes nothing, but ties fall as
    if every offer had been pushed at once: a stream entry settles its
    out-node only if it beats the out-node's distance, and once the bottom
    node is settled an in-node's offer to a routed out-node must also beat
    the bottom node's.
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
    leaves = sum(1 << x for x in range(n) if not below[x])
    parent = [r] * n  # chain parent of every matched in-node
    kids = [0] * n  # in-nodes that out(x) sends its flow to
    # out-nodes with a unit left on their source edge: one each, and out(r)
    # holds spare more
    free = (1 << n) - 1
    spare = w - 1
    all_in = free ^ 1 << r
    unmatched = all_in  # in-nodes whose sink edge is not saturated
    # out-nodes that send their unit to the bottom node, which has room for
    # w units and never gets one back from the sink
    to_bottom = 0
    # a bound above every augmenting path's cost, and above 0
    top_bound = sum(weight) + 1
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
    offers.append(INF)  # an end mark: a search reads the offers up to it
    prev = [SRC] * size
    # the out-nodes of non-minimal labels routed to the bottom node, as
    # sorted keys (-base[v], node id): the bottom node settled at du offers
    # them du - base[v] in this order
    routed: list[int] = []
    # the in-nodes as sorted keys (b(y), node id), their bits and the
    # prefix masks: within[k] holds the first k of them
    offset = [0] + weight  # b(y) by in-node id
    keys = sorted(y + 1 + weight[y] * size for y in range(n) if y != r)
    bits = [1 << (k % size - 1) for k in keys]
    within = list(accumulate(bits, or_, initial=0))
    best = [0] * n  # a(y) of every in-node reached in the current search
    # floor[x] <= b(y) for every in-node y in below[x] ^ kids[x]. At first
    # b(y) = W(y), least on a label that x covers, as W only grows downwards
    floor: list[float] = [INF] * n
    for lo, hi in p.covers:
        x = p.index[hi]
        floor[x] = min(floor[x], weight[p.index[lo]])
    # the out-nodes whose floor is at most W(x): the others rest through a
    # search under a zero bound
    awake = sum(1 << x for x in range(n) if floor[x] <= weight[x])

    for _ in range(n - 1 + w):
        # a bound on the sink's shifted distance, which is its true one as
        # its base is 0: the path source -> out(x) -> bottom -> sink costs 0
        room = to_bottom.bit_count() < w
        bound = 0 if room and free & ~to_bottom else top_bound
        heap = [INF]  # an end mark, like the offers'
        if bound:
            stream = offers
            idle = free & leaves
        else:
            # the sink's distance never falls and is 0 here, so no earlier
            # search settled a node closer than the sink and no base has
            # moved: every source offer is 0, a = -W(x), and an out-node
            # that is not awake has no offer under the bound. Only the
            # awake ones are read
            stream = []
            left = free & awake
            while left:
                low = left & -left
                left ^= low
                stream.append(OUT - 1 + low.bit_length())
            stream.append(INF)
            idle = free & ~(awake | to_bottom)
        if idle:  # the lowest idle out-node, at potential 0
            heappush(heap, shift * size + OUT - 1 + (idle & -idle).bit_length())
        unreached, pending = all_in, 0
        settled = []  # heap keys of the nodes settled before the sink, in order
        touched = []  # out-nodes whose distance or predecessor changed
        i = 0  # the next source offer
        bot = INF  # d + base of the bottom node once it is settled
        # the heap key of the bottom node's queued offer; -1 would be the
        # source's, which is never queued
        head = -1

        while True:
            key = stream[i]
            if heap[0] < key:
                key = heappop(heap)
            elif key == INF:
                raise InternalError("the flow network's sink is unreachable")
            else:
                i += 1
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
                if not unmatched & bit:
                    x = parent[y]
                    v = OUT + x
                    du += weight[x] - weight[y]
                    nd = du - base[v]
                    # a routed out-node keeps the bottom node's offer on a tie
                    if nd < dist[v] and (du < bot or not to_bottom >> x & 1):
                        dist[v] = nd
                        prev[v] = u
                        touched.append(v)
                        heappush(heap, nd * size + v)
                elif du < dist[SINK]:
                    dist[SINK] = du
                    prev[SINK] = u
                    heappush(heap, du * size)
                continue
            if key == head:  # the bottom node's offer: queue the next one
                j += 1
                if j < len(routed):
                    head = bot * size + routed[j]
                    heappush(heap, head)
                else:
                    head = -1
                if d >= dist[u]:
                    continue
                dist[u] = d
                prev[u] = BOT
                touched.append(u)
            elif d > dist[u]:
                continue
            settled.append(key)
            if u < BOT:  # out(x)
                x = u - OUT
                if below[x]:
                    du = d + base[u]
                    a = du - weight[x]
                    if a + floor[x] > bound:  # every offer lies above the bound
                        cand = 0
                    else:
                        k = bisect_left(keys, (bound - a + 1) * size)
                        cand = (below[x] ^ kids[x]) & within[k]
                        if not cand:
                            # d <= bound and base <= 0, so the floor now
                            # exceeds W(x)
                            floor[x] = bound - a + 1
                            awake &= ~(1 << x)
                    if cand:
                        free_in = cand & unmatched
                        if free_in:
                            # an unmatched in-node's base is 0, so the cheapest
                            # offer to one bounds the sink: find the least hi
                            # whose prefix holds one, searching down from k.
                            # The sink is pushed when that in-node pops, so
                            # every offer after it in key order is cut
                            lo, hi, step = 1, k, 1
                            while lo < hi:
                                mid = (lo + hi) // 2
                                if hi - step > mid:
                                    mid = hi - step
                                if within[mid] & free_in:
                                    hi = mid
                                    step *= 2
                                else:
                                    lo = mid + 1
                            bound = a + keys[hi - 1] // size
                            cand &= within[hi]
                        better = cand & unreached
                        old = cand & pending
                        unreached ^= better
                        while old:
                            low = old & -old
                            old ^= low
                            if a < best[low.bit_length() - 1]:
                                better |= low
                        pending |= better
                        while better:
                            low = better & -better
                            better ^= low
                            v = low.bit_length()
                            nd = a + offset[v]
                            prev[v] = u
                            best[v - 1] = a
                            heappush(heap, nd * size + v)
                else:  # a free minimal label's out-node, at potential 0
                    du = d - shift
                nd = du - base[BOT]
                if nd < dist[BOT] and not to_bottom >> x & 1:
                    dist[BOT] = nd
                    prev[BOT] = u
                    heappush(heap, nd * size + BOT)
            else:  # the bottom node
                bot = d + base[BOT]
                if routed:
                    j = 0
                    head = bot * size + routed[0]
                    heappush(heap, head)
                if room and bot < dist[SINK]:
                    dist[SINK] = bot
                    prev[SINK] = u
                    heappush(heap, bot * size)

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
                if to_bottom >> (v - OUT) & 1:  # and its place in the routed ones
                    del routed[bisect_left(routed, -base[v] * size + v)]
                    insort(routed, (d - t - base[v]) * size + v)
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
                bits.insert(k, 1 << (v - 1))
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
                if u != BOT:
                    unmatched ^= 1 << (u - 1)
            elif v < OUT:  # out(x) -> in(y) gains the unit
                parent[v - 1] = u - OUT
                kids[u - OUT] |= 1 << (v - 1)
            elif v == BOT:
                to_bottom |= 1 << (u - OUT)
                if below[u - OUT]:
                    insort(routed, -base[u] * size + u)
            elif u == SRC:
                x = v - OUT
                if x == r and spare:
                    spare -= 1
                else:
                    free ^= 1 << x
                    if below[x]:
                        del offers[bisect_left(offers, -base[v] * size + v)]
                        touched.append(v)
            elif u == BOT:
                to_bottom ^= 1 << (v - OUT)
                del routed[bisect_left(routed, -base[v] * size + v)]
            else:  # in(y) -> out(x): out(x) -> in(y) gives its unit back
                x = v - OUT
                kids[x] ^= 1 << (u - 1)
                # a no-op unless out(x) sends the unit on to the bottom node:
                # a new kid z on the path ends with b(z) = b(y), and the
                # floor was at most b(z)
                floor[x] = min(floor[x], offset[u])
                if floor[x] <= weight[x]:
                    awake |= 1 << x
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
    # the flow-cost identity; verify_result checks it against three formulas
    khat = w * work.count(top) + cost
    pi = _chains_from_parents(work.poset, top, w, links)
    if added:
        chains = tuple(c[1:] if c[0] == top else c for c in pi.chains)
        pi = ChainPartition(tuple(c for c in chains if c))

    return OptimizationResult(
        partition=pi,
        khat=khat,
        width=w,
        flow_cost=cost,
        kmax=max_bundle_size(policy, pi),
    )


def verify_result(policy: Policy, result: OptimizationResult) -> bool:
    """Independent cross-validation of an optimization result.

    Checks partition validity and chain count, the three-way agreement of
    the issued-secret formulas with the reported value, the flow-cost
    identity khat = width * users(top) + flow_cost, and that kmax is the
    partition's largest bundle and at most the width.
    """
    try:
        khat = issued_secrets(policy, result.partition)
        bottoms = issued_secrets_via_bottoms(policy, result.partition)
        aug_policy, aug_pi = attach_to_maximum(policy, result.partition)
        tree = issued_secrets_via_tree(aug_policy, aug_pi)
        top_users = aug_policy.count(aug_policy.poset.maximum())
        kmax = max_bundle_size(policy, result.partition)
    except Exception:
        return False
    return (
        len(result.partition.chains) == result.width
        and khat == bottoms == tree == result.khat
        and result.khat == result.width * top_users + result.flow_cost
        and result.kmax == kmax <= result.width
    )
