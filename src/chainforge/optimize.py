"""End-to-end chain partition optimization.

Pipeline: guarantee a unique maximum (synthetic, zero users, if needed),
solve the paper's min-cost flow on the poset's bitmasks, whose supply at
the maximum is the width w that :meth:`Poset.width` computes, read the
chain-parent links back into a chain partition with exactly w chains,
strip the synthetic maximum again, and report the metrics. A policy with
only one partition into w chains skips the flow, as that partition is the
optimum: a chain takes its links from its covers, and any other policy
takes them from the width's maximum matching when, less its maximum,
declared or synthetic, the poset has only that one w-chain partition, as
a fence, an antichain or disjoint chains have, with a maximum over them
or not (:func:`optimal_partition` gives the test and its proof).

The result minimizes the total number of issued secrets over all chain
partitions while no user class ever holds more than w secrets. The flow
network of :mod:`chainforge.flow`, with its solver and its decoder
``partition_from_flow``, stays there as the oracle that the bitmask solver
is tested against; this module holds only the production path.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import or_

from .errors import InternalError
from .poset import Poset

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
    _users_in,
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


def _reorder(keys: list[int], within: list[int], old: list[int], new: list[int], n: int) -> None:
    """Move the keys ``old`` to ``new`` in a sorted index of keys
    rank * n + id, with the prefix masks ``within`` of their id bits: one
    re-sort of the segment they span, one rebuild of its masks."""
    lo = bisect_left(keys, min(min(old), min(new)))
    hi = bisect_right(keys, max(max(old), max(new)))
    gone = set(old)
    seg = [k for k in keys[lo:hi] if k not in gone]
    seg += new
    seg.sort()
    keys[lo:hi] = seg
    within[lo : hi + 1] = accumulate((1 << k % n for k in seg), or_, initial=within[lo])


def _least_prefix(within: list[int], mask: int, hi: int) -> int:
    """The least k <= hi whose prefix mask ``within[k]`` meets ``mask``,
    given that ``within[hi]`` does and ``within[0]`` is empty: a search
    down from hi in steps that double while they hit, then a bisection."""
    lo, step = 1, 1
    while lo < hi:
        mid = (lo + hi) // 2
        if hi - step > mid:
            mid = hi - step
        if within[mid] & mask:
            hi = mid
            step *= 2
        else:
            lo = mid + 1
    return hi


Potentials = tuple[dict[str, int], dict[str, int], int]


def _chain_parents(work: Policy, w: int) -> tuple[dict[str, str], int, int, Potentials]:
    """Solve the min-cost flow of ``build_flow_network(work)`` on the
    poset's bitmasks, without building the network; w is the poset's
    width, the supply at its maximum r.

    Returns the chain-parent links (child -> parent, one for every label
    but r), the width w, the flow cost: the sum of
    W(up y) - W(up x) over the links x -> y, W being the user-weighted
    up-set size, and the final node potentials of :func:`min_cost_flow`:
    those of the in-nodes and the out-nodes by label, and the bottom
    node's. ``chainforge.certify`` checks them against the links.

    The search is :func:`min_cost_flow`'s on the lower-bound-eliminated
    network: the same node order less the sink, the same heap keys
    (distance, node id) and the same strict improvement test, so every
    augmenting path and potential, and the optimum, are the ones it
    finds. Only residual edges are visited: the forced in(x) -> out(x)
    arcs are saturated both ways, an in-node leads either to the sink or
    back to its one chain parent, and the bottom node leads back to the
    out-nodes routed to it. Edges back into the source never improve a
    distance. The sink is not a node here: a search ends at the first
    node it settles that has an edge left to the sink, an unmatched
    in-node or the bottom node while it has room. That edge's reduced
    cost is 0, so the sink's distance is the node's: an unmatched
    in-node's b(y) is W(y), and the bottom node's edge costs base(bottom),
    never negative while the edge is residual, as no residual edge's
    reduced cost is, and never positive, as a base only falls.
    :func:`min_cost_flow` numbers the sink below every node, so its sink
    key at that distance lies below the settled node's, and so below
    every heap entry left and both out-node streams: it pops the sink
    next, with the settled node as predecessor. No node settled earlier
    had an edge to the sink, so no earlier sink entry breaks the tie
    another way.

    Each potential is kept relative to a shift, and each search runs in
    distances shifted by that same shift, so no search rebuilds O(n)
    state. An out-node's or the bottom node's potential is base(v) + shift;
    an in-node's is W(y) - b(y) + shift, and its key b(y) is held where a
    base would be. Every node's distance in a search, an in-node's best
    offer too, is held in one list, so a heap entry of any node is stale
    when it lies above its node's distance. After a search every node not
    settled closer than the sink moves by the sink's distance, which is the
    new shift; only the nodes settled closer are corrected, in one pass:
    base(v) falls and b(y) grows by the sink's distance less the node's.
    The in-nodes sorted by b(y), with prefix masks, persist across
    searches and are repaired for those in-nodes only, in one re-sort per
    search.

    Free out-nodes, those with a unit left on their source edge, all sit
    at potential 0. One other than r's has no chain child and is not
    routed to the bottom node, so its one way in is its source edge, of
    cost 0, while no distance is below 0. r's is reached from the source
    at that same least distance, first, so no other edge becomes its
    predecessor either. So every search reaches every free out-node at
    shifted distance shift, from the source, and none is ever corrected:
    its base is set to -shift when its unit is used, and until then its
    distance is held at 0, at or below shift, which no offer beats.

    Out-nodes routed to the bottom node, other than r's, share the bottom
    node's potential. Such an out-node has sent its one unit there, so it
    has no chain child, and its one way in is the reverse edge from the
    bottom node, of cost 0. That edge is tight after the search whose path
    routed the unit, and from then on each search reaches both nodes at
    the same distance, or moves both by the sink's. So their bases are not
    kept: one takes base(bottom) when its unit leaves the bottom node. r's
    out-node is also reached from its chain children, so it keeps its own
    base, and the settled bottom node pushes its one offer to it only if
    that beats out(r)'s distance, as :func:`min_cost_flow` would relax it;
    while r has units left, no offer beats its source edge.

    An out-node x settled at distance d offers each in-node y below it
    a + b(y), with a = d + base(out x) - W(x), so its offers are one mask
    operation on x's down-set: in-nodes not yet reached take it, reached
    ones only if a is below their best offer so far. A best offer only
    falls, so once a is at least the largest a handed out in the search,
    no reached in-node is asked. Offers are cut by a bound on the sink,
    kept as an in-node key (distance) * n + y in the heap's order: an
    offer after it is never settled before the sink, and its node's
    potential moves by the sink's distance either way. A
    search's bound opens at distance 0, any y, while the bottom node has
    room and a free out-node is not routed to it, as the path through them
    costs 0 and the bottom node, which then ends the search, pops last at
    that distance. Otherwise it opens at distance 1 + sum W(y), any
    y: path costs are nonnegative and add up to the flow's cost, which is
    at most sum W(y), since a link x -> y costs W(y) - W(x). The in-nodes
    sorted by b(y) * n + y turn the bound into one more mask. An unmatched
    in-node leads straight to the sink, so it is never settled closer than
    the sink and its b(y) stays W(y); the search ends at its distance when
    it pops. So before x offers, the bound is lowered to x's least offer
    to an unmatched in-node, found by :func:`_least_prefix` among the
    in-nodes under the bound, or, when x offers to only one, by one
    bisection for its key, fixed at W(y) * n + y, and x's offers after it
    are cut. None of the offers x then makes could lower the bound
    further. So are x's offers to matched in-nodes at the bound's
    distance: in-nodes come first in the heap's order at a distance, and
    the search ends there at the latest when the one that set the bound
    pops, before any out-node they lead to; settled at the sink's
    distance, they are never corrected either, and as the bound only
    falls, a cut one stays at its distance or ends above it. Without this
    cut, a user-less near-chain declared bottom-first, on which search k
    is offered k in-nodes at distance 0, costs n^2 / 2 pops.

    Each out-node x also has a floor: the least key b(y) * n + y below x
    when the call starts, taken in one pass up the covers. It bounds every
    key below x for the whole call, as b(y) only grows: the correction
    only raises a settled in-node's, and an unmatched in-node's stays
    W(y). An out-node whose a * n + floor lies above the bound
    offers nothing and skips the mask work. A free out-node has
    a = -W(x), so it may offer something only if floor(x) - W(x) * n is at
    most the bound: the keen index holds the out-nodes of non-minimal
    labels sorted by that, with prefix masks, and keen(bound) is its
    prefix up to the bound. A shared routed out-node
    settled with the bottom node at d + base(bottom) = c has a = c - W(x),
    so it may offer something only if it is in keen(bound - c * n). Floors
    and the keen index are set once and never repaired.

    The free out-nodes are not pushed but read in id order, at shift, as
    a stream merged with the heap in key order: those in keen(bound), cut
    again whenever the bound falls, and the lowest one not routed to the
    bottom node, whose relaxation of the bottom node is the first; any
    other would relax it to the same distance later, and do nothing else.

    The bottom node's key is above every free out-node's, so that stream
    is spent when the bottom node settles at d. The same stream then reads
    the shared routed out-nodes in keen(bound - c * n), in id order at d,
    again cut whenever the bound falls. They come in the heap-key order in
    which :func:`min_cost_flow` would settle them, as nothing else reaches
    them. The others offer nothing and relax nothing, as their edge to the
    bottom node is saturated.

    A phase is a run of searches that find the sink at the same distance,
    shift. Within it no node settles closer than the sink, so no potential
    moves, and a search settles only nodes at distance shift, the zero
    layer. A node is dead if it cannot reach the sink over residual edges
    of zero reduced cost. An augmentation only removes edges, plus the
    reversed path edges, which leave path nodes, and those were alive, so
    a dead node stays dead until the phase ends. A dead node reaches only
    dead nodes at distance shift, and its other offers lie above the
    sink's distance, never settled. So a search that skips the dead nodes
    pops the live ones in the same order, from the same predecessors, and
    finds the same path. Once 3n / 2w searches in a row have found the
    sink at shift, each search logs the out-nodes it settles with their
    offers, and if it finds the sink at shift, learns from them, in
    reverse settle order, masking those offers with the dead in-nodes and
    cutting the ones left to the zero layer (``keys`` does not change
    until the search's corrections, which come after): out(x) is dead if
    every in-node it offers shift to is dead and, if it relaxes the bottom
    node to shift, so is the bottom node; in(y) is dead with its chain
    parent's out-node, its one way out. A node not settled counts as
    alive. The bottom node is decided at most once a pass, from the masks
    alone, when an out-node that relaxes it to shift has no live offer: it
    is dead if it neither reaches the sink at shift nor reaches a routed
    out-node not known dead. A routed out-node counts only if it lies in
    keen(e - c * n), e being the zero layer's end key and c the bottom
    node's d + base, as no other may offer in the zero layer; for out(r),
    which keeps its own base, that test errs only towards alive. The
    bottom node settles after the out-nodes tight to it and before the
    routed ones it reads, so those are decided by then, and one it did not
    read counts as alive.

    The phase's dead set is held only in two masks, of in-nodes and of
    out-nodes, with bit r of the in-node mask for the bottom node. Under
    them a search offers only in the zero layer, as its bound is the
    layer's last key, and skips the dead nodes: a dead in-node is never
    offered to, and both out-node streams leave the dead out-nodes out.
    So no dead out-node enters the heap either: it is reached only from
    its chain child, dead with it, and out(r) from the bottom node too,
    whose relaxation tests the mask. The dead bottom node is not pushed,
    as it holds distance -INF. A search that then leaves the layer,
    marked by a heap entry at the source's key at distance shift, which
    no node takes, starts a new phase, in which a dead node may lie on a
    path of positive cost: it forgets the masks and runs again without
    them.
    """
    p = work.poset
    n = len(p)
    r = p.index[p.maximum()]
    users_in = _users_in(work)
    weight = [users_in(up) for up in p._up]
    below = [down ^ 1 << i for i, down in enumerate(p._down)]

    # build_flow_network's node order without the sink; in(y) is y and
    # out(x) is OUT + x for declaration indices x, y (in(r) is unused)
    OUT, BOT, SRC = n, 2 * n, 2 * n + 1
    size = 2 * n + 2
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
    # bounds as in-node keys: above every augmenting path's cost, or at 0
    top_bound = (sum(weight) + 2) * n - 1
    zero_bound = n - 1
    INF = float("inf")
    heappush, heappop = heapq.heappush, heapq.heappop

    # potentials relative to shift: base[y] is in(y)'s key b(y), its
    # potential being W(y) - b(y) + shift; an out-node's and the bottom
    # node's potential is base[v] + shift, but neither a free out-node's
    # nor a shared routed one's is kept; the source's slot is unused, and
    # the sink's potential stays shift
    base = weight + [0] * (n + 2)
    shift = 0
    # shifted distances in the current search: in(y)'s is its best offer
    # a + b(y), never reset, as it is read only after an offer in the same
    # search; an out-node's and the bottom node's are reset at every
    # search, but a free out-node holds 0; the source holds -1, below its
    # heap entry, the zero layer's end mark
    dist: list[float] = [INF] * size
    dist[OUT:BOT] = [0] * n
    dist[SRC] = -1
    prev = [SRC] * size
    # the in-nodes as sorted keys (b(y), y) and their prefix masks:
    # within[k] holds the first k of them
    keys = sorted(weight[y] * n + y for y in range(n) if y != r)
    within = list(accumulate((1 << k % n for k in keys), or_, initial=0))
    # floor[x] <= b(y) * n + y for every in-node y in below[x], for the
    # whole call: the least key in below[x] now, as keys only grow, taken
    # over x's lower covers c bottom-up (a minimal label's is never read)
    floor = [INF] * n
    for x in p._order:
        for c in p._children[x]:
            floor[x] = min(floor[x], weight[c] * n + c, floor[c])
    # the keen index: the out-nodes of non-minimal labels as sorted keys
    # (floor[x] - W(x) * n, x) and their prefix masks
    keen = sorted((floor[x] - weight[x] * n) * n + x for x in range(n) if below[x])
    keen_within = list(accumulate((1 << k % n for k in keen), or_, initial=0))

    # the phase's dead in-nodes and out-nodes; dead_in holds bit r, which no
    # in-node has, while the bottom node is dead
    dead_in = dead_out = 0
    r_bit = 1 << r
    run = 0  # searches in a row that found the sink at shift
    # a dead mask costs one more search of the zero layer when its phase
    # ends, and pays only in a phase that settles the same nodes again and
    # again: it is learned once the phase has run for 1.5 chain lengths n / w
    lasted = 3 * n // (2 * w)
    # out-nodes whose distance or predecessor the last search changed, and
    # the free ones whose unit its path used
    touched = []
    for _ in range(n - 1 + w):
        while True:  # a search, run again without the dead mask if it leaves the phase
            # reset what the last search left; not the predecessors, as every
            # reach writes one, and only the stream reaches a free out-node
            dist[BOT] = INF
            for v in touched:
                dist[v] = INF
            touched = []
            # a bound on the sink's shifted distance, which is its true one as
            # its potential is shift: the path source -> out(x) -> bottom ->
            # sink costs 0
            room = to_bottom.bit_count() < w
            bound = zero_bound if room and free & ~to_bottom else top_bound
            # the stream of out-nodes still to read, at heap keys at + id, each
            # reached from the node via with d + base = lift: first the free
            # ones from the source, then, once the bottom node is settled, the
            # shared routed ones from it
            at, lift, via = shift * size, 0, SRC
            heap = [INF]  # an end mark: nothing is pushed at INF
            # the zero layer: keys at distance shift, offers below tight_end.
            # While zero, the search logs the out-nodes it settles: (x, du,
            # cand, an), cand holding the offers under the bound, and an = a * n
            # if that bound lay above the zero layer, else None
            live, unreached = free, all_in
            zero = run >= lasted
            if zero:
                tight_end = (shift + 1) * n
                log = []
                if dead_in or dead_out:
                    # only the zero layer is searched, up to the source's
                    # key at shift, which no node takes
                    heap.insert(0, shift * size + SRC)
                    bound = tight_end - 1
                    live &= ~dead_out
                    unreached &= ~dead_in
                    if dead_in & r_bit:
                        dist[BOT] = -INF
            idle = live & ~to_bottom
            idle &= -idle
            queue = live & keen_within[bisect_left(keen, (bound + 1) * n)] | idle
            nxt = at + OUT - 1 + (queue & -queue).bit_length() if queue else INF
            pending = 0
            top_a = -INF  # the largest a handed to an in-node in this search
            # heap keys of the nodes settled, in order, up to the one that ends
            # the search, which the correction leaves out
            settled = []
            left = False  # the search left the zero layer under a dead mask

            while True:
                key = nxt
                if heap[0] < key:
                    key = heappop(heap)
                    d, u = divmod(key, size)
                    if d > dist[u]:  # a stale entry, or the zero layer's end
                        if u == SRC:
                            left = True
                            break
                        continue
                    settled.append(key)
                    if u < OUT:  # in(y)
                        pending ^= 1 << u
                        if unmatched >> u & 1:  # b(y) = W(y): the sink is at y's distance
                            last = u
                            break
                        # in(y)'s potential is W(y) - b(y), and the edge back
                        # to out(x) costs W(x) - W(y)
                        x = parent[u]
                        v = OUT + x
                        nd = d - base[u] + weight[x] - base[v]
                        if nd < dist[v]:
                            dist[v] = nd
                            prev[v] = u
                            touched.append(v)
                            heappush(heap, nd * size + v)
                        continue
                    du = d + base[u]
                    if u == BOT:
                        if room:  # its base is 0: the sink is at its distance
                            last = u
                            break
                        # the stream turns to the shared routed out-nodes, all
                        # but r's, at d; out(r) keeps its own base
                        at, lift, via = key - BOT, du, BOT
                        routed = to_bottom & ~free & ~dead_out
                        queue = routed & all_in
                        queue &= keen_within[bisect_left(keen, (bound - du * n + 1) * n)]
                        nxt = at + OUT - 1 + (queue & -queue).bit_length() if queue else INF
                        v = OUT + r
                        nd = du - base[v]
                        if routed >> r & 1 and nd < dist[v]:
                            dist[v] = nd
                            prev[v] = u
                            touched.append(v)
                            heappush(heap, nd * size + v)
                        continue
                elif key == INF:
                    raise InternalError("the flow network's sink is unreachable")
                else:  # a free out-node from the source, or a routed one from the bottom node
                    u = key - at
                    queue ^= 1 << (u - OUT)
                    nxt = at + OUT - 1 + (queue & -queue).bit_length() if queue else INF
                    # not touched: a routed one is reached only here, so a stale
                    # predecessor is never read
                    prev[u] = via
                    du = lift

                # out(x)
                x = u - OUT
                if below[x]:
                    a = du - weight[x]
                    an = a * n
                    if an + floor[x] > bound:  # every offer lies above the bound
                        cand = 0
                    else:
                        k = bisect_right(keys, bound - an)
                        cand = (below[x] ^ kids[x]) & within[k]
                    if zero:
                        # the offers under a bound in the zero layer lie in it,
                        # and that bound cut none of it before an out-node settles,
                        # as the in-node that set it pops next; the learning pass
                        # cuts those under a bound above it
                        log.append((x, du, cand, an if bound >= tight_end else None))
                    if cand:
                        free_in = cand & unmatched
                        if free_in:
                            # an unmatched in-node's b(y) is W(y), so it reaches
                            # the sink at its own distance: the cheapest offer
                            # to one bounds the sink, and every offer after it
                            # in key order is cut
                            if free_in & (free_in - 1):
                                hi = _least_prefix(within, free_in, k)
                            else:  # a lone one: its key is W(y) * n + y
                                y = free_in.bit_length() - 1
                                hi = bisect_right(keys, base[y] * n + y, 0, k)
                            bound = an + keys[hi - 1]
                            # and so is every offer to a matched in-node at the
                            # bound's distance: the search ends there at the
                            # latest when the in-node that set the bound pops,
                            # before any out-node such an offer leads to
                            lo = bisect_left(keys, bound // n * n - an, 0, hi)
                            cand &= within[lo] | free_in & within[hi]
                            cut = bisect_left(keen, (bound - lift * n + 1) * n)
                            queue &= keen_within[cut] | idle
                            nxt = at + OUT - 1 + (queue & -queue).bit_length() if queue else INF
                        better = cand & unreached
                        unreached ^= better
                        if a < top_a:  # else no pending in-node's best offer is above a
                            old = cand & pending
                            while old:
                                low = old & -old
                                old ^= low
                                y = low.bit_length() - 1
                                if a + base[y] < dist[y]:
                                    better |= low
                        if better and a > top_a:
                            top_a = a
                        pending |= better
                        while better:
                            low = better & -better
                            better ^= low
                            y = low.bit_length() - 1
                            prev[y] = u
                            nd = dist[y] = a + base[y]
                            heappush(heap, nd * size + y)
                elif zero:
                    log.append((x, du, 0, None))
                nd = du - base[BOT]
                if nd < dist[BOT] and not to_bottom >> x & 1:
                    dist[BOT] = nd
                    prev[BOT] = u
                    heappush(heap, nd * size + BOT)
            if not left:
                break
            # a new phase: forget the dead mask and search again without it
            dead_in = dead_out = 0

        run = run + 1 if d == shift else 0
        if zero and run:  # the sink was found at shift: learn the dead nodes
            to_bot = shift + base[BOT]  # du of an out-node tight to the bottom node
            bot = False if dead_in & r_bit else None  # the bottom node alive, once known
            for x, du, cand, an in reversed(log):
                cand &= ~dead_in
                if cand and an is not None:  # cut to the zero layer
                    cand &= within[bisect_left(keys, tight_end - an)]
                if not cand and du == to_bot and not to_bottom >> x & 1:
                    if bot is None:
                        # it settles after every out-node tight to it, and
                        # before the routed ones it reaches, which are
                        # decided by now if they were read. It is alive if
                        # it reaches the sink at shift, or a routed out-node,
                        # out(r) too, not known dead that may offer in the
                        # zero layer
                        reach = to_bottom & ~free & ~dead_out
                        reach &= keen_within[bisect_left(keen, (tight_end - to_bot * n) * n)]
                        bot = room or reach != 0
                        if not bot:
                            dead_in |= r_bit
                    cand = bot
                if not cand:
                    dead_out |= 1 << x
                    dead_in |= kids[x]

        # correct the nodes settled closer than the sink: base += dist -
        # dist(sink), but an in-node's b(y) -= the same, so it only grows;
        # its key is re-placed in the b(y) order
        old, new = [], []
        for key in settled[: bisect_left(settled, d * size)]:
            t, v = divmod(key, size)
            if v < OUT:
                old.append(base[v] * n + v)
                base[v] += d - t
                new.append(base[v] * n + v)
            else:
                base[v] += t - d
        if old:
            _reorder(keys, within, old, new, n)
        shift = d

        # push one unit along the path, walking back from the node that
        # reached the sink
        v = last
        if v < OUT:
            unmatched ^= 1 << v
        for _ in range(size):
            if v == SRC:
                break
            u = prev[v]
            if v < OUT:  # out(x) -> in(y) gains the unit
                parent[v] = u - OUT
                kids[u - OUT] |= 1 << v
            elif v == BOT:
                to_bottom |= 1 << (u - OUT)
            elif u == SRC:
                x = v - OUT
                if x == r and spare:
                    spare -= 1
                else:
                    free ^= 1 << x
                    base[v] = -shift  # its potential is 0
                    touched.append(v)
            elif u == BOT:
                to_bottom ^= 1 << (v - OUT)
                base[v] = base[BOT]
            else:  # in(y) -> out(x): out(x) -> in(y) gives its unit back
                kids[v - OUT] ^= 1 << u
            v = u
        else:
            raise InternalError("the augmenting path does not lead back to the source")

    labels = p.elements
    links = {labels[y]: labels[parent[y]] for y in range(n) if y != r}
    cost = sum(weight[y] - weight[parent[y]] for y in range(n) if y != r)
    # a free out-node's potential is 0, a shared routed one's the bottom
    # node's; no out-node is free at the end
    shared = to_bottom & ~free & all_in
    pin = {labels[y]: weight[y] - base[y] + shift for y in range(n) if y != r}
    pout = {
        labels[x]: 0 if free >> x & 1 else base[BOT if shared >> x & 1 else OUT + x] + shift
        for x in range(n)
    }
    return links, w, cost, (pin, pout, base[BOT] + shift)


def optimal_partition(policy: Policy) -> OptimizationResult:
    """A chain partition minimizing the total number of issued secrets.

    The partition always has exactly width-many chains, so no user class
    holds more than width secrets. Deterministic: equal-cost optima are
    broken by the solver's fixed path selection, the one
    :func:`min_cost_flow` makes on :func:`build_flow_network`'s network.

    A policy with only one partition into w chains, w being the width,
    skips the solver. The solver's optimum is a w-chain partition too, so
    it is that one. A chain is told from its cover lists and its links are
    its covers. Any other policy is tested on ``work``, the policy with a
    maximum r (:func:`augment_with_maximum`), of n >= 2 labels, less r:

    1. work - r has width w, as r is comparable to every label.
    2. In a w-chain partition of work, r's chain is not r alone, or
       work - r would split into w - 1 chains. So removing r leaves a
       w-chain partition of work - r, and r can head any of its chains.
    3. The solver's links are work - r's chain links plus a link from every
       chain top to r, whichever chain r heads (:func:`_chains_from_parents`
       picks it by declaration index). So they are forced exactly when
       work - r has only one w-chain partition. The w-chain partitions of
       work - r are exactly the maximum matchings of the bipartite graph
       with an edge from y's left copy to x's right copy for each y < x: a
       chain's consecutive labels are matched pairs, and as the order is
       transitive a matching's pairs link into n - 1 - |M| chains. So the
       partition is the only one exactly when a maximum matching M is the
       only one, which holds exactly when M has no alternating cycle and no
       even-length alternating path from a free vertex (Gabow, Kaplan and
       Tarjan 2001): two maximum matchings differ by such cycles and
       paths, and swapping M along one gives another.
    4. M is the width's own matching of the policy's poset
       (:meth:`Poset._chain_children`) when r is synthetic, and that
       matching less r's edge when r is declared. A declared r is always
       matched, or that matching, one of work - r, would exceed work - r's
       maximum.
    5. Per chain the links telescope to W(bottom) - W(r), W being the
       user-weighted up-set size, so the cost is the sum of W(bottom) over
       the chains less w * users(r), and khat is that sum.

    The two tests of step 3, on work - r:

    - A free vertex is the left copy of a chain top or the right copy of a
      chain bottom. Each of its edges leads to a matched vertex, else M
      would grow, and then on along that vertex's matched edge: such a
      path exists exactly when a chain top lies below some label or a
      chain bottom above one. Maximal labels are always chain tops and
      minimal ones chain bottoms, so there is none exactly when r has w
      lower covers and work has w minimal labels.
    - An alternating cycle runs from x's right copy to the left copy of
      some y < x other than x's chain child, and along y's matched edge to
      the right copy of y's chain parent, until it closes. With the first
      test passed every label below another but r has a chain parent, so
      there is none exactly when a depth-first walk in which x steps to
      the chain parent of each such y finds no step back onto its own
      path; each label is entered once.
    """
    if len(policy.poset) == 0:
        raise ValueError("cannot optimize an empty policy")
    work, top, added = augment_with_maximum(policy)
    w, only = _only_partition(policy, work, top)
    if only is None:
        links, _, cost, _ = _chain_parents(work, w)
    else:
        links, cost = only
    return _result(policy, work, top, added, links, w, cost)


def _only_partition(
    policy: Policy, work: Policy, top: str
) -> tuple[int, tuple[dict[str, str], int] | None]:
    """The width w, and the chain-parent links and flow cost of the
    policy's only w-chain partition, or None when it has more than one.

    ``work`` and ``top`` are :func:`augment_with_maximum`'s, the policy
    with a maximum and that maximum r; each chain top links to r. The
    width's matching is computed once, and not at all on a chain.
    """
    p = work.poset
    labels = p.elements
    # every label has a cover path up to r, so n - 1 covers form a tree,
    # and one in which no label has two lower covers is a chain, linked
    # along its covers at a cost of W(bottom) - W(r)
    if len(p.covers) == len(p) - 1 and max(map(len, p._children)) <= 1:
        links = {labels[y]: labels[ps[0]] for y, ps in enumerate(p._parents) if ps}
        return 1, (links, sum(work.user_count.values()) - work.count(top))
    child = policy.poset._chain_children()
    w = child.count(-1)
    # r gives up its chain child when declared, and is appended last when
    # synthetic: the matching of work - r
    r = p.index[top]
    child[r : r + 1] = [-1]
    parent = _only_matching(p, child, w, r)
    if parent is None:
        return w, None
    links = {labels[y]: labels[x] if x >= 0 else top for y, x in enumerate(parent) if y != r}
    # each chain's links, up to r, add up to W(its bottom) - W(r)
    bottoms = (p._up[b] for b, c in enumerate(child) if c < 0 and b != r)
    return w, (links, sum(map(_users_in(work), bottoms)) - w * work.count(top))


def _only_matching(p: Poset, child: list[int], w: int, r: int) -> list[int] | None:
    """The chain parents (-1 for a chain top) of ``child``, a maximum
    matching with w chains of p less its maximum r, if it is that poset's
    only maximum matching; else None. r has no chain child. The two tests
    are those of :func:`optimal_partition`.
    """
    if len(p._children[r]) != w or sum(not cs for cs in p._children) != w:
        return None
    parent = [-1] * len(p)
    for x, c in enumerate(child):
        if c >= 0:
            parent[c] = x
    # the walk enters a label through its chain child: the chain children
    # of the labels entered, and of those on the path
    down = p._down
    entered = on_path = 0
    for root, c in enumerate(child):
        if c < 0 or entered >> c & 1:
            continue
        entered |= 1 << c
        on_path |= 1 << c
        path = [root]
        while path:
            x = path[-1]
            steps = down[x] ^ 1 << x ^ 1 << child[x]
            if steps & on_path:
                return None
            new = steps & ~entered
            if new:
                low = new & -new
                entered |= low
                on_path |= low
                path.append(parent[low.bit_length() - 1])
            else:
                on_path ^= 1 << child[path.pop()]
    return parent


def _result(
    policy: Policy, work: Policy, top: str, added: bool, links: dict[str, str], w: int, cost: int
) -> OptimizationResult:
    """The result for ``policy`` of w chains linked by ``links`` in ``work``.

    ``work``, ``top`` and ``added`` are :func:`augment_with_maximum`'s;
    ``cost`` is the links' flow cost.
    """
    # the flow-cost identity; verify_result checks it against three formulas
    khat = w * work.count(top) + cost
    pi = _chains_from_parents(work.poset, top, w, links)
    if added:
        # a synthetic top has w chain children, so it heads the first chain
        # and never stands alone
        pi = ChainPartition((pi.chains[0][1:],) + pi.chains[1:])

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
