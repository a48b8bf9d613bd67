"""Min-cost flow machinery for chain partition optimization.

The optimizer encodes a policy as a network via vertex splitting: every
label x except the maximum r gets an in-node and an out-node joined by a
unit-lower-bound arc (forcing x to sit in exactly one chain), arcs
out(x) -> in(y) for each y < x carry the user-weighted cost of chaining y
under x, and a sink node collects one unit per chain bottom. A minimum
cost flow of value w (the poset width, kept as the balance at out(r))
then encodes the cheapest chain partition into w chains.

The solver is exact and integral: successive shortest augmenting paths
with node potentials, deterministic tie-breaking by node order, the
solver's own sink numbered first. Each Dijkstra search stops once the sink is settled; nodes it
did not settle have distance at least the sink's, so the path and the
potentials are the ones a full search would give.

``chainforge.optimize`` solves this network on the poset's bitmasks
without building it; the network, its solver and its decoder are the
oracle that solver is tested against.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import Infeasible, NoMaximum
from .policy import Policy

Node = tuple[str, str]
ArcKey = tuple[Node, Node]
Flow = dict[ArcKey, int]

BOTTOM: Node = ("bottom", "")


def vin(x: str) -> Node:
    return ("in", x)


def vout(x: str) -> Node:
    return ("out", x)


def node_name(v: Node) -> str:
    kind, lab = v
    return "bottom" if kind == "bottom" else f"{kind}({lab})"


@dataclass(frozen=True)
class Arc:
    lower: int
    upper: int
    cost: int


class FlowNetwork:
    """Directed graph with arc bounds and costs plus node balances.

    Arc keys are ordered node pairs; a second arc between the same pair is
    rejected. Balances must sum to zero.
    """

    __slots__ = ("nodes", "arcs", "balance")

    def __init__(self, nodes: list[Node] | tuple[Node, ...]):
        self.nodes: tuple[Node, ...] = tuple(nodes)
        self.arcs: dict[ArcKey, Arc] = {}
        self.balance: dict[Node, int] = {v: 0 for v in self.nodes}

    def add_arc(self, u: Node, v: Node, lower: int, upper: int, cost: int) -> None:
        if u not in self.balance or v not in self.balance:
            raise ValueError(f"arc endpoint not a node: {u} -> {v}")
        if (u, v) in self.arcs:
            raise ValueError(f"parallel arc rejected: {node_name(u)} -> {node_name(v)}")
        if not 0 <= lower <= upper:
            raise ValueError("need upper >= lower >= 0")
        self.arcs[(u, v)] = Arc(lower, upper, cost)

    def set_balance(self, v: Node, b: int) -> None:
        if v not in self.balance:
            raise ValueError(f"not a node: {v}")
        self.balance[v] = b

    def check(self) -> None:
        if sum(self.balance.values()) != 0:
            raise ValueError("node balances do not sum to zero")


def build_flow_network(policy: Policy) -> FlowNetwork:
    """The network whose min-cost feasible flow encodes an optimal chain
    partition of the policy into ``w`` chains.

    Requires the poset to have a unique maximum r. Computes the width w
    itself and records it as the balance at out(r), where the decoder and
    the optimizer read it back. Has exactly 2|X| nodes.
    """
    p = policy.poset
    r = p.maximum()
    if r is None:
        raise NoMaximum("the poset must have a unique maximum element")
    w = p.width()

    nodes = [vin(x) for x in p.elements if x != r]
    nodes += [vout(x) for x in p.elements]
    nodes.append(BOTTOM)
    net = FlowNetwork(nodes)

    for x in p.elements:
        if x != r:
            net.add_arc(vin(x), vout(x), 1, 1, 0)

    # for y < x, up(x) is a subset of up(y): the users above y but not above
    # x number W(up y) - W(up x), with W the user-weighted up-set size
    weight = {x: sum(policy.count(z) for z in p.up_set(x)) for x in p.elements}
    for x in p.elements:
        for y in p.down_set(x):
            if y != x:
                net.add_arc(vout(x), vin(y), 0, 1, weight[y] - weight[x])

    for x in p.elements:
        net.add_arc(vout(x), BOTTOM, 0, 1, 0)

    net.set_balance(vout(r), w)
    net.set_balance(BOTTOM, -w)
    net.check()
    return net


def eliminate_lower_bounds(net: FlowNetwork) -> tuple[FlowNetwork, int]:
    """Standard transformation to an equivalent network with zero lower
    bounds.

    Each arc keeps capacity ``upper - lower``; its endpoints' balances
    absorb the forced ``lower`` units. Returns the new network plus the
    cost offset ``sum(lower * cost)``: a min-cost flow f' of the new
    network maps to a min-cost flow ``f = f' + lower`` of the original
    with ``cost(f) = cost(f') + offset``.

    The new network has its own arc and balance dicts, in the input's arc
    order; it shares the (frozen) ``Arc`` values of every arc whose lower
    bound is already zero.
    """
    out = FlowNetwork(net.nodes)
    out.arcs = dict(net.arcs)
    out.balance = dict(net.balance)
    offset = 0
    for (u, v), a in net.arcs.items():
        if a.lower:
            out.arcs[(u, v)] = Arc(0, a.upper - a.lower, a.cost)
            out.balance[u] -= a.lower
            out.balance[v] += a.lower
            offset += a.lower * a.cost
    out.check()
    return out, offset


def restore_lower_bounds(net: FlowNetwork, flow: Flow) -> Flow:
    """Map a flow of the lower-bound-eliminated network back to the
    original: add each arc's lower bound."""
    return {arc: flow.get(arc, 0) + a.lower for arc, a in net.arcs.items()}


def min_cost_flow(net: FlowNetwork) -> Flow:
    """Exact integral minimum-cost feasible flow.

    All lower bounds must be zero (run :func:`eliminate_lower_bounds`
    first). Node imbalances are routed from excess to deficit nodes along
    successive shortest augmenting paths; Dijkstra with node potentials
    keeps reduced costs nonnegative, and ties are broken by node order so
    the chosen optimum is reproducible.

    Each search stops when the sink is popped at distance D. Every node
    not yet settled then has a tentative distance of at least D, and
    nonnegative reduced costs mean no later relaxation could go below D,
    so the sink's path is final. Potentials move by ``min(dist, D)``,
    which is D for every unsettled or unreached node, as it would be after
    a full search: the augmenting paths, potentials and returned optimum
    are those of the full search. The sink carries the lowest node number,
    so it is popped before the other nodes at distance D; none of them
    could have shortened its path, and each of them moves by D either way.

    Raises :class:`Infeasible` if the balances cannot be met.
    """
    if any(a.lower != 0 for a in net.arcs.values()):
        raise ValueError("eliminate lower bounds before solving")

    n = len(net.nodes)
    # the sink is numbered below every other node, so it is popped first
    # among the nodes at its distance
    sink, source = 0, n + 1
    idx = {v: i for i, v in enumerate(net.nodes, 1)}

    # paired residual edges: edge k and k^1 are reverses of each other
    to: list[int] = []
    cap: list[int] = []
    cost: list[int] = []
    adj: list[list[int]] = [[] for _ in range(n + 2)]

    def add_edge(u: int, v: int, c: int, w: int) -> int:
        k = len(to)
        to.append(v), cap.append(c), cost.append(w), adj[u].append(k)
        to.append(u), cap.append(0), cost.append(-w), adj[v].append(k + 1)
        return k

    arc_edge: dict[ArcKey, int] = {}
    for (u, v), a in net.arcs.items():
        arc_edge[(u, v)] = add_edge(idx[u], idx[v], a.upper, a.cost)

    need = 0
    for v, b in net.balance.items():
        if b > 0:
            add_edge(source, idx[v], b, 0)
            need += b
        elif b < 0:
            add_edge(idx[v], sink, -b, 0)

    if any(c < 0 for c in cost[::2]):
        potential = _bellman_ford(source, n + 2, adj, to, cap, cost)
    else:
        potential = [0] * (n + 2)

    INF = float("inf")
    heappop, heappush = heapq.heappop, heapq.heappush
    routed = 0
    while routed < need:
        dist: list[float] = [INF] * (n + 2)
        prev_edge: list[int] = [-1] * (n + 2)
        dist[source] = 0
        heap: list[tuple[float, int]] = [(0, source)]
        while heap:
            d, u = heappop(heap)
            if d > dist[u]:
                continue
            if u == sink:
                break
            du = d + potential[u]
            for k in adj[u]:
                if cap[k] > 0:
                    v = to[k]
                    nd = du + cost[k] - potential[v]
                    if nd < dist[v]:
                        dist[v] = nd
                        prev_edge[v] = k
                        heappush(heap, (nd, v))
        dsink = dist[sink]
        if dsink == INF:
            raise Infeasible("no feasible flow: balances cannot be routed")
        # nodes not settled before the sink, reached or not, move by dsink
        potential = [p + (dv if dv < dsink else dsink) for p, dv in zip(potential, dist)]
        # bottleneck along the path, then augment
        push = need - routed
        v = sink
        while v != source:
            k = prev_edge[v]
            push = min(push, cap[k])
            v = to[k ^ 1]
        v = sink
        while v != source:
            k = prev_edge[v]
            cap[k] -= push
            cap[k ^ 1] += push
            v = to[k ^ 1]
        routed += push

    return {arc: net.arcs[arc].upper - cap[k] for arc, k in arc_edge.items()}


def _bellman_ford(
    src: int, size: int, adj: list[list[int]], to: list[int], cap: list[int], cost: list[int]
) -> list[float]:
    dist: list[float] = [float("inf")] * size
    dist[src] = 0
    for _ in range(size - 1):
        changed = False
        for u in range(size):
            if dist[u] == float("inf"):
                continue
            for k in adj[u]:
                if cap[k] > 0 and dist[u] + cost[k] < dist[to[k]]:
                    dist[to[k]] = dist[u] + cost[k]
                    changed = True
        if not changed:
            break
    return [d if d != float("inf") else 0 for d in dist]


def flow_cost(net: FlowNetwork, flow: Flow) -> int:
    return sum(a.cost * flow.get(arc, 0) for arc, a in net.arcs.items())


def is_feasible(net: FlowNetwork, flow: Flow) -> bool:
    """Capacity bounds on every arc and exact balance at every node.

    Flow on a pair that is not an arc of the network counts as a capacity
    violation (off-arc capacity is zero).
    """
    net_out: dict[Node, int] = {v: 0 for v in net.nodes}
    net_in: dict[Node, int] = {v: 0 for v in net.nodes}
    for arc, a in net.arcs.items():
        f = flow.get(arc, 0)
        if not isinstance(f, int) or not a.lower <= f <= a.upper:
            return False
        u, v = arc
        net_out[u] += f
        net_in[v] += f
    for arc, f in flow.items():
        if arc not in net.arcs and f != 0:
            return False
    return all(net_out[v] - net_in[v] == net.balance[v] for v in net.nodes)
