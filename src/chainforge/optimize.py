"""End-to-end chain partition optimization.

Pipeline: guarantee a unique maximum (synthetic, zero users, if needed),
build the flow network (which computes the width w), solve the min-cost flow,
decode the unit arcs back into a chain partition with exactly w chains,
strip the synthetic maximum again, and report the metrics.

The result minimizes the total number of issued secrets over all chain
partitions while no user class ever holds more than w secrets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedFlow, NoMaximum, NotAFeasibleFlow
from .flow import (
    BOTTOM,
    Flow,
    build_flow_network,
    eliminate_lower_bounds,
    flow_cost,
    is_feasible,
    min_cost_flow,
    restore_lower_bounds,
    vin,
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

    Unit flow on out(x) -> in(y) makes x the chain-parent of y. The
    maximum r has up to w such children; the one with the largest
    declaration index continues r's own chain (the choice never affects
    any metric), the rest start their own chains. Pass ``net`` to reuse an
    already-built network for this policy; w is read from its balance at
    out(r).
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

    if not is_feasible(net, flow):
        raise NotAFeasibleFlow("flow violates capacity or balance constraints")

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


def optimal_partition(policy: Policy) -> OptimizationResult:
    """A chain partition minimizing the total number of issued secrets.

    The partition always has exactly width-many chains, so no user class
    holds more than width secrets. Deterministic: equal-cost optima are
    broken by the solver's fixed path selection.
    """
    if len(policy.poset) == 0:
        raise ValueError("cannot optimize an empty policy")
    work, top, added = augment_with_maximum(policy)
    net = build_flow_network(work)
    w = net.balance[vout(top)]
    reduced, _ = eliminate_lower_bounds(net)
    f = restore_lower_bounds(net, min_cost_flow(reduced))
    cost = flow_cost(net, f)

    pi = partition_from_flow(work, f, net=net)
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
