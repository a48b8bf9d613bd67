"""Optimality certificate for chain-parent links, from node potentials.

The chain-parent links that ``chainforge.optimize`` computes (child ->
parent, one for every label but the maximum r) are a feasible flow of the
paper's network (``chainforge.flow.build_flow_network``): out(x) -> in(y)
carries one unit for each link x -> y; out(x) -> bottom carries one for
every label x but r with no chain child, and for r when it has w - 1 chain
children rather than w. A feasible flow has minimum cost iff some node
potentials pi give every residual arc a nonnegative reduced cost
c(u, v) + pi(u) - pi(v): LP duality (Ahuja, Magnanti & Orlin, *Network
Flows*, 1993, Thm 9.3). The forced arcs in(x) -> out(x) carry exactly one
unit, so neither way is residual. With W the user-weighted up-set size,
a(y) = pi(in y) - W(y) and b(x) = pi(out x) - W(x), the other arcs give:

* a(y) <= b(x) for every y < x whose chain parent is not x, as out(x) ->
  in(y), of cost W(y) - W(x), is empty;
* a(y) >= b(x) when it is, as the reverse arc carries that unit back;
* pi(out x) >= pi(bottom) when out(x) does not route to the bottom node,
  and pi(out x) <= pi(bottom) when it does.

The potentials of successive shortest paths, as :func:`min_cost_flow`
computes them, also hold a(y) = b(x) on every link x -> y but those of
r: the path that makes the link leaves its reverse arc at reduced cost 0,
and out(x) has no other way in, so each later search reaches or moves
both ends alike. That is checked too.

This module derives the flow from the links alone and checks it is
feasible and that the potentials certify it. Like :mod:`chainforge.brute`
it is an oracle for the tests, and it shares no code with the optimizer,
the flow network or ``Poset.width``.
"""

from __future__ import annotations

from .policy import Policy

Potentials = tuple[dict[str, int], dict[str, int], int]


def _up_weights(policy: Policy) -> dict[str, int]:
    """W(x), the user count summed over x's up-set, for every label: one
    popcount per distinct user count."""
    p = policy.poset
    holders: dict[int, int] = {}  # user count -> mask of the labels with it
    for i, x in enumerate(p.elements):
        c = policy.count(x)
        if c:
            holders[c] = holders.get(c, 0) | 1 << i
    return {
        x: sum(c * (up & mask).bit_count() for c, mask in holders.items())
        for x, up in zip(p.elements, p._up)
    }


def _two_largest(pairs: list[tuple[int, str]]) -> list[tuple[int, str]]:
    """The two largest (a, label) pairs with distinct labels."""
    top: list[tuple[int, str]] = []
    for pair in sorted(set(pairs), reverse=True):
        if not top or pair[1] != top[0][1]:
            top.append(pair)
            if len(top) == 2:
                break
    return top


def certificate_violations(
    policy: Policy, links: dict[str, str], w: int, potentials: Potentials
) -> list[str]:
    """The conditions that the links and potentials break, as messages: an
    empty list certifies that the links are a minimum-cost flow of value w.

    ``potentials`` holds pi of the in-nodes and the out-nodes by label, and
    the bottom node's, as ``optimize._chain_parents`` returns them. The
    policy must have a unique maximum.
    """
    p = policy.poset
    r = p.maximum()
    if r is None:
        return ["the poset has no unique maximum"]
    pin, pout, pbot = potentials
    bad: list[str] = []

    # the flow the links encode
    children: dict[str, list[str]] = {x: [] for x in p.elements}
    for y in p.elements:
        if y == r:
            continue
        x = links.get(y)
        if x is None or x not in children or not p.lt(y, x):
            bad.append(f"{y!r} has no chain parent above it")
        else:
            children[x].append(y)
    for x, ys in children.items():
        if x != r and len(ys) > 1:
            bad.append(f"{x!r} has {len(ys)} chain children")
    if len(children[r]) not in (w - 1, w):
        bad.append(f"the maximum has {len(children[r])} chain children, not {w} or {w - 1}")
    if bad:
        return bad

    weight = _up_weights(policy)
    a = {y: pin[y] - weight[y] for y in p.elements if y != r}
    b = {x: pout[x] - weight[x] for x in p.elements}

    # arcs out(x) -> in(y) and their reverses
    for y, x in links.items():
        if a[y] < b[x] or x != r and a[y] != b[x]:
            bad.append(f"link {x!r} -> {y!r}: a({y!r}) {'<' if a[y] < b[x] else '>'} b({x!r})")
    # the two largest a(y) over each label's strict down-set, up the covers
    below: dict[str, list[str]] = {x: [] for x in p.elements}
    for c, x in p.covers:
        below[x].append(c)
    top: dict[str, list[tuple[int, str]]] = {}
    for x in p.linear_extension():
        pairs = []
        for c in below[x]:
            pairs.append((a[c], c))
            pairs.extend(top[c])
        top[x] = _two_largest(pairs)
        if x == r:
            continue
        # x has at most one chain child; the largest a(y) of another y
        for ay, y in top[x]:
            if y not in children[x]:
                if ay > b[x]:
                    bad.append(f"arc {x!r} -> {y!r}: a({y!r}) > b({x!r})")
                break
    tops = set(children[r])
    others = [(a[y], y) for y in a if y not in tops]
    if others and max(others)[0] > b[r]:
        bad.append(f"arc {r!r} -> {max(others)[1]!r}: a > b({r!r})")

    # arcs out(x) -> bottom and their reverses
    for x in p.elements:
        routed = not children[x] if x != r else len(children[r]) == w - 1
        if routed and pout[x] > pbot:
            bad.append(f"{x!r} routes to the bottom node above its potential")
        if not routed and pout[x] < pbot:
            bad.append(f"{x!r} does not route to the bottom node, below its potential")
    return bad
