import pytest

from chainforge import Policy, Poset
from chainforge import flow as flow_module
from chainforge.errors import Infeasible, NoMaximum
from chainforge.flow import (
    BOTTOM,
    FlowNetwork,
    build_flow_network,
    eliminate_lower_bounds,
    flow_cost,
    is_feasible,
    min_cost_flow,
    restore_lower_bounds,
    vin,
    vout,
)
from chainforge.policy import augment_with_maximum, link_cost

from conftest import brute_max_antichain, enumerate_min_cost, random_policies


@pytest.fixture(scope="module")
def demo_net(demo_unit):
    return build_flow_network(demo_unit)


class TestConstruction:
    def test_node_count_is_twice_elements(self, demo_net, demo_unit):
        assert len(demo_net.nodes) == 2 * len(demo_unit.poset)

    def test_unit_arcs_for_all_but_top(self, demo_net):
        for x in "abcdefg":
            arc = demo_net.arcs[(vin(x), vout(x))]
            assert (arc.lower, arc.upper, arc.cost) == (1, 1, 0)
        assert (vin("h"), vout("h")) not in demo_net.arcs
        assert vin("h") not in demo_net.balance

    def test_order_arcs_cost_matches_link_cost(self, demo_net, demo_unit):
        assert demo_net.arcs[(vout("c"), vin("a"))].cost == 2
        cases = [(demo_unit, demo_net)]
        for policy in random_policies(60, 9, seed=307):
            policy, _, _ = augment_with_maximum(policy)
            cases.append((policy, build_flow_network(policy)))
        for policy, net in cases:
            p = policy.poset
            for (u, v), arc in net.arcs.items():
                if u[0] == "out" and v[0] == "in":
                    assert p.lt(v[1], u[1])
                    assert arc.cost == link_cost(policy, u[1], v[1])
                    assert (arc.lower, arc.upper) == (0, 1)
            assert net.balance[vout(p.maximum())] == brute_max_antichain(p)

    def test_order_arcs_cover_every_strict_pair(self, demo_net, demo_unit):
        p = demo_unit.poset
        pairs = {(u[1], v[1]) for (u, v) in demo_net.arcs if u[0] == "out" and v[0] == "in"}
        expect = {(x, y) for x in p.elements for y in p.elements if p.lt(y, x)}
        assert pairs == expect

    def test_sink_arcs(self, demo_net, demo_unit):
        for x in demo_unit.poset.elements:
            arc = demo_net.arcs[(vout(x), BOTTOM)]
            assert (arc.lower, arc.upper, arc.cost) == (0, 1, 0)

    def test_balances(self, demo_net):
        assert demo_net.balance[vout("h")] == 2
        assert demo_net.balance[BOTTOM] == -2
        assert sum(demo_net.balance.values()) == 0

    def test_singleton_network(self):
        pol = Policy.unit(Poset(["r"]))
        net = build_flow_network(pol)
        assert set(net.nodes) == {vout("r"), BOTTOM}
        assert list(net.arcs) == [(vout("r"), BOTTOM)]
        assert net.balance[vout("r")] == 1

    def test_no_maximum_rejected(self):
        with pytest.raises(NoMaximum):
            build_flow_network(Policy.unit(Poset(["x", "y"])))

    def test_parallel_arc_rejected(self):
        net = FlowNetwork([vout("a"), BOTTOM])
        net.add_arc(vout("a"), BOTTOM, 0, 1, 0)
        with pytest.raises(ValueError):
            net.add_arc(vout("a"), BOTTOM, 0, 2, 5)


class TestLowerBoundElimination:
    def test_chain_network_offset_is_zero(self, demo_net):
        reduced, offset = eliminate_lower_bounds(demo_net)
        assert offset == 0
        assert all(a.lower == 0 for a in reduced.arcs.values())

    def test_balance_shift(self, demo_net):
        reduced, _ = eliminate_lower_bounds(demo_net)
        assert reduced.balance[vin("a")] == -1
        assert reduced.balance[vout("a")] == 1
        assert reduced.balance[vout("h")] == 2
        assert sum(reduced.balance.values()) == 0

    def test_identity_when_no_lower_bounds(self):
        net = FlowNetwork([vout("a"), BOTTOM])
        net.add_arc(vout("a"), BOTTOM, 0, 3, 7)
        reduced, offset = eliminate_lower_bounds(net)
        assert offset == 0
        assert reduced.arcs == net.arcs
        assert reduced.balance == net.balance

    def test_offset_collects_forced_cost(self):
        a, b = ("out", "a"), ("out", "b")
        net = FlowNetwork([a, b])
        net.add_arc(a, b, 2, 5, 3)
        net.set_balance(a, 2)
        net.set_balance(b, -2)
        reduced, offset = eliminate_lower_bounds(net)
        assert offset == 6
        assert reduced.arcs[(a, b)].upper == 3
        assert reduced.balance == {a: 0, b: 0}

    def test_input_untouched_and_unshared(self, demo_unit):
        nets = [build_flow_network(demo_unit)]
        for policy in random_policies(20, 12, seed=331):
            nets.append(build_flow_network(augment_with_maximum(policy)[0]))
        for net in nets:
            before = dict(net.arcs), dict(net.balance)
            reduced, _ = eliminate_lower_bounds(net)
            assert (dict(net.arcs), dict(net.balance)) == before
            assert list(reduced.arcs) == list(net.arcs)
            top = next(v for v, b in net.balance.items() if b > 0)
            reduced.add_arc(BOTTOM, top, 0, 1, 0)
            reduced.set_balance(BOTTOM, 0)
            reduced.set_balance(top, 0)
            assert (dict(net.arcs), dict(net.balance)) == before

    def test_round_trip_cost_identity(self, demo_net):
        reduced, offset = eliminate_lower_bounds(demo_net)
        f_reduced = min_cost_flow(reduced)
        f = restore_lower_bounds(demo_net, f_reduced)
        assert flow_cost(demo_net, f) == flow_cost(reduced, f_reduced) + offset


class TestSolver:
    def test_demo_minimum_cost(self, demo_net):
        reduced, offset = eliminate_lower_bounds(demo_net)
        f = restore_lower_bounds(demo_net, min_cost_flow(reduced))
        assert flow_cost(demo_net, f) == 11
        assert is_feasible(demo_net, f)

    def test_rejects_remaining_lower_bounds(self, demo_net):
        with pytest.raises(ValueError):
            min_cost_flow(demo_net)

    def test_zero_balance_zero_cost_network(self):
        a, b = ("out", "a"), ("out", "b")
        net = FlowNetwork([a, b])
        net.add_arc(a, b, 0, 4, 0)
        f = min_cost_flow(net)
        assert f == {(a, b): 0}

    def test_disconnected_is_infeasible(self):
        s, t = ("out", "s"), ("out", "t")
        net = FlowNetwork([s, t])
        net.set_balance(s, 1)
        net.set_balance(t, -1)
        with pytest.raises(Infeasible):
            min_cost_flow(net)

    def test_saturated_capacity_is_infeasible(self):
        s, t = ("out", "s"), ("out", "t")
        net = FlowNetwork([s, t])
        net.add_arc(s, t, 0, 1, 0)
        net.set_balance(s, 2)
        net.set_balance(t, -2)
        with pytest.raises(Infeasible):
            min_cost_flow(net)

    def test_deterministic(self, demo_net):
        reduced, _ = eliminate_lower_bounds(demo_net)
        assert min_cost_flow(reduced) == min_cost_flow(reduced)

    def test_solver_output_feasible_and_binary_on_corpus(self):
        for policy in random_policies(40, 8, seed=211):
            policy, _, _ = augment_with_maximum(policy)
            net = build_flow_network(policy)
            reduced, _ = eliminate_lower_bounds(net)
            f = restore_lower_bounds(net, min_cost_flow(reduced))
            assert is_feasible(net, f)
            assert all(v in (0, 1) for v in f.values())

    def test_unit_arcs_saturated_and_width_routed(self, demo_unit, demo_net):
        reduced, _ = eliminate_lower_bounds(demo_net)
        f = restore_lower_bounds(demo_net, min_cost_flow(reduced))
        p = demo_unit.poset
        for x in p.elements:
            if x != "h":
                assert f[(vin(x), vout(x))] == 1
        assert sum(f[a] for a in f if a[0] == vout("h")) == 2
        assert sum(f[(vout(x), BOTTOM)] for x in p.elements) == 2


def _has_negative_cycle(net, f):
    """Bellman-Ford from a virtual source joined to every node at cost 0:
    a relaxation still possible after |V| rounds proves a negative cycle."""
    edges = []
    for (u, v), a in net.arcs.items():
        if f[(u, v)] < a.upper:
            edges.append((u, v, a.cost))
        if f[(u, v)] > a.lower:
            edges.append((v, u, -a.cost))
    dist = {v: 0 for v in net.nodes}
    for _ in range(len(net.nodes)):
        changed = False
        for u, v, c in edges:
            if dist[u] + c < dist[v]:
                dist[v] = dist[u] + c
                changed = True
        if not changed:
            return False
    return True


def _negative_arc_network():
    s, a, b, c, t = (("out", x) for x in "sabct")
    net = FlowNetwork([s, a, b, c, t])
    for u, v, upper, cost in [
        (s, a, 2, 2), (s, b, 2, 5), (a, b, 1, -4), (a, c, 2, 1),
        (b, c, 1, -2), (b, t, 2, 3), (c, t, 2, 2), (a, t, 1, 6),
    ]:
        net.add_arc(u, v, 0, upper, cost)
    net.set_balance(s, 3)
    net.set_balance(t, -3)
    return net


class TestOptimalityCertificate:
    """A feasible flow is minimum-cost exactly when its residual graph has
    no negative-cost cycle; this reaches sizes enumeration cannot."""

    def test_random_networks(self):
        nets = []
        for policy in random_policies(30, 40, seed=331, min_n=10):
            policy, _, _ = augment_with_maximum(policy)
            nets.append(eliminate_lower_bounds(build_flow_network(policy))[0])
        assert max(len(net.nodes) for net in nets) > 60
        for net in nets:
            f = min_cost_flow(net)
            assert is_feasible(net, f)
            assert not _has_negative_cycle(net, f)

    def test_negative_cost_arc(self, monkeypatch):
        calls = []
        real = flow_module._bellman_ford
        monkeypatch.setattr(
            flow_module, "_bellman_ford", lambda *a: calls.append(1) or real(*a)
        )
        net = _negative_arc_network()
        f = min_cost_flow(net)
        assert calls == [1]
        assert is_feasible(net, f)
        assert not _has_negative_cycle(net, f)
        assert flow_cost(net, f) == enumerate_min_cost(net) == 11

    def test_certificate_detects_a_suboptimal_flow(self):
        net = _negative_arc_network()
        s, a, b, c, t = (("out", x) for x in "sabct")
        f = {arc: 0 for arc in net.arcs}
        f.update({(s, b): 2, (b, t): 2, (s, a): 1, (a, t): 1})
        assert is_feasible(net, f)
        assert _has_negative_cycle(net, f)


def _tiny_posets():
    yield Policy.unit(Poset(["r"]))
    yield Policy.unit(Poset(["lo", "hi"], [("lo", "hi")]))
    yield Policy.unit(Poset(["x", "y"]))  # needs synthetic top
    yield Policy.unit(Poset(["c0", "c1", "c2"], [("c0", "c1"), ("c1", "c2")]))
    yield Policy.unit(
        Poset(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    )


class TestAgainstEnumeration:
    def test_solver_matches_exhaustive_enumeration(self):
        for policy in _tiny_posets():
            policy, _, _ = augment_with_maximum(policy)
            net = build_flow_network(policy)
            expect = enumerate_min_cost(net)
            assert expect is not None
            reduced, _ = eliminate_lower_bounds(net)
            f = restore_lower_bounds(net, min_cost_flow(reduced))
            assert flow_cost(net, f) == expect


class TestFeasibility:
    def test_zero_flow_violates_balance(self, demo_net):
        assert not is_feasible(demo_net, {arc: 0 for arc in demo_net.arcs})

    def test_capacity_violation(self, demo_net):
        reduced, _ = eliminate_lower_bounds(demo_net)
        f = restore_lower_bounds(demo_net, min_cost_flow(reduced))
        arc = (vout("h"), BOTTOM)
        f[arc] = demo_net.arcs[arc].upper + 1
        assert not is_feasible(demo_net, f)

    def test_flow_on_non_arc_rejected(self, demo_net):
        reduced, _ = eliminate_lower_bounds(demo_net)
        f = restore_lower_bounds(demo_net, min_cost_flow(reduced))
        f[(vout("a"), vin("b"))] = 1  # a < b, arc runs the other way
        assert not is_feasible(demo_net, f)
