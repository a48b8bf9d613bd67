import dataclasses
import random

import pytest

from chainforge import (
    ChainPartition,
    OptimizationResult,
    Policy,
    Poset,
    optimal_partition,
    verify_result,
)
from chainforge.brute import brute_minimum
from chainforge.errors import MalformedFlow, NoMaximum, NotAFeasibleFlow
from chainforge.flow import (
    BOTTOM,
    build_flow_network,
    eliminate_lower_bounds,
    flow_cost,
    min_cost_flow,
    restore_lower_bounds,
    vin,
    vout,
)
from chainforge.formats import partition_text
from chainforge.gen import random_policy
from chainforge.optimize import partition_from_flow
from chainforge.policy import (
    augment_with_maximum,
    derivation_tree,
    issued_secrets,
    max_bundle_size,
)

from conftest import random_policies


def flow_for_links(policy, links):
    """Assemble the feasible flow whose chain-parent relation is `links`
    (child -> parent), bottoms inferred from parents that have no child."""
    p = policy.poset
    top = p.maximum()
    net = build_flow_network(policy)
    f = {arc: 0 for arc in net.arcs}
    for x in p.elements:
        if x != top:
            f[(vin(x), vout(x))] = 1
    withchild = set()
    for child, parent in links.items():
        f[(vout(parent), vin(child))] = 1
        withchild.add(parent)
    for x in p.elements:
        if x not in withchild:
            f[(vout(x), BOTTOM)] = 1
    return f


class TestPartitionFromFlow:
    def test_known_optimal_flow_decodes(self, demo_unit):
        links = {"a": "c", "c": "e", "e": "g", "b": "d", "d": "f", "f": "h", "g": "h"}
        f = flow_for_links(demo_unit, links)
        pi = partition_from_flow(demo_unit, f)
        # the top's chain continues into its largest-index child, g
        assert set(map(frozenset, pi.chains)) == {
            frozenset("hgeca"), frozenset("fdb"),
        }
        assert len(pi.chains) == 2
        assert set(pi.bottoms) == {"a", "b"}
        assert issued_secrets(demo_unit, pi) == 13
        # the decoded partition's tree reproduces the flow's links exactly
        assert derivation_tree(demo_unit, pi).parent == links

    def test_singleton_flow(self):
        pol = Policy.unit(Poset(["r"]))
        pi = partition_from_flow(pol, {(vout("r"), BOTTOM): 1})
        assert pi.chains == (("r",),)

    def test_zero_flow_is_malformed(self, demo_unit):
        net = build_flow_network(demo_unit)
        with pytest.raises(MalformedFlow):
            partition_from_flow(demo_unit, {arc: 0 for arc in net.arcs})

    def test_two_parents_is_malformed(self, demo_unit):
        links = {"a": "c", "c": "e", "e": "g", "b": "d", "d": "f", "f": "h", "g": "h"}
        f = flow_for_links(demo_unit, links)
        f[(vout("b"), vin("a"))] = 1  # a now also hangs under b
        with pytest.raises(MalformedFlow):
            partition_from_flow(demo_unit, f)

    def test_two_children_is_malformed(self, demo_unit):
        links = {"a": "c", "c": "e", "e": "g", "b": "d", "d": "f", "f": "h", "g": "h"}
        f = flow_for_links(demo_unit, links)
        del f[(vout("c"), vin("a"))]
        f[(vout("d"), vin("a"))] = 1  # d would have children a and b
        with pytest.raises(MalformedFlow):
            partition_from_flow(demo_unit, f)

    def test_broken_conservation_is_not_feasible(self, demo_unit):
        links = {"a": "c", "c": "e", "e": "g", "b": "d", "d": "f", "f": "h", "g": "h"}
        f = flow_for_links(demo_unit, links)
        f[(vin("a"), vout("a"))] = 0  # structure intact, balance broken
        with pytest.raises(NotAFeasibleFlow):
            partition_from_flow(demo_unit, f)

    def test_requires_maximum(self):
        with pytest.raises(NoMaximum):
            partition_from_flow(Policy.unit(Poset(["x", "y"])), {})


class TestOptimalPartition:
    def test_demo_metrics(self, demo_unit):
        res = optimal_partition(demo_unit)
        assert res.khat == 13
        assert res.width == 2
        assert res.kmax == 2
        assert res.flow_cost == 11
        assert len(res.partition.chains) == 2

    def test_chain_poset(self):
        labs = [f"c{i}" for i in range(5)]
        p = Poset(labs, [(labs[i], labs[i + 1]) for i in range(4)])
        res = optimal_partition(Policy.unit(p))
        assert res.khat == 5
        assert res.width == 1
        assert res.kmax == 1
        assert res.partition.chains == (("c4", "c3", "c2", "c1", "c0"),)

    def test_antichain_with_real_top(self):
        for n in (1, 2, 4):
            labs = [f"x{i}" for i in range(n)] + ["top"]
            p = Poset(labs, [(f"x{i}", "top") for i in range(n)])
            res = optimal_partition(Policy.unit(p))
            assert res.khat == 2 * n if n else 1
            assert res.width == max(n, 1)
            assert res.kmax == res.width

    def test_synthetic_top_is_stripped(self):
        p = Poset(["x", "y"])
        res = optimal_partition(Policy.unit(p))
        assert set(map(frozenset, res.partition.chains)) == {
            frozenset(["x"]), frozenset(["y"]),
        }
        assert res.khat == 2
        assert res.width == 2

    def test_weighted_counts_shift_the_optimum(self, demo_poset):
        # all weight on e: anything chaining c under d costs e's users extra
        pol = Policy(demo_poset, {"e": 10, "a": 1})
        res = optimal_partition(pol)
        report = brute_minimum(pol)
        assert res.khat == report.min_khat

    def test_deterministic(self, demo_unit):
        a = optimal_partition(demo_unit)
        b = optimal_partition(demo_unit)
        assert a == b

    def test_empty_policy_rejected(self):
        with pytest.raises(ValueError):
            optimal_partition(Policy(Poset([])))

    def test_matches_brute_oracle_on_corpus(self):
        for policy in random_policies(60, 7, seed=401):
            res = optimal_partition(policy)
            report = brute_minimum(policy)
            assert res.khat == report.min_khat
            assert len(res.partition.chains) == policy.poset.width()
            assert res.kmax <= res.width


class TestVerifyResult:
    def test_accepts_genuine_result(self, demo_unit):
        res = optimal_partition(demo_unit)
        assert verify_result(demo_unit, res)

    def test_rejects_tampered_khat(self, demo_unit):
        res = optimal_partition(demo_unit)
        assert not verify_result(demo_unit, dataclasses.replace(res, khat=12))

    def test_rejects_wrong_chain_count(self, demo_unit, demo_poset):
        res = optimal_partition(demo_unit)
        wide = ChainPartition.from_blocks(
            demo_poset, [["a", "b"], ["c", "e"], ["d", "g"], ["f", "h"]]
        )
        assert not verify_result(demo_unit, dataclasses.replace(res, partition=wide))

    def test_rejects_invalid_partition(self, demo_unit):
        res = optimal_partition(demo_unit)
        broken = ChainPartition((("h", "g"),))
        assert not verify_result(demo_unit, dataclasses.replace(res, partition=broken))

    def test_rejects_tampered_kmax(self, demo_unit):
        res = optimal_partition(demo_unit)
        assert not verify_result(demo_unit, dataclasses.replace(res, kmax=3))


def flow_oracle(policy):
    """optimal_partition's answer computed through the flow network: build,
    eliminate lower bounds, min-cost flow, restore, decode."""
    work, top, added = augment_with_maximum(policy)
    net = build_flow_network(work)
    reduced, _ = eliminate_lower_bounds(net)
    f = restore_lower_bounds(net, min_cost_flow(reduced))
    pi = partition_from_flow(work, f)
    if added:
        chains = tuple(c[1:] if c[0] == top else c for c in pi.chains)
        pi = ChainPartition(tuple(c for c in chains if c))
    return OptimizationResult(
        partition=pi,
        khat=issued_secrets(policy, pi),
        width=net.balance[vout(top)],
        flow_cost=flow_cost(net, f),
        kmax=max_bundle_size(policy, pi),
    )


def total_order(n, seed, top_first):
    labels = [f"c{i}" for i in range(n)]
    covers = [(labels[i], labels[i + 1]) for i in range(n - 1)]
    rng = random.Random(seed)
    users = {x: rng.randint(0, 5) for x in labels}
    return Policy(Poset(labels[::-1] if top_first else labels, covers), users)


def fence(tops, seed, reverse):
    """b_i < t_i and b_i < t_(i-1); tops declared first, in increasing or
    decreasing index order."""
    t = [f"t{i}" for i in range(tops)]
    b = [f"b{i}" for i in range(tops)]
    covers = [(b[i], t[i]) for i in range(tops)] + [(b[i], t[i - 1]) for i in range(1, tops)]
    labels = (t[::-1] if reverse else t) + b
    rng = random.Random(seed)
    return Policy(Poset(labels, covers), {x: rng.randint(0, 5) for x in labels})


def with_maximum_at(policy, position):
    """The policy plus a new maximum above its maximal elements, declared at
    the given position of the element list."""
    p = policy.poset
    labels = list(p.elements)
    labels.insert(position, "top")
    covers = p.covers + tuple((m, "top") for m in p.maximal_elements())
    return Policy(Poset(labels, covers), {**policy.user_count, "top": 3})


class TestAgainstFlowOracle:
    """optimal_partition solves the flow network on bitmasks with the same
    tie-breaking as min_cost_flow, so it must return the oracle's partition,
    not only an equally cheap one."""

    def assert_same(self, policy):
        got, want = optimal_partition(policy), flow_oracle(policy)
        assert partition_text(got.partition) == partition_text(want.partition)
        assert (got.khat, got.width, got.kmax, got.flow_cost) == (
            want.khat, want.width, want.kmax, want.flow_cost,
        )

    def test_random_policies(self):
        for policy in random_policies(150, 24, seed=503):
            self.assert_same(policy)
        for i, density in enumerate((0.05, 0.1, 0.3)):
            self.assert_same(random_policy(70, density, seed=517 + i))

    def test_mid_size_random_policies(self):
        # large enough that settled in-nodes cross many others in the b(y)
        # order and out-nodes are corrected while their offers are queued
        for i in range(12):
            n = 50 + 30 * i // 11
            density = (0.05, 0.1, 0.15, 0.2)[i % 4]
            self.assert_same(random_policy(n, density, seed=531 + i))

    @pytest.mark.parametrize("top_first", [False, True], ids=["bottom-first", "top-first"])
    def test_total_orders(self, top_first):
        for n, seed in ((1, 0), (2, 1), (7, 2), (60, 3)):
            self.assert_same(total_order(n, seed, top_first))

    def test_long_total_order(self):
        self.assert_same(total_order(200, 4, False))

    @pytest.mark.parametrize("reverse", [False, True], ids=["increasing", "reversed"])
    def test_fences(self, reverse):
        for tops, seed in ((3, 0), (3, 1), (40, 2), (40, 3), (120, 4)):
            self.assert_same(fence(tops, seed, reverse))

    def test_maximum_declared_first_mid_list_and_last(self):
        for policy in random_policies(12, 14, seed=521, min_n=2):
            n = len(policy.poset)
            for position in (0, n // 2, n):
                self.assert_same(with_maximum_at(policy, position))

    def test_zero_users(self):
        for policy in random_policies(24, 16, seed=523):
            self.assert_same(Policy(policy.poset))
        self.assert_same(Policy(fence(40, 0, False).poset))
        self.assert_same(Policy(total_order(30, 0, False).poset))

    def test_single_label(self):
        for users in (0, 4):
            self.assert_same(Policy(Poset(["solo"]), {"solo": users}))
