import dataclasses

import pytest

from chainforge import (
    ChainPartition,
    Policy,
    Poset,
    brute_minimum,
    build_flow_network,
    derivation_tree,
    eliminate_lower_bounds,
    issued_secrets,
    min_cost_flow,
    optimal_partition,
    partition_from_flow,
    restore_lower_bounds,
    verify_result,
)
from chainforge.errors import MalformedFlow, NoMaximum, NotAFeasibleFlow
from chainforge.flow import BOTTOM, vin, vout

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
