import random

import pytest

from chainforge import ChainPartition, Policy, Poset
from chainforge.brute import enumerate_chain_partitions
from chainforge.errors import (
    InvalidPartition,
    MalformedFlow,
    NoMaximum,
    NotComparable,
    UnknownLabel,
)
from chainforge.policy import (
    _chains_from_parents,
    attach_to_maximum,
    augment_with_maximum,
    bundle_labels,
    derivation_tree,
    issued_secrets,
    issued_secrets_via_bottoms,
    issued_secrets_via_tree,
    link_cost,
    max_bundle_size,
    secret_holders,
    total_secrets,
)

from conftest import DEMO_ELEMENTS, random_chain_partition, random_policies


@pytest.fixture(scope="module")
def demo_zero(demo_poset):
    return Policy(demo_poset)


class TestPolicy:
    def test_counts_default_to_zero(self, demo_poset):
        pol = Policy(demo_poset, {"h": 5})
        assert pol.count("h") == 5
        assert pol.count("a") == 0

    def test_unknown_label_in_counts(self, demo_poset):
        with pytest.raises(UnknownLabel):
            Policy(demo_poset, {"z": 1})

    def test_negative_count_rejected(self, demo_poset):
        with pytest.raises(ValueError):
            Policy(demo_poset, {"a": -1})

    @pytest.mark.parametrize("count", [True, False, 1.0, "1"])
    def test_non_integer_count_rejected(self, demo_poset, count):
        # policy_text would write "a=True", which parse_policy rejects
        with pytest.raises(ValueError):
            Policy(demo_poset, {"a": count})

    def test_count_of_unknown_label(self, demo_unit):
        with pytest.raises(UnknownLabel):
            demo_unit.count("zz")


class TestChainPartition:
    def test_from_blocks_orders_top_first(self, demo_poset):
        pi = ChainPartition.from_blocks(demo_poset, [["a", "c", "e", "g"], ["b", "d", "f", "h"]])
        assert pi.chains == (("g", "e", "c", "a"), ("h", "f", "d", "b"))
        assert pi.tops == ("g", "h")
        assert pi.bottoms == ("a", "b")

    def test_from_blocks_rejects_non_chain(self, demo_poset):
        with pytest.raises(InvalidPartition):
            ChainPartition.from_blocks(demo_poset, [["b", "c"], list("adefgh")])

    def test_from_blocks_rejects_missing_elements(self, demo_poset):
        with pytest.raises(InvalidPartition):
            ChainPartition.from_blocks(demo_poset, [["a", "b"]])

    def test_from_blocks_rejects_empty_block(self, demo_poset):
        with pytest.raises(InvalidPartition, match="^empty chain$"):
            ChainPartition.from_blocks(demo_poset, [list("aceg"), [], list("bdfh")])


class TestSecretHolders:
    def test_values(self, demo_unit):
        assert secret_holders(demo_unit, "d", "b") == ("b",)
        assert secret_holders(demo_unit, "c", "a") == ("a", "b")

    def test_not_comparable(self, demo_unit):
        with pytest.raises(NotComparable):
            secret_holders(demo_unit, "b", "e")
        with pytest.raises(NotComparable):
            secret_holders(demo_unit, "a", "a")

    def test_contains_child_never_parent_never_top(self):
        for policy in random_policies(25, 8, seed=71, min_n=2):
            policy, top, _ = augment_with_maximum(policy)
            p = policy.poset
            for parent in p.elements:
                for child in p.elements:
                    if not p.lt(child, parent):
                        continue
                    held = secret_holders(policy, parent, child)
                    assert child in held
                    assert parent not in held
                    assert top not in held


class TestLinkCost:
    def test_unit_values(self, demo_unit):
        assert link_cost(demo_unit, "c", "a") == 2
        assert link_cost(demo_unit, "e", "c") == 3

    def test_zero_counts(self, demo_zero):
        assert link_cost(demo_zero, "c", "a") == 0


class TestBundles:
    def test_bundle_of_top_label(self, demo_unit, part_a, part_b, part_c):
        assert bundle_labels(demo_unit, "h", part_a) == ("b", "e", "g", "h")
        assert bundle_labels(demo_unit, "h", part_b) == ("b", "f", "h")
        assert bundle_labels(demo_unit, "h", part_c) == ("g", "h")

    def test_bundle_of_mid_label(self, demo_unit, part_a, part_b, part_c):
        assert bundle_labels(demo_unit, "g", part_a) == ("b", "e", "g")
        assert bundle_labels(demo_unit, "g", part_b) == ("b", "d", "g")
        assert bundle_labels(demo_unit, "g", part_c) == ("d", "g")

    def test_minimal_lone_label_bundle_is_itself(self, demo_unit, part_a):
        assert bundle_labels(demo_unit, "a", part_a) == ("a",)

    def test_own_label_always_in_bundle(self, demo_unit, part_b):
        for x in DEMO_ELEMENTS:
            assert x in bundle_labels(demo_unit, x, part_b)

    def test_invalid_partition_rejected(self, demo_unit, demo_poset):
        bad = ChainPartition((("h", "f"), ("g", "e", "c", "a")))
        with pytest.raises(InvalidPartition):
            bundle_labels(demo_unit, "h", bad)

    def test_misordered_chain_rejected(self, demo_unit):
        bad = ChainPartition((("a", "c", "e", "g"), ("h", "f", "d", "b")))
        with pytest.raises(InvalidPartition):
            bundle_labels(demo_unit, "h", bad)


class TestAggregates:
    def test_max_bundle_size(self, demo_unit, part_a, part_b, part_c):
        assert max_bundle_size(demo_unit, part_a) == 4
        assert max_bundle_size(demo_unit, part_b) == 3
        assert max_bundle_size(demo_unit, part_c) == 2

    def test_single_chain_poset(self):
        labs = ["c0", "c1", "c2"]
        p = Poset(labs, [("c0", "c1"), ("c1", "c2")])
        pol = Policy.unit(p)
        pi = ChainPartition.from_blocks(p, [labs])
        assert max_bundle_size(pol, pi) == 1
        assert total_secrets(pol, pi) == 3

    def test_empty_policy(self):
        pol, pi = Policy(Poset([])), ChainPartition(())
        assert max_bundle_size(pol, pi) == 0
        assert total_secrets(pol, pi) == 0
        assert issued_secrets(pol, pi) == 0
        assert issued_secrets_via_bottoms(pol, pi) == 0

    def test_total_secrets(self, demo_unit, part_a, part_b, part_c):
        assert total_secrets(demo_unit, part_a) == 20
        assert total_secrets(demo_unit, part_b) == 17
        assert total_secrets(demo_unit, part_c) == 13

    def test_issued_equals_total_under_unit_counts(self, demo_unit, part_a, part_c):
        assert issued_secrets(demo_unit, part_a) == 20
        assert issued_secrets(demo_unit, part_c) == 13

    def test_issued_zero_counts(self, demo_zero, part_c):
        assert issued_secrets(demo_zero, part_c) == 0

    def test_issued_weighted(self, demo_poset, part_c):
        pol = Policy(demo_poset, {"h": 5})
        assert issued_secrets(pol, part_c) == 10  # 5 users, 2 secrets each

    def test_empty_chain_rejected(self, demo_unit, part_c):
        with pytest.raises(InvalidPartition, match="^empty chain$"):
            issued_secrets(demo_unit, ChainPartition(part_c.chains + ((),)))


class TestDerivationTree:
    def test_tree_of_two_chain_partition(self, demo_unit, part_c):
        tree = derivation_tree(demo_unit, part_c)
        assert tree.root == "h"
        assert tree.parent == {
            "a": "c", "c": "e", "e": "g", "g": "h",
            "b": "d", "d": "f", "f": "h",
        }

    def test_tree_attaches_tops_to_root(self, demo_unit, part_a):
        tree = derivation_tree(demo_unit, part_a)
        assert tree.parent["b"] == "h"
        assert tree.parent["e"] == "h"
        assert tree.parent["g"] == "h"
        assert tree.parent["a"] == "b"

    def test_single_chain_tree_is_the_chain(self):
        labs = ["c0", "c1", "c2"]
        p = Poset(labs, [("c0", "c1"), ("c1", "c2")])
        pol = Policy.unit(p)
        pi = ChainPartition.from_blocks(p, [labs])
        tree = derivation_tree(pol, pi)
        assert tree.parent == {"c1": "c2", "c0": "c1"}

    def test_requires_maximum(self):
        p = Poset(["x", "y"])
        pol = Policy.unit(p)
        pi = ChainPartition.from_blocks(p, [["x"], ["y"]])
        with pytest.raises(NoMaximum):
            derivation_tree(pol, pi)


class TestChainsFromParents:
    # r > a > b with w = 1: exactly one link may lead to the maximum
    @pytest.fixture(scope="class")
    def three(self):
        return Poset(["r", "a", "b"], [("a", "r"), ("b", "a")])

    def test_too_many_children_of_the_maximum(self, three):
        with pytest.raises(MalformedFlow, match="^maximum has 2 chain children, expected 1 or 0$"):
            _chains_from_parents(three, "r", 1, {"a": "r", "b": "r"})

    def test_links_that_miss_labels(self, three):
        # a and b link to each other, so no walk from the maximum reaches them
        with pytest.raises(MalformedFlow, match="^decoded chains do not cover the poset$"):
            _chains_from_parents(three, "r", 1, {"a": "b", "b": "a"})


class TestIssuedSecretsFormulas:
    def test_via_tree_values(self, demo_unit, part_a, part_c):
        assert issued_secrets_via_tree(demo_unit, part_c) == 13
        assert issued_secrets_via_tree(demo_unit, part_a) == 20

    def test_via_tree_zero_counts(self, demo_zero, part_c):
        assert issued_secrets_via_tree(demo_zero, part_c) == 0

    def test_via_bottoms_values(self, demo_unit, part_a, part_c):
        assert issued_secrets_via_bottoms(demo_unit, part_a) == 20  # 8+6+4+2
        assert issued_secrets_via_bottoms(demo_unit, part_c) == 13  # 8+5

    def test_via_bottoms_singleton_partition(self, demo_unit, demo_poset):
        pi = ChainPartition.from_blocks(demo_poset, [[x] for x in DEMO_ELEMENTS])
        expect = sum(demo_poset.up_size(x) for x in DEMO_ELEMENTS)
        assert issued_secrets_via_bottoms(demo_unit, pi) == expect

    def test_three_formulas_agree_on_random_pairs(self):
        rng = random.Random(97)
        for policy in random_policies(60, 9, seed=97):
            policy, _, _ = augment_with_maximum(policy)
            pi = random_chain_partition(policy.poset, rng)
            a = issued_secrets(policy, pi)
            b = issued_secrets_via_tree(policy, pi)
            c = issued_secrets_via_bottoms(policy, pi)
            assert a == b == c


class TestStructuralProperties:
    def test_bundle_membership_matches_secret_holders(self):
        # for every tree edge, the labels holding the child's secret are
        # exactly the classes the edge disconnects from it
        rng = random.Random(131)
        for policy in random_policies(40, 8, seed=131):
            policy, top, _ = augment_with_maximum(policy)
            p = policy.poset
            pi = random_chain_partition(p, rng)
            tree = derivation_tree(policy, pi)
            bundles = {x: set(bundle_labels(policy, x, pi)) for x in p.elements}
            for child, parent in tree.parent.items():
                held = set(secret_holders(policy, parent, child))
                for x in p.elements:
                    if x == top:
                        continue
                    assert (child in bundles[x]) == (x in held)

    def test_bundle_size_bounded_by_chain_count(self):
        rng = random.Random(137)
        for policy in random_policies(40, 9, seed=137):
            pi = random_chain_partition(policy.poset, rng)
            for x in policy.poset.elements:
                assert len(bundle_labels(policy, x, pi)) <= len(pi.chains)

    def test_top_bundle_hits_every_chain_once(self):
        rng = random.Random(139)
        for policy in random_policies(40, 8, seed=139):
            policy, top, _ = augment_with_maximum(policy)
            pi = random_chain_partition(policy.poset, rng)
            bundle = bundle_labels(policy, top, pi)
            assert len(bundle) == len(pi.chains)
            for chain in pi.chains:
                assert sum(1 for z in bundle if z in chain) == 1


def _leq_bundle(p, x, pi):
    """Reference bundle: per chain, the first label at or below x, found by
    ``leq`` alone."""
    out = []
    for chain in pi.chains:
        for z in chain:
            if p.leq(z, x):
                out.append(z)
                break
    return p.ordered(out)


class TestAgainstOrderQueries:
    # every bundle and holder set read off the bitmasks equals the one
    # found by pairwise leq queries
    def test_bundles_and_aggregates(self):
        for policy in random_policies(25, 7, seed=163, min_n=3):
            for pol in (policy, augment_with_maximum(policy)[0]):
                p = pol.poset
                for pi in enumerate_chain_partitions(p):
                    bundles = {x: _leq_bundle(p, x, pi) for x in p.elements}
                    for x in p.elements:
                        assert bundle_labels(pol, x, pi) == bundles[x]
                    sizes = [len(b) for b in bundles.values()]
                    assert max_bundle_size(pol, pi) == max(sizes)
                    assert total_secrets(pol, pi) == sum(sizes)
                    assert issued_secrets(pol, pi) == sum(
                        pol.count(x) * len(b) for x, b in bundles.items()
                    )

    def test_aggregates_on_larger_posets(self):
        # bundle sizes are counted in one pass over the covers; check them
        # where chains cross many down-sets
        rng = random.Random(167)
        for policy in random_policies(12, 40, seed=167, min_n=20):
            p = policy.poset
            for _ in range(3):
                pi = random_chain_partition(p, rng)
                sizes = [len(_leq_bundle(p, x, pi)) for x in p.elements]
                assert max_bundle_size(policy, pi) == max(sizes)
                assert total_secrets(policy, pi) == sum(sizes)
                assert issued_secrets(policy, pi) == sum(
                    policy.count(x) * n for x, n in zip(p.elements, sizes)
                )

    def test_secret_holders(self):
        for policy in random_policies(25, 7, seed=163, min_n=3):
            for pol in (policy, augment_with_maximum(policy)[0]):
                p = pol.poset
                for parent in p.elements:
                    for child in p.elements:
                        if p.lt(child, parent):
                            assert secret_holders(pol, parent, child) == tuple(
                                x for x in p.elements
                                if p.leq(child, x) and not p.leq(parent, x)
                            )


class TestAugmentation:
    def test_attach_preserves_metrics(self):
        rng = random.Random(149)
        for policy in random_policies(30, 8, seed=149, min_n=2):
            pi = random_chain_partition(policy.poset, rng)
            aug_policy, aug_pi = attach_to_maximum(policy, pi)
            assert issued_secrets(policy, pi) == issued_secrets(aug_policy, aug_pi)
            assert len(aug_pi.chains) == len(pi.chains)
