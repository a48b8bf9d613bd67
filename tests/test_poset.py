import pytest

from chainforge import Policy, Poset
from chainforge.errors import (
    CycleDetected,
    DuplicateLabel,
    InvalidLabel,
    RedundantCover,
    UnknownLabel,
)
from chainforge.gen import random_chain_partition, random_policy
from chainforge.policy import augment_with_maximum

from conftest import DEMO_ELEMENTS, brute_max_antichain, random_policies


class TestConstruction:
    def test_demo_poset_builds(self, demo_poset):
        assert len(demo_poset) == 8
        assert len(demo_poset.covers) == 10

    def test_singleton(self):
        p = Poset(["x"])
        assert len(p) == 1
        assert p.maximum() == "x"

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleDetected) as exc:
            Poset(["a", "b"], [("a", "b"), ("b", "a")])
        assert exc.value.label in ("a", "b")

    def test_longer_cycle_rejected(self):
        with pytest.raises(CycleDetected):
            Poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])

    def test_long_cycle_reported_at_its_first_label(self):
        n = 30_000
        labels = [f"c{i}" for i in range(n)]
        covers = [(labels[i], labels[(i + 1) % n]) for i in range(n)]
        with pytest.raises(CycleDetected) as exc:
            Poset(labels, covers)
        assert exc.value.label == "c0"

    def test_self_cover_rejected(self):
        with pytest.raises(CycleDetected):
            Poset(["a"], [("a", "a")])

    def test_duplicate_label_rejected(self):
        with pytest.raises(DuplicateLabel):
            Poset(["a", "a"])

    def test_unknown_cover_endpoint_rejected(self):
        with pytest.raises(UnknownLabel):
            Poset(["a"], [("a", "z")])

    def test_redundant_cover_rejected(self):
        with pytest.raises(RedundantCover):
            Poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])

    def test_duplicate_cover_rejected(self):
        with pytest.raises(RedundantCover):
            Poset(["a", "b"], [("a", "b"), ("a", "b")])

    def test_bad_labels_rejected(self):
        with pytest.raises(InvalidLabel):
            Poset([""])
        with pytest.raises(InvalidLabel):
            Poset(["a b"])

    @pytest.mark.parametrize(
        "label", ["a>b", "a#b", "k=v", "users:", "covers:", "elements:", ">", "#", "="]
    )
    def test_unwritable_labels_rejected(self, label):
        with pytest.raises(InvalidLabel):
            Poset(["a", label])


class TestOrderQueries:
    def test_leq_along_a_path(self, demo_poset):
        assert demo_poset.leq("a", "h")

    def test_leq_reflexive(self, demo_poset):
        assert all(demo_poset.leq(x, x) for x in DEMO_ELEMENTS)

    def test_leq_incomparable(self, demo_poset):
        assert not demo_poset.leq("b", "e")
        assert not demo_poset.leq("e", "b")

    def test_unknown_label_raises(self, demo_poset):
        with pytest.raises(UnknownLabel):
            demo_poset.leq("a", "z")

    def test_up_set_values(self, demo_poset):
        assert demo_poset.up_set("f") == ("f", "h")
        assert demo_poset.up_set("a") == DEMO_ELEMENTS
        assert demo_poset.up_set("h") == ("h",)

    def test_up_set_sizes(self, demo_poset):
        sizes = {x: demo_poset.up_size(x) for x in DEMO_ELEMENTS}
        assert sizes == {"a": 8, "b": 5, "c": 6, "d": 4, "e": 3, "f": 2, "g": 2, "h": 1}

    def test_down_set_values(self, demo_poset):
        assert demo_poset.down_set("d") == ("a", "b", "c", "d")
        assert demo_poset.down_set("a") == ("a",)
        assert demo_poset.down_set("h") == DEMO_ELEMENTS

    def test_up_down_duality(self):
        for policy in random_policies(30, 8, seed=11):
            p = policy.poset
            for x in p.elements:
                assert x in p.up_set(x) and x in p.down_set(x)
                for y in p.elements:
                    assert (y in p.up_set(x)) == (x in p.down_set(y)) == p.leq(x, y)

    def test_up_sets_are_the_transposed_down_sets(self):
        def transposed(p):
            n = len(p)
            return [sum(1 << x for x in range(n) if p._down[x] >> y & 1) for y in range(n)]

        k = 30
        tops = [f"t{i}" for i in range(k)]
        bottoms = [f"b{i}" for i in range(k)]
        fence = [(bottoms[i], tops[i]) for i in range(k)]
        fence += [(bottoms[i], tops[i - 1]) for i in range(1, k)]
        chain = [(f"c{i}", f"c{i + 1}") for i in range(k - 1)]
        posets = [policy.poset for policy in random_policies(40, 30, seed=13)]
        posets += [random_policy(80, d, seed=17).poset for d in (0.05, 0.2)]
        posets += [Poset(tops + bottoms, fence), Poset(tops[::-1] + bottoms, fence)]
        posets += [Poset([f"c{i}" for i in range(k)], chain)]
        posets += [Poset([f"c{i}" for i in reversed(range(k))], chain)]
        for p in posets:
            assert p._up == transposed(p)


class TestWidth:
    def test_demo_width(self, demo_poset):
        assert demo_poset.width() == 2

    def test_chain_width_is_one(self):
        n = 6
        labs = [f"c{i}" for i in range(n)]
        p = Poset(labs, [(labs[i], labs[i + 1]) for i in range(n - 1)])
        assert p.width() == 1

    def test_antichain_width_is_n(self):
        for n in (1, 2, 5):
            p = Poset([f"c{i}" for i in range(n)])
            assert p.width() == n

    def test_width_matches_brute_antichain(self):
        for policy in random_policies(40, 8, seed=23):
            assert policy.poset.width() == brute_max_antichain(policy.poset)

    @pytest.mark.parametrize("reverse", [False, True], ids=["increasing", "reversed"])
    def test_deep_fence_width(self, reverse):
        # b_i < t_i and b_i < t_(i-1): every augmenting path is long, so a
        # recursive matching search exceeds the interpreter's stack limit
        k = 1500
        tops = [f"t{i}" for i in range(k)]
        bottoms = [f"b{i}" for i in range(k)]
        covers = [(bottoms[i], tops[i]) for i in range(k)]
        covers += [(bottoms[i], tops[i - 1]) for i in range(1, k)]
        order = tops[::-1] if reverse else tops
        assert Poset(order + bottoms, covers).width() == k

    def test_empty_poset_width_undefined(self):
        with pytest.raises(ValueError):
            Poset([]).width()


class TestEnsureMaximum:
    """The synthetic-top rule, through augment_with_maximum."""

    def test_demo_unchanged(self, demo_unit):
        pol, top, added = augment_with_maximum(demo_unit)
        assert pol is demo_unit
        assert top == "h" and not added

    def test_antichain_gains_top(self):
        pol, top, added = augment_with_maximum(Policy(Poset(["x", "y"])))
        p = pol.poset
        assert top == "r" and added
        assert len(p) == 3
        assert set(p.covers) == {("x", "r"), ("y", "r")}
        assert p.maximum() == "r"
        assert pol.count("r") == 0

    def test_singleton_unchanged(self):
        base = Policy(Poset(["x"]))
        pol, top, added = augment_with_maximum(base)
        assert pol is base and top == "x" and not added

    def test_label_collision_suffixed(self):
        _, top, _ = augment_with_maximum(Policy(Poset(["r", "s"])))
        assert top == "r1"

    def test_idempotent(self):
        for policy in random_policies(30, 8, seed=37):
            p1, top1, _ = augment_with_maximum(policy)
            p2, top2, added = augment_with_maximum(p1)
            assert p2 is p1 and top2 == top1 and not added

    def test_empty_poset_rejected(self):
        with pytest.raises(ValueError):
            augment_with_maximum(Policy(Poset([])))


class TestChainPredicates:
    def test_known_chain_partitions(self, demo_poset):
        assert demo_poset.is_chain_partition([["a", "c", "e", "g", "h"], ["b", "d", "f"]])
        assert demo_poset.is_chain_partition([["a", "b"], ["c", "e"], ["d", "g"], ["f", "h"]])

    def test_non_chain_block_rejected(self, demo_poset):
        # b and c are incomparable
        assert not demo_poset.is_chain_partition([["a"], ["b", "c"], ["d", "e", "f", "g", "h"]])

    def test_incomplete_cover_rejected(self, demo_poset):
        assert not demo_poset.is_chain_partition([["a", "b"], ["c", "e"]])

    def test_overlap_rejected(self, demo_poset):
        assert not demo_poset.is_chain_partition(
            [["a", "b"], ["b", "d"], ["c", "e"], ["f", "h"], ["g"]]
        )

    def test_unknown_label_raises(self, demo_poset):
        with pytest.raises(UnknownLabel):
            demo_poset.is_chain_partition([list(DEMO_ELEMENTS[:-1]), ["z"]])

    def test_repeated_label_rejected(self, demo_poset):
        assert not demo_poset.is_chain_partition([["a", "c", "e", "g", "h", "c"], ["b", "d", "f"]])

    def test_shuffled_total_order_is_one_chain(self):
        import random

        labels = [f"x{i}" for i in range(2000)]
        p = Poset(labels, list(zip(labels, labels[1:])))
        block = labels[:]
        random.Random(3).shuffle(block)
        assert p.is_chain_partition([block])

    def test_accepted_partitions_have_at_least_width_blocks(self):
        import random

        rng = random.Random(5)
        for policy in random_policies(30, 8, seed=41):
            pi = random_chain_partition(policy.poset, rng)
            assert policy.poset.is_chain_partition(pi.chains)
            assert len(pi.chains) >= policy.poset.width()


class TestHelpers:
    def test_descending_sorts_chain_top_first(self, demo_poset):
        assert demo_poset.descending(["a", "e", "c", "g"]) == ("g", "e", "c", "a")

    def test_linear_extension_respects_covers(self):
        for policy in random_policies(30, 8, seed=53):
            p = policy.poset
            pos = {x: i for i, x in enumerate(p.linear_extension())}
            assert all(pos[child] < pos[parent] for child, parent in p.covers)
