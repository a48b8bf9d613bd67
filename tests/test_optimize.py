import dataclasses
import hashlib
import heapq
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
from chainforge import flow, optimize
from chainforge.brute import brute_minimum
from chainforge.errors import MalformedFlow, NoMaximum, NotAFeasibleFlow
from chainforge.flow import (
    BOTTOM,
    build_flow_network,
    eliminate_lower_bounds,
    flow_cost,
    min_cost_flow,
    partition_from_flow,
    restore_lower_bounds,
    vin,
    vout,
)
from chainforge.formats import partition_text
from chainforge.gen import random_policy
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

    def test_optimize_keeps_the_oracle_names(self):
        # bench/spans.py wraps the flow oracle's stages under these names
        # in chainforge.optimize
        for name in (
            "build_flow_network", "eliminate_lower_bounds", "is_feasible",
            "min_cost_flow", "partition_from_flow", "restore_lower_bounds",
        ):
            assert getattr(optimize, name) is getattr(flow, name)


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

    @pytest.mark.parametrize("kmax", [1, 0])
    def test_rejects_kmax_below_the_largest_bundle(self, demo_unit, kmax):
        # the demo's largest bundle is 2, its width
        res = optimal_partition(demo_unit)
        assert res.kmax == 2
        assert not verify_result(demo_unit, dataclasses.replace(res, kmax=kmax))


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

    def test_huge_counts_on_a_total_order(self):
        # counts past float range: the kernel's bounds stay exact integers
        base = total_order(30, 5, False)
        counts = {x: 10**400 + i for i, x in enumerate(base.poset.elements)}
        self.assert_same(Policy(base.poset, counts))

    def test_huge_counts_on_a_fence(self):
        base = fence(12, 6, False)
        counts = {x: 10**400 * base.count(x) + i for i, x in enumerate(base.poset.elements)}
        self.assert_same(Policy(base.poset, counts))


def sparse_users(policy, seed, share=0.1):
    """The policy's poset with users on about the given share of labels."""
    rng = random.Random(seed)
    labels = policy.poset.elements
    return Policy(policy.poset, {x: rng.randint(1, 5) for x in labels if rng.random() < share})


def bottom_first(policy):
    """The same policy with its labels declared from the bottom up."""
    p = policy.poset
    labels = sorted(p.elements, key=lambda x: (len(p.down_set(x)), p.index[x]))
    return Policy(Poset(labels, p.covers), policy.user_count)


class TestSkipsAgainstFlowOracle:
    """The kernel skips an out-node whose every offer lies above the bound
    on the sink's distance. These shapes put that test on its edges: a
    floor exactly on the bound, floors that must come down when a unit is
    given back, and searches whose bound starts infinite."""

    assert_same = TestAgainstFlowOracle.assert_same

    def test_mostly_zero_users(self):
        # equal up-set weights put many offers exactly on the bound
        for i, policy in enumerate(random_policies(60, 24, seed=541)):
            self.assert_same(sparse_users(policy, i))
        for i in range(6):
            self.assert_same(sparse_users(random_policy(60, 0.1, seed=547 + i), i))
        self.assert_same(sparse_users(fence(60, 0, False), 1))
        self.assert_same(sparse_users(fence(60, 0, True), 2, share=0.3))

    def test_declared_bottom_first(self):
        # augmenting paths that give units back
        for i, policy in enumerate(random_policies(60, 24, seed=557)):
            self.assert_same(bottom_first(policy))
            self.assert_same(bottom_first(sparse_users(policy, i)))
        for i in range(6):
            self.assert_same(bottom_first(random_policy(60, (0.1, 0.2)[i % 2], seed=563 + i)))
        for tops, seed in ((5, 0), (40, 1), (90, 2)):
            self.assert_same(bottom_first(fence(tops, seed, False)))

    def test_total_orders_with_users(self):
        # the bottom node's one unit goes early, so later bounds start infinite
        for top_first in (False, True):
            for n, seed in ((3, 5), (12, 6), (90, 7), (150, 8)):
                self.assert_same(total_order(n, seed, top_first))
                self.assert_same(sparse_users(total_order(n, seed, top_first), seed, share=0.2))


class TestBottomStreamAgainstFlowOracle:
    """The settled bottom node's offers to the out-nodes routed to it are
    read one at a time, so ties must fall as if all were pushed at once."""

    assert_same = TestAgainstFlowOracle.assert_same

    def test_in_node_ties_the_bottom_node(self):
        # the maximum, routed to the bottom node, is offered the bottom
        # node's distance again by one of its own chain children
        self.assert_same(random_policy(30, 0.3, seed=208))


def declared_in_reverse(policy):
    p = policy.poset
    return Policy(Poset(p.elements[::-1], p.covers), policy.user_count)


def users_on(policy, labels):
    """The policy's poset with its user counts kept only on the given labels."""
    return Policy(policy.poset, {x: policy.count(x) for x in labels})


class TestRestingAgainstFlowOracle:
    """Under a zero sink bound the kernel reads from the source offers only
    the awake out-nodes, those whose floor is at most W(x). The resting
    ones are stood for by one heap entry: the lowest that may relax the
    bottom node. These shapes put that on its edges."""

    assert_same = TestAgainstFlowOracle.assert_same

    def test_routed_maximum(self):
        # the maximum is free and routed to the bottom node at once, so it
        # must not stand for the resting out-nodes
        self.assert_same(sparse_users(random_policy(19, 0.4, seed=54), 54))
        self.assert_same(declared_in_reverse(random_policy(77, 0.4, seed=129)))

    def test_zero_weight_covers(self):
        # a cover with no users between its ends keeps its parent awake, so
        # awake and resting out-nodes interleave in id order
        for i, policy in enumerate(random_policies(60, 24, seed=571)):
            self.assert_same(sparse_users(policy, i, share=(0.1, 0.3)[i % 2]))
            self.assert_same(declared_in_reverse(sparse_users(policy, i)))
        for tops, seed in ((6, 0), (40, 1), (90, 2)):
            f = fence(tops, seed, seed % 2 == 1)
            self.assert_same(users_on(f, f.poset.elements[: tops : 2]))
            self.assert_same(users_on(f, f.poset.elements[tops::3]))

    def test_give_backs_on_bottom_first_fences(self):
        for tops, seed in ((8, 0), (40, 1), (90, 2)):
            for share in (0.1, 0.3, 0.5):
                self.assert_same(bottom_first(sparse_users(fence(tops, seed, False), seed, share)))
                self.assert_same(bottom_first(sparse_users(fence(tops, seed, True), seed, share)))

    def test_give_back_wakes_a_resting_out_node(self):
        # the rare give-back that lowers a floor to W(x) under a zero bound
        for n, density, seed, users_seed, share in (
            (7, 0.3, 700222052, 1046, 0.1),
            (22, 0.8, 700221106, 100, 0.1),
            (26, 0.5, 700321966, 957, 0.3),
            (31, 0.8, 700122825, 1822, 0.1),
        ):
            self.assert_same(sparse_users(random_policy(n, density, seed), users_seed, share))

    def test_maximum_declared_first_mid_list_and_last(self):
        for i, policy in enumerate(random_policies(12, 18, seed=577, min_n=2)):
            n = len(policy.poset)
            for position in (0, n // 2, n):
                self.assert_same(with_maximum_at(sparse_users(policy, i, share=0.3), position))

    def test_huge_counts(self):
        # resting out-nodes beside awake ones, with counts past float range
        for base in (sparse_users(fence(30, 7, False), 7, share=0.3),
                     sparse_users(random_policy(40, 0.15, seed=583), 5)):
            counts = {x: 10**400 * c + i for i, (x, c) in enumerate(base.user_count.items()) if c}
            self.assert_same(Policy(base.poset, counts))


# partitions too large for the flow oracle, pinned by the sha256 of their
# text and their metrics
GOLDEN = [
    ("random_policy(400, 0.05, 1)", lambda: random_policy(400, 0.05, seed=1),
     "cb73a409573b4e86a5d6c050dd73e546a98781129cd750e71f26737fb7c0b6ee", 27590, 38, 27590),
    ("random_policy(400, 0.05, 2)", lambda: random_policy(400, 0.05, seed=2),
     "a59095a9f57ffc64055b8877f26cfa0f14f1bb8410d569065f292a7fa8a5e400", 25705, 36, 25705),
    ("random_policy(800, 0.05, 1)", lambda: random_policy(800, 0.05, seed=1),
     "cf149cfc82f61033b96ae0e8b7567a100083f06b83c110739eaa4bc7477294c8", 61373, 37, 61373),
    ("fence(500)", lambda: fence(500, 7, False),
     "f9ccfa0fd77a82d3f1dd5d6f9fe0a20e09c0b45701395300fa58500d3d02c479", 3661, 500, 3661),
    ("total_order(1200)", lambda: total_order(1200, 8, False),
     "2b2fcb423ffc657a843c68a7c9592c59f344c82d4ce938177974fd0a17a3f3db", 3055, 1, 3053),
    # give-backs that re-route units through the bottom node
    ("bottom_first(fence(400))", lambda: bottom_first(fence(400, 4, False)),
     "02b7ea28b77cd84ba32237d5970ee22882b188d9db11e85330be82704b666693", 2877, 400, 2877),
    # equal up-set weights: many offers on the tightened sink bound
    ("sparse_users(fence(400))", lambda: sparse_users(fence(400, 5, True), 3),
     "ae212663473fbd52ad14d1d8e20c8b43d2d8ebaeb2e37a7dc18cd3ad0ab5741c", 361, 400, 361),
]


class TestGoldenPartitions:
    @pytest.mark.parametrize(
        "make, digest, khat, width, cost", [g[1:] for g in GOLDEN], ids=[g[0] for g in GOLDEN]
    )
    def test_partition_pinned(self, make, digest, khat, width, cost):
        res = optimal_partition(make())
        text = partition_text(res.partition)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert (res.khat, res.width, res.flow_cost) == (khat, width, cost)


class TestKernelWork:
    """Heap pops and pushes of one kernel call on the benchmark's shapes:
    the counts repeat exactly, so a bound on them cannot flake."""

    def heap_work(self, monkeypatch, policy):
        pops = pushes = 0
        pop, push = heapq.heappop, heapq.heappush

        def counted_pop(heap):
            nonlocal pops
            pops += 1
            return pop(heap)

        def counted_push(heap, item):
            nonlocal pushes
            pushes += 1
            push(heap, item)

        work = augment_with_maximum(policy)[0]
        monkeypatch.setattr(heapq, "heappop", counted_pop)
        monkeypatch.setattr(heapq, "heappush", counted_push)
        _, w, _ = optimize._chain_parents(work)
        monkeypatch.undo()
        # every one of the n - 1 + w searches pops at least the sink
        assert pushes >= pops >= len(work.poset) - 1 + w
        return pops, pushes

    def heap_pops(self, monkeypatch, policy):
        return self.heap_work(monkeypatch, policy)[0]

    def test_fence_pops(self, monkeypatch):
        # 78 766 before out-nodes skipped their dead offers and the source
        # offers stopped passing through the heap
        assert self.heap_pops(monkeypatch, fence(250, 3, False)) <= 0.6 * 78766

    def test_total_order_pops(self, monkeypatch):
        # 9 477 before
        assert self.heap_pops(monkeypatch, total_order(200, 3, False)) <= 0.6 * 9477

    def test_fence_pushes(self, monkeypatch):
        # 204 788 while every offer under the bound was pushed before the
        # bound was tightened, and the settled bottom node pushed every
        # routed out-node it improved
        assert self.heap_work(monkeypatch, fence(250, 3, False))[1] <= 0.4 * 204788

    def test_total_order_pushes(self, monkeypatch):
        # 7 665 before
        assert self.heap_work(monkeypatch, total_order(200, 3, False))[1] <= 0.6 * 7665

    def test_one_idle_entry(self, monkeypatch):
        # 39 392 and 506 while a search under a zero bound could push a
        # free minimal label's out-node beside the lowest resting one, for
        # up to one pop more per search
        assert self.heap_pops(monkeypatch, fence(250, 3, False)) <= 39200
        assert self.heap_pops(monkeypatch, total_order(200, 3, False)) <= 480
