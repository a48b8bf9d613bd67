"""The optimality certificate of chainforge.certify on the chain-parent
kernel's links and potentials: it accepts every kernel result and rejects
every costlier single-link change of one."""

import pytest

from chainforge import Policy, Poset, optimize
from chainforge.certify import certificate_violations
from chainforge.gen import random_policy
from chainforge.policy import augment_with_maximum

from conftest import random_policies
from oracle_sweep import sweep_policy
from kernel_work import ROWS
from test_optimize import bottom_first, fence, sparse_users, total_order, with_maximum_at

# the rows of tests/kernel_work.py whose kernel takes under 0.1 s
SMALL = ("random_policy(100, 0.2, 1)", "random_policy(200, 0.1, 1)", "fence(250, 3, False)",
         "total_order(1200, 1, False)")
SMALL_ROWS = [row for row in ROWS if row[0] in SMALL]


def kernel(policy):
    """The augmented policy and the kernel's links, w, cost and potentials."""
    work = augment_with_maximum(policy)[0]
    return (work,) + optimize._chain_parents(work, work.poset.width())


def certified(policy):
    work, links, w, _, potentials = kernel(policy)
    return certificate_violations(work, links, w, potentials) == []


def up_weight(policy, x):
    return sum(policy.count(z) for z in policy.poset.up_set(x))


def single_link_mutants(work, links, w):
    """Every feasible flow that moves one label y from its chain parent x to
    another label x' above it, with the cost it adds: W(x) - W(x')."""
    p = work.poset
    r = p.maximum()
    children = {x: [] for x in p.elements}
    for y, x in links.items():
        children[x].append(y)
    for y, x in links.items():
        if x == r and len(children[r]) == w - 1:
            continue  # r would keep w - 2 chain children
        for z in p.up_set(y):
            if z in (y, x):
                continue
            if z == r and len(children[r]) == w - 1 or z != r and not children[z]:
                yield {**links, y: z}, up_weight(work, x) - up_weight(work, z)


class TestCertificate:
    def test_small_policies(self):
        # tests/oracle_sweep.py certifies 2 200 more in CI
        for policy in random_policies(60, 30, seed=601):
            assert certified(policy)
            assert certified(sparse_users(policy, 7))
            assert certified(bottom_first(policy))

    def test_shapes(self):
        for policy in (
            fence(40, 1, False), fence(40, 2, True), bottom_first(fence(60, 3, False)),
            total_order(60, 4, False), total_order(60, 5, True),
            sparse_users(fence(60, 6, True), 6, share=0.3),
            with_maximum_at(random_policy(50, 0.1, seed=611), 25),
        ):
            assert certified(policy)

    @pytest.mark.parametrize("make", [row[1] for row in SMALL_ROWS], ids=[row[0] for row in SMALL_ROWS])
    def test_small_rows(self, make):
        # the goldens and the larger rows take too long for tier-1: they run
        # in tests/kernel_work.py
        assert certified(make())

    def test_costlier_single_link_mutants_are_rejected(self):
        costlier = 0
        for policy in map(sweep_policy, range(100)):
            work, links, w, _, potentials = kernel(policy)
            for mutant, added in single_link_mutants(work, links, w):
                if added > 0:
                    costlier += 1
                    assert certificate_violations(work, mutant, w, potentials)
        assert costlier > 400

    def test_costlier_potentials_are_rejected(self):
        # the link mutants above trip the link check first; these keep the
        # kernel's links and move one potential, so that an empty arc's
        # reduced cost turns negative
        work, links, w, _, (pin, pout, pbot) = kernel(fence(6, 1, False))
        p = work.poset
        r = p.maximum()
        # y's in-node raised: the empty arcs into it from z, above y but not
        # its chain parent, and from r, whose chain child y is not
        y, z = next(
            (y, z) for y, x in links.items() if x != r for z in p.up_set(y) if z not in (y, x, r)
        )
        bad = certificate_violations(work, links, w, ({**pin, y: pin[y] + 100}, pout, pbot))
        assert f"arc {z!r} -> {y!r}: a({y!r}) > b({z!r})" in bad
        assert f"arc {r!r} -> {y!r}: a > b({r!r})" in bad
        # y's chain parent's out-node lowered below the bottom node's, to
        # which it does not route
        x = links[y]
        bad = certificate_violations(work, links, w, (pin, {**pout, x: pbot - 1}, pbot))
        assert f"{x!r} does not route to the bottom node, below its potential" in bad

    def test_infeasible_links_are_rejected(self):
        work, links, w, _, potentials = kernel(fence(6, 1, False))
        r = work.poset.maximum()
        y = next(y for y, x in links.items() if x != r)
        # y loses its chain parent, then is hung below itself
        assert certificate_violations(work, {k: v for k, v in links.items() if k != y}, w, potentials)
        assert certificate_violations(work, {**links, y: y}, w, potentials)
        # a label other than r with two chain children
        x = links[y]
        z = next(z for z in work.poset.down_set(x) if z not in (x, y))
        assert certificate_violations(work, {**links, z: x}, w, potentials)
        # r with too many chain children
        assert certificate_violations(work, links, w + 2, potentials)

    def test_needs_a_maximum(self):
        policy = Policy.unit(Poset(["x", "y"]))
        assert certificate_violations(policy, {}, 2, ({}, {}, 0))
