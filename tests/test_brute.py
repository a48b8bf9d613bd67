import pytest

from chainforge import ChainPartition, Policy, Poset
from chainforge.brute import brute_minimum, enumerate_chain_partitions
from chainforge.errors import TooLarge
from chainforge.policy import issued_secrets

from conftest import random_policies


def chain_poset(n):
    labs = [f"c{i}" for i in range(n)]
    return Poset(labs, [(labs[i], labs[i + 1]) for i in range(n - 1)])


def bell(n):
    # Bell numbers via the standard triangle; bell(1..5) = 1, 2, 5, 15, 52
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


class TestEnumeration:
    def test_two_chain(self):
        assert len(list(enumerate_chain_partitions(chain_poset(2)))) == 2

    def test_two_antichain(self):
        assert len(list(enumerate_chain_partitions(Poset(["x", "y"])))) == 1

    def test_three_chain_by_hand(self):
        # every subset of a total order is a chain, so {c0,c2 | c1} counts too
        parts = {pi.chains for pi in enumerate_chain_partitions(chain_poset(3))}
        assert parts == {
            (("c2", "c1", "c0"),),
            (("c1", "c0"), ("c2",)),
            (("c0",), ("c2", "c1")),
            (("c2", "c0"), ("c1",)),
            (("c0",), ("c1",), ("c2",)),
        }

    def test_total_order_counts_are_bell_numbers(self):
        for n in range(1, 7):
            count = sum(1 for _ in enumerate_chain_partitions(chain_poset(n)))
            assert count == bell(n)

    def test_antichain_has_single_partition(self):
        for n in (1, 3, 6):
            p = Poset([f"x{i}" for i in range(n)])
            parts = list(enumerate_chain_partitions(p))
            assert len(parts) == 1
            assert len(parts[0].chains) == n

    def test_demo_poset_count(self, demo_poset):
        assert sum(1 for _ in enumerate_chain_partitions(demo_poset)) == 1335

    def test_all_yields_valid_and_distinct(self):
        for policy in random_policies(20, 7, seed=307):
            p = policy.poset
            seen = set()
            for pi in enumerate_chain_partitions(p):
                assert p.is_chain_partition(pi.chains)
                key = frozenset(pi.chains)
                assert key not in seen
                seen.add(key)

    def test_same_sequence_as_recursive_placement(self):
        def recursive(p):
            order = list(reversed(p.linear_extension()))
            chains = []

            def place(i):
                if i == len(order):
                    yield tuple(sorted((tuple(c) for c in chains), key=lambda c: p.index[c[-1]]))
                    return
                for c in chains:
                    if p.lt(order[i], c[-1]):
                        c.append(order[i])
                        yield from place(i + 1)
                        c.pop()
                chains.append([order[i]])
                yield from place(i + 1)
                chains.pop()

            return list(place(0))

        posets = [policy.poset for policy in random_policies(30, 7, seed=313)]
        for p in posets + [chain_poset(6), Poset(["x", "y", "z"])]:
            assert [pi.chains for pi in enumerate_chain_partitions(p)] == recursive(p)

    def test_long_total_order_does_not_recurse(self):
        # one placement level per label: a recursive search exceeds the
        # interpreter's stack limit long before 1 500 labels
        first = next(enumerate_chain_partitions(chain_poset(1500), limit=2000))
        assert first.chains == (tuple(f"c{i}" for i in reversed(range(1500))),)

    def test_size_cap(self):
        big = Poset([f"x{i}" for i in range(10)])
        with pytest.raises(TooLarge):
            list(enumerate_chain_partitions(big))
        assert sum(1 for _ in enumerate_chain_partitions(big, limit=10)) == 1


class TestBruteMinimum:
    def test_demo_minimum(self, demo_unit):
        report = brute_minimum(demo_unit)
        assert report.min_khat == 13
        assert report.partitions_examined == 1335
        assert report.min_chain_count_at_min == 2
        assert issued_secrets(demo_unit, report.argmin) == 13

    def test_empty_poset(self):
        # its one partition, the empty one, is scanned like any other
        report = brute_minimum(Policy(Poset([])))
        assert report.min_khat == 0
        assert report.partitions_examined == 1
        assert report.min_chain_count_at_min == 0
        assert report.argmin == ChainPartition(())

    def test_zero_counts(self, demo_poset):
        report = brute_minimum(Policy(demo_poset))
        assert report.min_khat == 0

    def test_min_chain_count_never_below_width(self):
        for policy in random_policies(25, 6, seed=311):
            report = brute_minimum(policy)
            assert report.min_chain_count_at_min >= policy.poset.width()

    def test_cap_propagates(self):
        big = Policy.unit(Poset([f"x{i}" for i in range(10)]))
        with pytest.raises(TooLarge):
            brute_minimum(big)
