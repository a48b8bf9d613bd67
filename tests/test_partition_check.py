"""Differential tests of the one chain-partition check.

``Poset._chain_index`` decides for the metrics, ``setup``, ``derive``,
``Poset.is_chain_partition`` and ``ChainPartition.from_blocks`` whether
chains partition a poset, and returns each label's chain number. The
bundles, bundle sizes and ``derive`` read that number instead of walking
the chains again. The reference functions below are earlier, separate
implementations, kept verbatim (each calls the reference copies of the
others): the checks before they shared one method, ``derive``'s chain
search, and the chain-mask bundles and chain-walk bundle sizes from before
the check returned the chain numbers, and the metrics, the two recomputed
``khat`` formulas and ``attach_to_maximum`` from before a partition was
bound to the poset it was checked against (the last one given the check
that ``attach_to_maximum`` now runs before it lifts). Every generated
input, valid or faulty, must give the same result, exception class and
message under both, and so must every order of metric calls on one
partition, on one poset or two. The budget tests count how often one
operation runs the check and computes the bundle sizes.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter

import pytest

from chainforge import ChainPartition, Policy, Poset
from chainforge import policy as policy_mod
from chainforge.ces import SchemeParams, derive, issue_bundle, seeded_entropy, setup
from chainforge.errors import InvalidPartition, NoMaximum, NotAuthorized, ParseError
from chainforge.formats import parse_partition, partition_text
from chainforge.gen import random_policy
from chainforge.optimize import optimal_partition, verify_result
from chainforge.policy import (
    DerivationTree,
    attach_to_maximum,
    augment_with_maximum,
    bundle_labels,
    derivation_tree,
    issued_secrets,
    issued_secrets_via_bottoms,
    issued_secrets_via_tree,
    max_bundle_size,
    total_secrets,
)

from conftest import random_chain_partition

DENSITIES = (0.0, 0.15, 0.3, 0.5, 0.8, 1.0)
UNKNOWN = ("zz", "x99", "q")


# -- references: the checks as they were before they shared one method -----


def ref_is_chain_partition(self, blocks):
    chains = [self.descending(b) for b in blocks]
    seen = 0
    for chain in chains:
        below = -1  # every bit: any label may top a chain
        for lab in chain:
            i = self.index[lab]
            bit = 1 << i
            if not below & bit or seen & bit:
                return False
            seen |= bit
            below = self._down[i] ^ bit
    return seen == (1 << len(self.elements)) - 1


def ref_require_partition(policy, pi):
    p = policy.poset
    for chain in pi.chains:
        if not chain:
            raise InvalidPartition("empty chain")
        for hi, lo in zip(chain, chain[1:]):
            if not p.lt(lo, hi):
                raise InvalidPartition(f"chain not in descending order at {hi!r} > {lo!r}")
    if not ref_is_chain_partition(p, pi.chains):
        raise InvalidPartition("chains are not disjoint or do not cover the poset")


def ref_from_blocks(cls, poset, blocks):
    blocks = [tuple(b) for b in blocks]
    if any(not b for b in blocks):
        raise InvalidPartition("empty chain")
    if not ref_is_chain_partition(poset, blocks):
        raise InvalidPartition("blocks are not disjoint chains covering the poset")
    return cls(tuple(poset.descending(b) for b in blocks))


def ref_derive(policy, pi, bundle, y, params=SchemeParams()):
    p = policy.poset
    p._i(y)
    p._i(bundle.label)
    for z, secret in bundle.secrets.items():
        p._i(z)
        if len(secret) != params.secret_size:
            raise ParseError(f"bundle secret for {z!r} is {len(secret)} bytes, "
                             f"expected {params.secret_size} bytes")
    if not p.leq(y, bundle.label):
        raise NotAuthorized(f"{y!r} is not at or below {bundle.label!r}")
    ref_require_partition(policy, pi)

    chain = next(c for c in pi.chains if y in c)
    start = None
    for i, z in enumerate(chain):
        if z in bundle.secrets and p.leq(y, z):
            start = i
            break
    if start is None:
        raise NotAuthorized(f"bundle for {bundle.label!r} holds no secret covering {y!r}")

    secret = bundle.secrets[chain[start]]
    for _ in range(chain.index(y) - start):
        secret = params.apply_f(secret)
    return params.apply_h(secret)


def ref_chain_index(policy, pi):
    ref_require_partition(policy, pi)
    chain_of = {lab: c for c, chain in enumerate(pi.chains) for lab in chain}
    return [chain_of[x] for x in policy.poset.elements]


# -- references: bundles from chain masks, sizes from a chain walk ----------


def ref_chain_masks(p, pi):
    """One label bitmask per chain, in chain order."""
    index = p.index
    return [sum(1 << index[z] for z in chain) for chain in pi.chains]


def ref_bundle_sizes(p, pi):
    index = p.index
    meets = [0] * len(p)
    for c, chain in enumerate(pi.chains):
        for z in chain:
            meets[index[z]] = 1 << c
    children = [[] for _ in meets]
    for lo, hi in p.covers:
        children[index[hi]].append(index[lo])
    for x in p.linear_extension():
        i = index[x]
        for c in children[i]:
            meets[i] |= meets[c]
    return [m.bit_count() for m in meets]


def ref_bundle_labels(policy, x, pi):
    ref_require_partition(policy, pi)
    p = policy.poset
    down = p._down[p._i(x)]
    out = []
    for chain, mask in zip(pi.chains, ref_chain_masks(p, pi)):
        below = mask & down
        if below:
            # the chain's suffix below x starts at its first such label
            out.append(chain[-below.bit_count()])
    return p.ordered(out)


def ref_max_bundle_size(policy, pi):
    ref_require_partition(policy, pi)
    # default=0 since an empty poset's largest bundle is defined as 0
    return max(ref_bundle_sizes(policy.poset, pi), default=0)


def ref_total_secrets(policy, pi):
    ref_require_partition(policy, pi)
    return sum(ref_bundle_sizes(policy.poset, pi))


def ref_issued_secrets(policy, pi):
    ref_require_partition(policy, pi)
    p = policy.poset
    return sum(policy.count(x) * size for x, size in zip(p.elements, ref_bundle_sizes(p, pi)))


# -- references: the recomputed formulas before partitions were bound -------


def ref_users_in(policy):
    """The number of users at the labels of one mask, summed per user count:
    one mask operation per distinct count."""
    by_count = {}
    for i, c in enumerate(map(policy.user_count.__getitem__, policy.poset.elements)):
        if c:
            by_count[c] = by_count.get(c, 0) | 1 << i
    groups = by_count.items()
    return lambda mask: sum(c * (mask & m).bit_count() for c, m in groups)


def ref_derivation_tree(policy, pi):
    root = policy.poset.maximum()
    if root is None:
        raise NoMaximum("derivation tree requires a unique maximum element")
    ref_require_partition(policy, pi)
    parent = {}
    for chain in pi.chains:
        for hi, lo in zip(chain, chain[1:]):
            parent[lo] = hi
    for top in pi.tops:
        if top != root:
            parent[top] = root
    return DerivationTree(root=root, parent=parent)


def ref_issued_secrets_via_tree(policy, pi):
    tree = ref_derivation_tree(policy, pi)
    p, users_in = policy.poset, ref_users_in(policy)
    up, index = p._up, p.index
    total = len(pi.chains) * policy.count(tree.root)
    for child, parent in tree.parent.items():
        total += users_in(up[index[child]] & ~up[index[parent]])
    return total


def ref_issued_secrets_via_bottoms(policy, pi):
    p, users_in = policy.poset, ref_users_in(policy)
    ref_require_partition(policy, pi)
    return sum(users_in(p._up[p.index[b]]) for b in pi.bottoms)


def ref_attach_to_maximum(policy, pi):
    policy2, top, added = augment_with_maximum(policy)
    if not added:
        return policy2, pi
    ref_require_partition(policy, pi)
    p = policy.poset
    host = max(range(len(pi.chains)), key=lambda i: p.index[pi.chains[i][0]])
    chains = tuple(
        (top,) + c if i == host else c for i, c in enumerate(pi.chains)
    )
    return policy2, ChainPartition(chains)


# -- generated inputs -------------------------------------------------------


def _pick(rng, chains, min_len=1):
    """Index of a random chain with at least min_len labels, or None."""
    fits = [k for k, c in enumerate(chains) if len(c) >= min_len]
    return rng.choice(fits) if fits else None


def _swap_neighbours(rng, chains):
    k = _pick(rng, chains, 2)
    if k is not None:
        c = chains[k]
        j = rng.randrange(len(c) - 1)
        c[j], c[j + 1] = c[j + 1], c[j]


def _reverse_chain(rng, chains):
    k = _pick(rng, chains, 2)
    if k is not None:
        chains[k].reverse()


def _swap_across(rng, chains):
    a, b = _pick(rng, chains), _pick(rng, chains)
    if a is not None and a != b:
        i, j = rng.randrange(len(chains[a])), rng.randrange(len(chains[b]))
        chains[a][i], chains[b][j] = chains[b][j], chains[a][i]


def _empty_chain(rng, chains):
    chains.insert(rng.randint(0, len(chains)), [])


def _repeat_in_chain(rng, chains):
    k = _pick(rng, chains)
    if k is not None:
        c = chains[k]
        j = rng.randrange(len(c))
        c.insert(rng.choice((j, j + 1, rng.randint(0, len(c)))), c[j])


def _repeat_across(rng, chains):
    a, b = _pick(rng, chains), rng.randrange(len(chains) + 1)
    if a is not None:
        lab = rng.choice(chains[a])
        if b == len(chains):
            chains.append([lab])
        else:
            chains[b].insert(rng.randint(0, len(chains[b])), lab)


def _drop_label(rng, chains):
    k = _pick(rng, chains)
    if k is not None:
        chains[k].pop(rng.randrange(len(chains[k])))


def _unknown_alone(rng, chains):
    chains.insert(rng.randint(0, len(chains)), [rng.choice(UNKNOWN)])


def _unknown_inside(rng, chains):
    k = _pick(rng, chains)
    if k is not None:
        c = chains[k]
        lab = rng.choice(UNKNOWN)
        at = rng.randint(0, len(c))
        c[at:at] = [lab, lab] if rng.random() < 0.2 else [lab]


def _shuffle_chains(rng, chains):
    rng.shuffle(chains)


def _shuffle_within(rng, chains):
    k = _pick(rng, chains, 2)
    if k is not None:
        rng.shuffle(chains[k])


FAULTS = (
    _swap_neighbours, _reverse_chain, _swap_across, _empty_chain, _repeat_in_chain,
    _repeat_across, _drop_label, _unknown_alone, _unknown_inside, _shuffle_chains,
    _shuffle_within,
)


def generated_cases(count: int, seed: int):
    """(poset, chains) pairs: seeded random partitions of random policies,
    about one in five left valid and the rest with one to four faults."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(1, 12)
        poset = random_policy(n, DENSITIES[i % len(DENSITIES)], seed=seed * 7919 + i).poset
        chains = [list(c) for c in random_chain_partition(poset, rng).chains]
        if rng.random() >= 0.2:
            for fault in rng.sample(FAULTS, rng.randint(1, 4)):
                fault(rng, chains)
        yield poset, [tuple(c) for c in chains]


def outcome(fn, *args):
    """The result of a call, or the class and message of what it raised."""
    try:
        return ("ok", fn(*args))
    except Exception as e:
        return (type(e).__name__, str(e))


def verdict(got):
    """An outcome without the labels it names."""
    kind, value = got
    if kind == "InvalidPartition":
        return value.split(" at ")[0]
    return value if isinstance(value, bool) else kind


def compare(poset, chains):
    """Assert that each check and metric gives its reference's outcome on
    the chains, and yield (name, verdict) pairs. The bundle of every label
    and of one unknown label is compared."""
    policy = Policy(poset, {x: k % 3 for k, x in enumerate(poset.elements)})
    pi = ChainPartition(tuple(chains))
    rows = [
        ("require", poset._chain_index, (chains,), ref_chain_index, (policy, pi)),
        ("is_chain_partition", poset.is_chain_partition, (chains,),
         ref_is_chain_partition, (poset, chains)),
        ("from_blocks", ChainPartition.from_blocks, (poset, chains),
         ref_from_blocks, (ChainPartition, poset, chains)),
        ("max_bundle_size", max_bundle_size, (policy, pi), ref_max_bundle_size, (policy, pi)),
        ("total_secrets", total_secrets, (policy, pi), ref_total_secrets, (policy, pi)),
        ("issued_secrets", issued_secrets, (policy, pi), ref_issued_secrets, (policy, pi)),
    ]
    for x in poset.elements + UNKNOWN[:1]:
        rows.append(("bundle_labels", bundle_labels, (policy, x, pi),
                     ref_bundle_labels, (policy, x, pi)))
    for name, fn, args, ref, ref_args in rows:
        got = outcome(fn, *args)
        assert got == outcome(ref, *ref_args), (name, chains)
        yield name, verdict(got)


def lifted(attach, tree, size, total):
    """A metric of the partition that ``attach`` lifts onto the policy with
    a maximum: the tree formula, read twice, the largest bundle and the
    bundle total."""
    def metric(policy, pi):
        aug_policy, aug_pi = attach(policy, pi)
        return (tree(aug_policy, aug_pi), tree(aug_policy, aug_pi),
                size(aug_policy, aug_pi), total(aug_policy, aug_pi))
    return metric


# (name, metric, reference): every metric that reads a partition's binding
METRICS = (
    ("max_bundle_size", max_bundle_size, ref_max_bundle_size),
    ("total_secrets", total_secrets, ref_total_secrets),
    ("issued_secrets", issued_secrets, ref_issued_secrets),
    ("issued_secrets_via_bottoms", issued_secrets_via_bottoms, ref_issued_secrets_via_bottoms),
    ("derivation_tree", derivation_tree, ref_derivation_tree),
    ("attach_to_maximum", lambda policy, pi: attach_to_maximum(policy, pi)[1].chains,
     lambda policy, pi: ref_attach_to_maximum(policy, pi)[1].chains),
    ("lifted", lifted(attach_to_maximum, issued_secrets_via_tree, max_bundle_size, total_secrets),
     lifted(ref_attach_to_maximum, ref_issued_secrets_via_tree, ref_max_bundle_size,
            ref_total_secrets)),
    ("bundle_labels", lambda policy, pi: bundle_labels(policy, policy.poset.elements[-1], pi),
     lambda policy, pi: ref_bundle_labels(policy, policy.poset.elements[-1], pi)),
)


def metric_calls(policy, pi, rng):
    """Call every metric twice on one partition, in a random order, assert
    that each gives its reference's outcome, and yield (name, verdict)
    pairs."""
    calls = list(METRICS) * 2
    rng.shuffle(calls)
    for name, fn, ref in calls:
        got = outcome(fn, policy, pi)
        assert got == outcome(ref, policy, pi), (name, pi.chains)
        yield name, verdict(got)


def counted_policy(poset, rng):
    """User counts from 0 to 3, or 400-digit ones on about a third of the
    posets."""
    big = 10 ** 399 if rng.random() < 0.3 else 1
    return Policy(poset, {x: rng.randint(0, 3) * big for x in poset.elements})


class TestAgainstReferences:
    def test_generated_partitions(self):
        verdicts = Counter()
        for poset, chains in generated_cases(3000, seed=1301):
            verdicts.update(compare(poset, chains))
        # every verdict of every check is reached often enough to compare
        disjoint = "chains are not disjoint or do not cover the poset"
        assert set(verdicts) == {
            (name, result)
            for name in ("require", "bundle_labels", "max_bundle_size", "total_secrets",
                         "issued_secrets")
            for result in ("ok", "UnknownLabel", "empty chain",
                           "chain not in descending order", disjoint)
        } | {
            ("is_chain_partition", True), ("is_chain_partition", False),
            ("is_chain_partition", "UnknownLabel"),
            ("from_blocks", "ok"), ("from_blocks", "UnknownLabel"),
            ("from_blocks", "empty chain"),
            ("from_blocks", "blocks are not disjoint chains covering the poset"),
        }
        assert min(verdicts.values()) >= 50, verdicts

    def test_unknown_label_repeated_before_any_lookup(self):
        # lt compares the two labels before looking either up
        p = Poset(["a", "b"], [("a", "b")])
        chains = [("zz", "zz"), ("b", "a")]
        assert ("require", "chain not in descending order") in set(compare(p, chains))
        with pytest.raises(InvalidPartition, match="^chain not in descending order at 'zz' > 'zz'$"):
            p._chain_index(chains)

    def test_empty_poset(self):
        p = Poset([])
        assert dict(compare(p, [])) == {
            "require": "ok", "is_chain_partition": True, "from_blocks": "ok",
            "bundle_labels": "UnknownLabel", "max_bundle_size": "ok",
            "total_secrets": "ok", "issued_secrets": "ok",
        }
        assert dict(compare(p, [()]))["require"] == "empty chain"
        assert dict(compare(p, [("zz",)]))["require"] == "UnknownLabel"

    def test_derive_on_partial_and_mixed_bundles(self):
        # bundles cut down to random subsets of their secrets, or padded
        # with secrets from other bundles, so that a chain may hold several
        # bundle labels above the target, or none
        rng = random.Random(1307)
        params = SchemeParams()
        compared = Counter()
        for i in range(60):
            policy = random_policy(rng.randint(1, 12), DENSITIES[i % len(DENSITIES)], seed=1307 + i)
            p = policy.poset
            pi = random_chain_partition(p, rng)
            material = setup(policy, pi, params, seeded_entropy(bytes([i])))
            for x in p.elements:
                bundle = issue_bundle(material, policy, x)
                other = issue_bundle(material, policy, rng.choice(p.elements))
                pool = {**other.secrets, **bundle.secrets}
                picked = rng.sample(sorted(pool), rng.randint(0, len(pool)))
                for secrets in (bundle.secrets, {z: pool[z] for z in picked}):
                    crafted = dataclasses.replace(bundle, secrets=secrets)
                    for y in p.elements:
                        got = outcome(derive, policy, pi, crafted, y, params)
                        assert got == outcome(ref_derive, policy, pi, crafted, y, params)
                        compared[got[0]] += 1
        assert compared["ok"] >= 500 and compared["NotAuthorized"] >= 500, compared


class TestBinding:
    """A partition is bound to the poset it was checked against. Calls in
    any order, on one poset or two, and after the caller's chain lists
    change must give what the references give without a binding."""

    def test_metric_orders(self):
        rng = random.Random(1319)
        verdicts = Counter()
        for poset, chains in generated_cases(700, seed=1319):
            pi = ChainPartition(tuple(chains))
            verdicts.update(metric_calls(counted_policy(poset, rng), pi, rng))
        disjoint = "chains are not disjoint or do not cover the poset"
        for name in ("max_bundle_size", "total_secrets", "issued_secrets",
                     "issued_secrets_via_bottoms", "lifted", "bundle_labels"):
            for result in ("ok", "UnknownLabel", "empty chain",
                           "chain not in descending order", disjoint):
                assert verdicts[name, result] >= 20, (name, result, verdicts)
        assert verdicts["derivation_tree", "NoMaximum"] >= 100, verdicts
        assert verdicts["derivation_tree", "ok"] >= 20, verdicts
        assert verdicts["attach_to_maximum", "ok"] >= 500, verdicts

    def test_checked_on_one_poset_then_queried_on_another(self):
        # two posets on the same labels x0, x1, ...: a partition of the
        # first may fail on the second, or pass with other bundle sizes
        rng = random.Random(1321)
        on_second = Counter()
        for i in range(400):
            n = rng.randint(2, 10)
            first = random_policy(n, DENSITIES[i % len(DENSITIES)], seed=1321 + i).poset
            second = random_policy(n, rng.choice(DENSITIES), seed=9001 + i).poset
            pi = random_chain_partition(first, rng)
            for poset in (first, second, first, second):
                verdicts = dict(metric_calls(counted_policy(poset, rng), pi, rng))
                if poset is second:
                    on_second[verdicts["total_secrets"]] += 1
        assert on_second["ok"] >= 100 and on_second["chain not in descending order"] >= 100, on_second

    def test_same_labels_other_order(self):
        line = Poset(["a", "b", "c"], [("b", "a"), ("c", "b")])
        vee = Poset(["a", "b", "c"], [("c", "a"), ("c", "b")])
        pi = ChainPartition((("a", "c"), ("b",)))  # a partition of both
        assert total_secrets(Policy(line), pi) == 5
        assert total_secrets(Policy(vee), pi) == 4
        assert total_secrets(Policy(line), pi) == 5
        spine = ChainPartition((("a", "b", "c"),))  # a chain of line only
        assert max_bundle_size(Policy(line), spine) == 1
        with pytest.raises(InvalidPartition, match="^chain not in descending order at 'a' > 'b'$"):
            max_bundle_size(Policy(vee), spine)

    def test_partition_built_from_lists_is_its_tuple_twin(self):
        # a partition over a list of chains, or a tuple of list chains, is
        # stored as tuples, is bound by its first check, and keeps its
        # chains when the lists change in place after it
        rng = random.Random(1327)
        changed = 0
        for i in range(300):
            policy = random_policy(rng.randint(1, 10), DENSITIES[i % len(DENSITIES)], seed=1327 + i)
            twin = random_chain_partition(policy.poset, rng)
            chains = [list(c) for c in twin.chains]
            pi = ChainPartition(chains if i % 2 else tuple(chains))
            assert (pi, hash(pi), repr(pi)) == (twin, hash(twin), repr(twin))
            assert pi._binding is None
            issued_secrets(policy, pi)
            assert pi._binding.poset is policy.poset
            assert pi._binding.chain_index == policy.poset._chain_index(twin.chains)
            for fault in rng.sample(FAULTS, rng.randint(1, 4)):
                fault(rng, chains)
            changed += [tuple(c) for c in chains] != list(twin.chains)
            assert pi.chains == twin.chains
            assert dict(metric_calls(policy, pi, rng)) == dict(metric_calls(policy, twin, rng))
        assert changed >= 200, changed

    def test_lifted_partition_is_bound_as_a_check_would_bind_it(self):
        rng = random.Random(1361)
        for i in range(60):
            policy = random_policy(rng.randint(2, 12), 0.2, seed=1361 + i)
            if policy.poset.maximum() is not None:
                continue
            pi = random_chain_partition(policy.poset, rng)
            fresh = ChainPartition(pi.chains)
            issued_secrets(policy, pi)
            # bound or not, a partition compares, hashes and prints as before
            assert (pi, hash(pi), repr(pi)) == (fresh, hash(fresh), repr(fresh))
            aug_policy, aug_pi = attach_to_maximum(policy, pi)
            binding = aug_pi._binding
            assert binding.poset is aug_policy.poset
            assert binding.chain_index == aug_policy.poset._chain_index(aug_pi.chains)
            # an unbound partition is checked before it is lifted, and its
            # lift is bound all the same
            aug_policy, aug_fresh = attach_to_maximum(policy, fresh)
            assert fresh._binding.poset is policy.poset
            binding = aug_fresh._binding
            assert binding.poset is aug_policy.poset
            assert binding.chain_index == aug_policy.poset._chain_index(aug_fresh.chains)

    @pytest.mark.parametrize("policy", [
        random_policy(30, 0.2, seed=1367),
        random_policy(1, 0.0, seed=1367),
        Policy(Poset(["t0", "t1", "b0"], [("b0", "t0"), ("b0", "t1")]), {"t1": 2, "b0": 1}),
        Policy.unit(Poset(["hi", "lo"], [("lo", "hi")])),
    ])
    def test_verify_result_rejects_a_tampered_result(self, policy):
        result = optimal_partition(policy)
        assert verify_result(policy, result)
        assert verify_result(policy, dataclasses.replace(
            result, partition=ChainPartition(result.partition.chains)))
        for name in ("khat", "kmax", "width", "flow_cost"):
            for delta in (-1, 1):
                tampered = dataclasses.replace(result, **{name: getattr(result, name) + delta})
                assert not verify_result(policy, tampered), (name, delta)


@pytest.fixture
def checks(monkeypatch):
    """Counts the calls of ``Poset._chain_index`` under ``checks["n"]``,
    and of ``policy._bundle_sizes`` under ``checks["sizes"]``."""
    calls = Counter()
    check, sizes = Poset._chain_index, policy_mod._bundle_sizes

    def counted(self, chains):
        calls["n"] += 1
        return check(self, chains)

    def counted_sizes(p, chain_index):
        calls["sizes"] += 1
        return sizes(p, chain_index)

    monkeypatch.setattr(Poset, "_chain_index", counted)
    monkeypatch.setattr(policy_mod, "_bundle_sizes", counted_sizes)
    return calls


class TestCheckBudget:
    @pytest.mark.parametrize("policy, has_maximum", [
        (Policy.unit(Poset(["lo", "mid", "hi"], [("lo", "mid"), ("mid", "hi")])), True),
        (random_policy(40, 0.15, seed=1311), False),  # gets a synthetic top
        # total orders, which take their one partition from the covers
        (Policy.unit(Poset([f"c{i}" for i in range(200)][::-1],
                           [(f"c{i}", f"c{i + 1}") for i in range(199)])), True),
        (Policy(Poset(["solo"]), {"solo": 3}), True),
    ])
    def test_partition_op(self, checks, policy, has_maximum):
        assert (policy.poset.maximum() is not None) == has_maximum
        result = optimal_partition(policy)
        assert verify_result(policy, result)
        total_secrets(policy, result.partition)
        assert (checks["n"], checks["sizes"]) == (1, 1)

    def test_evaluate(self, checks):
        # the metrics of ``chainforge evaluate`` on a parsed partition: the
        # parse's check binds it, and the lift is bound from that binding
        for policy in (random_policy(40, 0.15, seed=1311),
                       Policy.unit(Poset(["lo", "hi"], [("lo", "hi")]))):
            text = partition_text(optimal_partition(policy).partition)
            checks.clear()
            pi = parse_partition(text, policy.poset)
            issued_secrets(policy, pi)
            issued_secrets_via_bottoms(policy, pi)
            issued_secrets_via_tree(*attach_to_maximum(policy, pi))
            max_bundle_size(policy, pi)
            total_secrets(policy, pi)
            assert (checks["n"], checks["sizes"]) == (1, 1)

    def test_issue_bundle_and_derive(self, checks):
        policy = random_policy(40, 0.15, seed=1311)
        p = policy.poset
        pi = random_chain_partition(p, random.Random(1311))
        material = setup(policy, pi, SchemeParams(), seeded_entropy(b"budget"))
        for x in p.elements:
            checks.clear()
            bundle = issue_bundle(material, policy, x)
            assert checks["n"] == 1
            for y in p.down_set(x):
                checks.clear()
                assert derive(policy, pi, bundle, y) == material.keys[y]
                assert checks["n"] == 1
