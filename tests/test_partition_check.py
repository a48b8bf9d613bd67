"""Differential tests of the one chain-partition check.

``Poset._chain_index`` decides for the metrics, ``setup``, ``derive``,
``Poset.is_chain_partition`` and ``ChainPartition.from_blocks`` whether
chains partition a poset, and returns each label's chain number. The
bundles, bundle sizes and ``derive`` read that number instead of walking
the chains again. The reference functions below are earlier, separate
implementations, kept verbatim (each calls the reference copies of the
others): the checks before they shared one method, ``derive``'s chain
search, and the chain-mask bundles and chain-walk bundle sizes from before
the check returned the chain numbers. Every generated input, valid or
faulty, must give the same result, exception class and message under both.
The budget tests count how often one operation runs the check.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter

import pytest

from chainforge import ChainPartition, Policy, Poset
from chainforge.ces import SchemeParams, derive, issue_bundle, seeded_entropy, setup
from chainforge.errors import InvalidPartition, NotAuthorized, ParseError
from chainforge.gen import random_policy
from chainforge.optimize import optimal_partition, verify_result
from chainforge.policy import bundle_labels, issued_secrets, max_bundle_size, total_secrets

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


@pytest.fixture
def checks(monkeypatch):
    """Counts the calls of ``Poset._chain_index`` under ``checks["n"]``."""
    calls = Counter()
    check = Poset._chain_index

    def counted(self, chains):
        calls["n"] += 1
        return check(self, chains)

    monkeypatch.setattr(Poset, "_chain_index", counted)
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
        assert checks["n"] <= 6

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
