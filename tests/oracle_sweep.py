"""Compare optimal_partition with the flow oracle on seeded small policies.

Run from the repository root:

    PYTHONPATH=src:tests python tests/oracle_sweep.py

Each of the first 2 000 policies i has 1 to 40 labels and is one of five
variants, by i mod 5: plain, sparse users, declared bottom-first, declared
in a shuffled order, or with a new maximum declared mid-list. The 200
after them are total orders of 1 to 40 labels, which ``optimal_partition``
reads off their covers without the kernel, declared bottom-first,
top-first or shuffled, by i mod 3, with users on a tenth, three tenths or
all of their labels. ``optimal_partition`` also answers without the kernel
every policy whose poset, less its maximum if it has one, has only one
w-chain partition; some of the mid-list-maximum policies are among them.
The sweep prints how many policies it answers without the kernel, and
gates nothing on that count. It prints every policy whose partition text or
metrics, from ``optimal_partition`` or from the chain-parent kernel
itself, differ from the oracle's, or whose chain-parent links the
optimality certificate of ``chainforge.certify`` rejects, and exits 1 if
any does. It also folds every ``optimize._chain_parents`` result (links,
w, cost and potentials) into one sha256 and exits 1 unless that digest
equals ``DIGEST``: any change to the kernel's paths or potentials, even
one that keeps every partition optimal, moves it.
"""

from __future__ import annotations

import hashlib
import random
import sys

from chainforge import Policy, Poset, optimal_partition, optimize
from chainforge.certify import certificate_violations
from chainforge.formats import partition_text
from chainforge.gen import random_policy
from chainforge.policy import augment_with_maximum

from test_optimize import bottom_first, flow_oracle, sparse_users, with_maximum_at

COUNT = 2000
VARIANTS = ("plain", "sparse", "bottom-first", "shuffled", "mid-list maximum")
CHAINS = 200
CHAIN_VARIANTS = ("chain, bottom-first", "chain, top-first", "chain, shuffled")
# sha256 over the kernel results of all COUNT + CHAINS policies, in order
DIGEST = "7bdcbded6be74f8b18e6b6d313a3e5a81637c19e2750c884fe1dc5f7d9fbca3c"


def fold(digest, result) -> None:
    """Fold one ``optimize._chain_parents`` result into a sha256."""
    links, w, cost, (pin, pout, pbot) = result
    parts = sorted(links.items()), w, cost, sorted(pin.items()), sorted(pout.items()), pbot
    digest.update(repr(parts).encode())


def shuffled(policy: Policy, rng: random.Random) -> Policy:
    """The same policy with its labels declared in a random order."""
    labels = list(policy.poset.elements)
    rng.shuffle(labels)
    return Policy(Poset(labels, policy.poset.covers), policy.user_count)


def chain_policy(i: int) -> Policy:
    """A total order of 1 to 40 labels with sparse users."""
    rng = random.Random(i)
    n = rng.randint(1, 40)
    labels = [f"c{k}" for k in range(n)]
    covers = [(labels[k], labels[k + 1]) for k in range(n - 1)]
    variant = i % len(CHAIN_VARIANTS)
    if variant == 1:
        labels.reverse()
    elif variant == 2:
        rng.shuffle(labels)
    share = rng.choice((0.1, 0.3, 1.0))
    return Policy(Poset(labels, covers), {x: rng.randint(1, 5) for x in labels if rng.random() < share})


def sweep_policy(i: int) -> Policy:
    if i >= COUNT:
        return chain_policy(i)
    rng = random.Random(i)
    n = rng.randint(1, 40)
    policy = random_policy(n, rng.choice((0.05, 0.1, 0.2, 0.3, 0.5, 0.8)), seed=i)
    variant = i % len(VARIANTS)
    if variant == 1:
        return sparse_users(policy, i, share=rng.choice((0.1, 0.3)))
    if variant == 2:
        return bottom_first(policy)
    if variant == 3:
        return shuffled(sparse_users(policy, i, share=0.3), rng)
    if variant == 4:
        return with_maximum_at(sparse_users(policy, i, share=0.3), n // 2)
    return policy


def variant_name(i: int) -> str:
    if i >= COUNT:
        return CHAIN_VARIANTS[i % len(CHAIN_VARIANTS)]
    return VARIANTS[i % len(VARIANTS)]


def main() -> int:
    bad = forced = 0
    digest = hashlib.sha256()
    for i in range(COUNT + CHAINS):
        policy = sweep_policy(i)
        work, top, added = augment_with_maximum(policy)
        result = links, w, cost, potentials = optimize._chain_parents(work, work.poset.width())
        fold(digest, result)
        forced += optimize._only_partition(policy, work, top)[1] is not None
        # the kernel's own answer too, as optimal_partition skips it on a
        # policy with only one w-chain partition
        want = flow_oracle(policy)
        same = all(
            partition_text(got.partition) == partition_text(want.partition)
            and (got.khat, got.width, got.kmax, got.flow_cost)
            == (want.khat, want.width, want.kmax, want.flow_cost)
            for got in (optimal_partition(policy), optimize._result(policy, work, top, added, links, w, cost))
        )
        certified = not certificate_violations(work, links, w, potentials)
        if not same or not certified:
            bad += 1
            print(
                f"policy {i} ({variant_name(i)}, {len(policy.poset)} labels)"
                f" {'differs' if not same else 'is not certified'}"
            )
    print(f"{COUNT + CHAINS} policies, {bad} differing from the flow oracle or not certified")
    print(f"{forced} of {COUNT + CHAINS} answered by optimal_partition without the kernel")
    same = digest.hexdigest() == DIGEST
    print(f"kernel results sha256 {digest.hexdigest()}{'' if same else f'  FAILED: recorded {DIGEST}'}")
    return 1 if bad or not same else 0


if __name__ == "__main__":
    sys.exit(main())
