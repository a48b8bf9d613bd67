import hashlib
import random

import pytest

from chainforge.formats import policy_text
from chainforge.gen import random_policy


# sha256 of policy_text(random_policy(n, density, seed)), recorded before the
# covers were computed from the direct successors' reachability
PINNED = {
    (1, 0.5, 0): "6c57d1ac8f7c62888776c441a0779f328f81dbdebbebc97a2058cd14f2240a71",
    (7, 0.3, 1): "91e7285c186118122e5a65123cc726f5451c9feb1d4e13f8ab4b3cfcae62de88",
    (40, 0.2, 2): "1a4f8777aecc36ef8a7a2aebbcf73918a16cacda4a6254fcdb056a21a3b498d7",
    (120, 0.1, 3): "34678f432ad398cec186801eea90ee3c24f3e25dfa490332b5758a3442d35174",
    (200, 0.05, 4): "2321cd54ba77babad3446094a83781593361f2e3590709237f9d5e595a561cbd",
    (60, 1.0, 5): "9bcb9ccd82d99a59e10851ab6bba055886303a7dc153e97fe9e6fd366e121b11",
    (30, 0.0, 6): "8a746e320d0d9e45bf3ca577d1d7ec0c646213665299df7d80dac0f16f9511b2",
}


@pytest.mark.parametrize("args", list(PINNED), ids=str)
def test_pinned_output(args):
    text = policy_text(random_policy(*args))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[args]


@pytest.mark.parametrize("n, density, message", [
    (0, 0.5, "at least one element"),
    (5, -0.1, "density must be in"),
    (5, 1.5, "density must be in"),
], ids=["no-labels", "density-below-0", "density-above-1"])
def test_bad_arguments_rejected(n, density, message):
    with pytest.raises(ValueError, match=message):
        random_policy(n, density, seed=0)


def reduced_sample(n, density, seed):
    """The covers of random_policy(n, density, seed), from the same draws
    reduced by definition: i < j is a cover iff j is reachable from i and
    from no k reachable from i."""
    rng = random.Random(seed)
    order = [f"x{i}" for i in range(n)]
    rng.shuffle(order)
    edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density}
    reach = set(edges)
    for k in range(n):  # Warshall: edges only go from lower to higher positions
        reach |= {(i, j) for i in range(k) for j in range(k + 1, n) if (i, k) in reach and (k, j) in reach}
    return [
        (order[i], order[j])
        for i in range(n)
        for j in range(i + 1, n)
        if (i, j) in reach and not any((i, k) in reach and (k, j) in reach for k in range(n))
    ]


@pytest.mark.parametrize("args", [(1, 0.5, 0), (12, 0.3, 1), (25, 0.15, 2), (25, 0.6, 3), (40, 0.1, 4), (30, 1.0, 5)], ids=str)
def test_covers_are_the_transitive_reduction(args):
    assert list(random_policy(*args).poset.covers) == reduced_sample(*args)
