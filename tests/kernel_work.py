"""Count the heap work of one chain-parent kernel call on the baseline rows
and the goldens.

Run from the repository root:

    PYTHONPATH=src:tests python tests/kernel_work.py

For each of the seven rows of ROADMAP.md's baseline table, for a
bottom-first fence, for a total order and a near-chain without users, for
that near-chain declared in a shuffled order, and for each golden
partition of ``tests/test_optimize.py``, it runs ``optimize._chain_parents``
once, counting its heap operations and its ``_least_prefix`` searches, and
prints the heap pops, the heap pushes, the searches, the width w and the
flow cost. It then checks the links of that same call with the optimality
certificate of ``chainforge.certify``, which takes tier-1 too long on the
goldens, and prints how many of its conditions fail. It exits 1 if w or
the cost differs from the recorded value, if the pops, the pushes or the
searches exceed it, or if any condition fails. It also folds the rows'
results, and the goldens', into one sha256 each, as ``oracle_sweep.fold``
does, and exits 1 unless they equal ``ROWS_DIGEST`` and
``GOLDENS_DIGEST``. The counts and the digests repeat exactly from run to
run, so the checks cannot flake.
"""

from __future__ import annotations

import hashlib
import random
import sys

from chainforge import Policy, Poset
from chainforge.certify import certificate_violations
from chainforge.gen import random_policy

from oracle_sweep import fold, shuffled
from test_optimize import GOLDEN, bottom_first, fence, kernel_heap_work, total_order


def near_chain(n):
    """A total order of n labels without users, declared bottom-first, and
    one more label above its bottom, declared last: width 2."""
    p = total_order(n, 1, False).poset
    return Policy(Poset(p.elements + ("side",), p.covers + ((p.elements[0], "side"),)))


# row, policy, and the recorded pops, pushes, prefix searches, w and cost
ROWS = [
    ("random_policy(100, 0.2, 1)", lambda: random_policy(100, 0.2, seed=1), 1886, 2568, 148, 9, 1562),
    ("random_policy(200, 0.1, 1)", lambda: random_policy(200, 0.1, seed=1), 6511, 8757, 386, 17, 6569),
    ("random_policy(400, 0.05, 1)", lambda: random_policy(400, 0.05, seed=1), 45232, 51083, 753, 38, 27590),
    ("random_policy(800, 0.05, 1)", lambda: random_policy(800, 0.05, seed=1), 109042, 126629, 1776, 37, 61373),
    ("fence(250, 3, False)", lambda: fence(250, 3, False), 13167, 13524, 281, 250, 1908),
    ("fence(1000, 3, False)", lambda: fence(1000, 3, False), 168381, 169729, 1088, 1000, 7440),
    ("total_order(1200, 1, False)", lambda: total_order(1200, 1, False), 1205, 3595, 0, 1, 3024),
    # not baseline rows: a bottom-first fence, the shape on which the dead
    # mask's rule for the bottom node shows in the pops, and two user-less
    # shapes declared bottom-first, on which every search finds the sink at
    # distance 0 and each search k is offered in(0..k) there: about n^2 / 2
    # pops unless the offers to matched in-nodes at the sink bound's
    # distance are cut, as the search ends before any out-node they lead to.
    # The total order and the fences, each with only one w-chain partition,
    # take the kernel only when called directly; the near-chain takes it
    # from optimal_partition too
    ("bottom_first(fence(250, 3, False))", lambda: bottom_first(fence(250, 3, False)), 8734, 9036, 283, 250, 1908),
    ("Policy(total_order(1200, 1, False).poset)", lambda: Policy(total_order(1200, 1, False).poset),
     1200, 2399, 0, 1, 0),
    ("near_chain(1200)", lambda: near_chain(1200), 1211, 2412, 1, 2, 0),
    # the near-chain declared in a shuffled order still takes about n^2 / 10
    # pops, for a cause not yet traced
    ("shuffled(near_chain(1200), random.Random(1))",
     lambda: shuffled(near_chain(1200), random.Random(1)), 145648, 201888, 1161, 2, 0),
]
# sha256 over the kernel results of the rows, in order
ROWS_DIGEST = "0746a47b86fb15e28bb5df44b42c91151f84af7360146b7dd85961ba59b22f2c"


# golden, and its recorded pops, pushes and prefix searches; its w and cost
# are GOLDEN's
GOLDEN_WORK = {
    "random_policy(400, 0.05, 1)": (45232, 51083, 753),
    "random_policy(400, 0.05, 2)": (36118, 41940, 734),
    "random_policy(800, 0.05, 1)": (109042, 126629, 1776),
    "fence(500)": (44888, 45542, 553),
    "total_order(1200)": (1205, 3381, 0),
    "bottom_first(fence(400))": (20478, 20845, 442),
    "sparse_users(fence(400))": (575579, 576437, 440),
    "total_order(400)": (405, 1114, 0),
    "sparse_users(random_policy(400, 0.05))": (25835, 31353, 571),
    "with_maximum_at(random_policy(300, 0.05), 150)": (23805, 28403, 622),
}
# sha256 over the kernel results of the goldens, in GOLDEN's order
GOLDENS_DIGEST = "2afdbef87c831be2b3bfd475affecb874be6c9839994c700896a125e4892691b"


def main() -> int:
    goldens = [
        (f"golden {name}", make, *GOLDEN_WORK[name], w, cost)
        for name, make, _, _, w, cost in GOLDEN
    ]
    bad = 0
    for group, cases, want_digest in (("rows", ROWS, ROWS_DIGEST), ("goldens", goldens, GOLDENS_DIGEST)):
        digest = hashlib.sha256()
        for name, make, max_pops, max_pushes, max_searches, want_w, want_cost in cases:
            pops, pushes, searches, work, result = kernel_heap_work(make())
            fold(digest, result)
            links, w, cost, potentials = result
            violations = len(certificate_violations(work, links, w, potentials))
            ok = pops <= max_pops and pushes <= max_pushes and searches <= max_searches
            ok = ok and (w, cost) == (want_w, want_cost) and not violations
            bad += not ok
            print(
                f"{name}: {pops} pops (at most {max_pops}), {pushes} pushes (at most {max_pushes}),"
                f" {searches} prefix searches (at most {max_searches}),"
                f" w {w} ({want_w}), cost {cost} ({want_cost}), {violations} certificate violations"
                f"{'' if ok else '  FAILED'}"
            )
        same = digest.hexdigest() == want_digest
        bad += not same
        print(f"{group} sha256 {digest.hexdigest()}{'' if same else f'  FAILED: recorded {want_digest}'}")
    print(f"{len(ROWS)} rows and {len(GOLDEN)} goldens, {bad} failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
