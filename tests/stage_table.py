"""Time each stage of the pipeline on the seven baseline rows.

Run from the repository root:

    PYTHONPATH=src:tests python tests/stage_table.py [--stretch]

For each of the seven rows of ROADMAP.md's baseline table (the first
seven rows of ``tests/kernel_work.py``) it takes the CPU time
(``time.process_time``), best of three calls, of each stage: parsing the
policy text, building the ``Poset``, its width, ``optimal_partition``
as a whole, the chain-parent kernel, decoding its links into the result
(``optimize._result``, as ``optimal_partition`` does), ``verify_result``,
``total_secrets``, ``ces.setup``, one ``derive`` (a maximal label's
bundle deriving the key of a minimal label below it), and, on the rows
of at most 200 labels, ``correctness_audit``. ``optimal_partition``
takes the partition without the kernel when the policy, less its
maximum if it has one, declared or not, has only one w-chain partition
(``optimize._only_partition(policy, work, top)`` decides, on the policy
that ``augment_with_maximum`` returns and its maximum), so on such a row
(the fences and the total order) the kernel cell, marked ``+``, is not
part of the pipeline. It prints the table in milliseconds with the
benchmark's speed kernel (``bench/speed.py``) sampled before and after
it, and writes the same numbers in seconds to ``BENCH_stages.json``,
with the rows whose kernel is off the pipeline. It gates nothing.

``--stretch`` adds two larger rows after them, ``random_policy(1600,
0.025, 1)`` and ``random_policy(3200, 0.0125, 1)``, whose density keeps
about 40 comparable successors per label as at n = 800. They record how
the stages grow past n = 800 and take about a minute more.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from chainforge import ces, optimize
from chainforge.formats import parse_policy, policy_text
from chainforge.gen import random_policy
from chainforge.policy import augment_with_maximum, total_secrets
from chainforge.poset import Poset

from kernel_work import ROWS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from speed import REFERENCE_S, SpeedProbe  # noqa: E402

BASELINE = ROWS[:7]
STRETCH = [
    ("random_policy(1600, 0.025, 1)", lambda: random_policy(1600, 0.025, seed=1)),
    ("random_policy(3200, 0.0125, 1)", lambda: random_policy(3200, 0.0125, seed=1)),
]
AUDIT_MAX_LABELS = 200
STAGES = (
    "parse", "poset", "width", "optimal_partition", "kernel", "decode",
    "verify_result", "total_secrets", "ces.setup", "derive", "correctness_audit",
)


def best_of_three(call):
    """The least CPU time of three calls, and the last call's result."""
    best = float("inf")
    for _ in range(3):
        t0 = time.process_time()
        result = call()
        best = min(best, time.process_time() - t0)
    return best, result


def stage_times(policy):
    """Each stage's best-of-three CPU time in seconds on one policy."""
    p = policy.poset
    text = policy_text(policy)
    times = {}
    times["parse"], _ = best_of_three(lambda: parse_policy(text))
    times["poset"], _ = best_of_three(lambda: Poset(p.elements, p.covers))
    times["width"], _ = best_of_three(p.width)
    times["optimal_partition"], _ = best_of_three(lambda: optimize.optimal_partition(policy))
    work, top, added = augment_with_maximum(policy)
    times["kernel"], (links, w, cost, _) = best_of_three(
        lambda: optimize._chain_parents(work, work.poset.width())
    )
    times["decode"], result = best_of_three(
        lambda: optimize._result(policy, work, top, added, links, w, cost)
    )
    times["verify_result"], ok = best_of_three(lambda: optimize.verify_result(policy, result))
    if not ok:
        raise SystemExit("verify_result rejected the kernel's partition")
    pi = result.partition
    times["total_secrets"], _ = best_of_three(lambda: total_secrets(policy, pi))
    params = ces.SchemeParams()
    times["ces.setup"], material = best_of_three(
        lambda: ces.setup(policy, pi, params, ces.seeded_entropy(b"stage table"))
    )
    x = p.maximal_elements()[0]
    y = next(z for z in p.minimal_elements() if p.leq(z, x))
    bundle = ces.issue_bundle(material, policy, x)
    times["derive"], _ = best_of_three(lambda: ces.derive(policy, pi, bundle, y, params))
    if len(p) <= AUDIT_MAX_LABELS:
        times["correctness_audit"], ok = best_of_three(
            lambda: ces.correctness_audit(policy, pi, material)
        )
        if not ok:
            raise SystemExit("correctness_audit rejected the key material")
    return times, optimize._only_partition(policy, work, top)[1] is not None


def speed_samples(probe, count=3):
    return [probe.times[probe.sample()] for _ in range(count)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--stretch", action="store_true",
                        help="also time the rows at n = 1 600 and 3 200")
    args = parser.parse_args()
    probe = SpeedProbe()
    speed = speed_samples(probe)
    rows, off_path = {}, []
    for name, make, *_ in BASELINE + (STRETCH if args.stretch else []):
        rows[name], only = stage_times(make())
        if only:
            off_path.append(name)
    speed += speed_samples(probe)

    print(f"speed kernel {min(speed) * 1e3:.1f}-{max(speed) * 1e3:.1f} ms"
          f" (reference {REFERENCE_S * 1e3:.1f} ms); stage CPU times in ms, best of three;"
          " + marks a kernel that optimal_partition does not call")
    width = max(map(len, rows))
    columns = [(s, max(9, len(s))) for s in STAGES]
    print(" | ".join([f"{'row':<{width}}"] + [f"{s:>{cw}}" for s, cw in columns]))
    for name, times in rows.items():
        cells = [f"{times[s] * 1e3:{cw}.3f}" if s in times else f"{'-':>{cw}}" for s, cw in columns]
        if name in off_path:
            k = STAGES.index("kernel")
            cells[k] = f"{'+' + cells[k].strip():>{columns[k][1]}}"
        print(" | ".join([f"{name:<{width}}"] + cells))
    Path("BENCH_stages.json").write_text(
        json.dumps({"unit": "s", "speed_kernel_s": speed, "reference_s": REFERENCE_S, "rows": rows,
                    "kernel_off_path": off_path}, indent=1) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
