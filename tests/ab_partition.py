"""Time the benchmark's partition and analyze ops of this tree against a
second tree's.

Run from the repository root, with the ``src`` directory of another
checkout (for example an archive of the parent commit):

    PYTHONPATH=src python tests/ab_partition.py OTHER/src

Both packages are loaded into one process, this tree's as ``chainforge``
and the other's under another name. Each side runs the partition op of
``bench/run.py`` (``parse_policy``, ``optimal_partition``,
``verify_result``, ``total_secrets``, each chain bottom's up-set size and
user count, ``partition_text``) on two rows of benchmark instances:
``shapes``, the 200-label total order and the 250-top fence under eight
user-count draws each, and ``random``, eight ``random_policy(200, 0.1)``
instances. A third row, ``analyze``, runs the benchmark's analyze op
(``parse_policy``, the width, the minimal and maximal labels and the
maximum) on its 1 500-top fence. Three kernel rows time one
chain-parent kernel call, ``optimize._chain_parents(work, w)``, on
``random_policy(200, 0.1, 1)``, ``random_policy(800, 0.05, 1)`` and
``fence(250, 3, False)`` (the benchmark's 250-top fence under user
seed 3); each side parses the row's policy text, runs
``augment_with_maximum`` and takes ``work.poset.width()`` with its own
code, outside the timed call. A pair times each side on a row as the
least CPU time (``time.process_time``) of three passes over the row's
instances, alternating which side runs first; one untimed pass per side
comes before, and ``PAIRS`` pairs are timed. Per row it prints each
side's median milliseconds per op, the median ratio this / other over
the pairs, the ratio's interquartile range, the pair count, and whether
both sides returned the same answers: ``khat``, ``w``, ``kmax``, ``K``,
flow cost, bottoms and partition text, the analyze report, or the
kernel's links, w, cost and potentials. Given this tree's own ``src``,
it gives the noise floor.

It gates nothing: it exits 1 only if a side's ``verify_result`` rejects
its result. It writes the same numbers to ``BENCH_ab.json``.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

import chainforge
from chainforge.gen import random_policy

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402

ROWS = {
    "shapes": [f"{shape}/{s}" for shape in ("total-order", "fence") for s in range(8)],
    "random": [f"random/{s}" for s in range(8)],
}
KERNEL_ROWS = {
    "random_policy(200, 0.1, 1)": lambda: random_policy(200, 0.1, seed=1),
    "random_policy(800, 0.05, 1)": lambda: random_policy(800, 0.05, seed=1),
    "fence(250, 3, False)": lambda: workloads.fence(250, 3),
}
PAIRS = 10


def load(src: Path, name: str):
    """The ``chainforge`` package under ``src``, imported as ``name``."""
    package = src / "chainforge"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def partition_op(package, text: str):
    """The partition op on one side, and the answer it returns."""
    formats = importlib.import_module(f"{package.__name__}.formats")
    optimize = importlib.import_module(f"{package.__name__}.optimize")
    policy_mod = importlib.import_module(f"{package.__name__}.policy")

    def op():
        policy = formats.parse_policy(text)
        result = optimize.optimal_partition(policy)
        if not optimize.verify_result(policy, result):
            raise SystemExit(f"{package.__file__}: verify_result rejected its result")
        total = policy_mod.total_secrets(policy, result.partition)
        p = policy.poset
        bottoms = [
            (c[-1], p.up_size(c[-1]), sum(policy.count(x) for x in p.up_set(c[-1])))
            for c in result.partition.chains
        ]
        return (result.khat, result.width, result.kmax, total, result.flow_cost,
                bottoms, formats.partition_text(result.partition))

    return op


def analyze_op(package, text: str):
    """The analyze op on one side, and the report it returns."""
    formats = importlib.import_module(f"{package.__name__}.formats")

    def op():
        p = formats.parse_policy(text).poset
        return len(p), len(p.covers), p.width(), p.minimal_elements(), p.maximal_elements(), p.maximum()

    return op


def kernel_op(package, text: str):
    """One chain-parent kernel call on one side, and the result it returns;
    the policy is parsed, augmented and its width taken before the call."""
    formats = importlib.import_module(f"{package.__name__}.formats")
    optimize = importlib.import_module(f"{package.__name__}.optimize")
    policy_mod = importlib.import_module(f"{package.__name__}.policy")
    work = policy_mod.augment_with_maximum(formats.parse_policy(text))[0]
    w = work.poset.width()
    return lambda: optimize._chain_parents(work, w)


def cpu_ms_per_op(ops) -> float:
    """The least CPU time per op of three passes over the ops."""
    best = float("inf")
    for _ in range(3):
        t0 = time.process_time()
        for op in ops:
            op()
        best = min(best, time.process_time() - t0)
    return best * 1e3 / len(ops)


def quartiles(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare(sides, make_op, texts: list[str]) -> dict:
    ops = [[make_op(package, text) for text in texts] for package in sides]
    answers = [[op() for op in side] for side in ops]  # the untimed pass
    times: list[list[float]] = [[], []]
    for k in range(PAIRS):
        for s in (0, 1) if k % 2 == 0 else (1, 0):
            times[s].append(cpu_ms_per_op(ops[s]))
    ratios = [a / b for a, b in zip(*times)]
    return {
        "this_ms": statistics.median(times[0]),
        "other_ms": statistics.median(times[1]),
        "ratio_median": statistics.median(ratios),
        "ratio_iqr": quartiles(ratios),
        "pairs": PAIRS,
        "same_results": answers[0] == answers[1],
        "this_ms_all": times[0],
        "other_ms_all": times[1],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other_src", type=Path, help="the src directory of the second tree")
    args = parser.parse_args()
    other = load(args.other_src.resolve(), "chainforge_other")
    formats = importlib.import_module("chainforge.formats")
    rows = {}
    for row, keys in ROWS.items():
        texts = [formats.policy_text(workloads.instance(key)) for key in keys]
        rows[row] = compare((chainforge, other), partition_op, texts)
    deep_fence = formats.policy_text(workloads.fence(workloads.DEEP_FENCE_TOPS, 0))
    rows["analyze"] = compare((chainforge, other), analyze_op, [deep_fence])
    for row, make in KERNEL_ROWS.items():
        rows[row] = compare((chainforge, other), kernel_op, [formats.policy_text(make())])
    print(f"this tree against {args.other_src}: CPU ms per op,"
          " median over pairs; ratio this / other")
    width = max(map(len, rows))
    for row, r in rows.items():
        q1, q3 = r["ratio_iqr"]
        print(f"{row:<{width}} this {r['this_ms']:7.3f}  other {r['other_ms']:7.3f}"
              f"  ratio x{r['ratio_median']:.3f} (IQR {q1:.3f}-{q3:.3f}, {r['pairs']} pairs)"
              f"  same results: {'yes' if r['same_results'] else 'NO'}")
    Path("BENCH_ab.json").write_text(json.dumps({"unit": "ms", "rows": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
