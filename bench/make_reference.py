"""Regenerate ``reference.json``: the answer of the partition op on every
instance a workload can draw.

Run from the repository root, at a commit whose answers are trusted:

    python3 bench/make_reference.py

Each answer is accepted only after the same checks a benchmark run makes
short of the reference itself: a valid partition, kmax <= w and the three
``khat`` formulas in agreement.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import workloads as wl  # noqa: E402


def keys() -> list[str]:
    out = [f"random/{s}" for s in range(wl.RANDOM_POOL)]
    for shape in ("total-order", "fence"):
        out += [f"{shape}/{s}" for s in range(wl.SHAPE_POOL)]
    return out


def main() -> int:
    instances = {}
    for key in keys():
        out = wl.partition_op(wl.formats.policy_text(wl.instance(key)))
        answer = wl.partition_answer(out)
        problem = wl.check_partition(out, {"w": answer["w"]})
        if problem:
            print(f"{key}: {problem}", file=sys.stderr)
            return 1
        instances[key] = answer
        print(key, answer["khat"], answer["w"], flush=True)
    doc = {
        "about": "Answers of the partition op at the seed commit, one per pool instance: "
        "random/<s> is random_policy(200, 0.1, s); total-order/<s> and fence/<s> are the "
        "partition-shapes instances with user counts drawn from seed s.",
        "instances": instances,
    }
    wl.REFERENCE_FILE.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
