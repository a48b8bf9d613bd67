"""chainforge benchmark: partition, shape and key-service workloads.

Run from the repository root:

    python3 bench/run.py --workload partition-random --seed 1 --seconds 30 --trace 0

It imports the program from ``./src``, builds the workload's inputs from
the seed, runs the workload's cycles in a closed loop (one caller, one
thread) for the given number of seconds, checks every answer, and prints
the metrics. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are the per-layer metrics. A traced run first measures
half the time untraced, then replays the same cycles with spans recorded,
so the difference between the two halves is the tracing overhead.

See ``bench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path.cwd()
TRACE_DIR = ROOT / ".bench_out"

LIMITS = (
    "Wall-clock times from time.perf_counter on a shared machine whose other tenants "
    "are not controlled; no system-wide tracing and no page-cache dropping were used. "
    "peak_rss_mb is ru_maxrss, a process-lifetime peak, so each workload runs in its "
    "own process. Spans are recorded from the benchmark's side of each call into the "
    "program, never inside it."
)


def import_program():
    """Import chainforge from ./src, and nothing else under that name."""
    src = ROOT / "src"
    if not (src / "chainforge" / "__init__.py").is_file():
        sys.exit("error: src/chainforge not found; run from the root of a chainforge checkout")
    sys.path.insert(0, str(src))
    import chainforge

    if Path(chainforge.__file__).resolve().parent != (src / "chainforge").resolve():
        sys.exit(f"error: imported chainforge from {chainforge.__file__}, not from ./src")


def git_revision() -> str:
    """HEAD of ./.git, read without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def source_digest() -> str:
    """sha256 over the program's Python sources, to identify a checkout
    that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "chainforge").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def tail(values: list[float]) -> tuple[float, int, int]:
    """The highest of p99 and p90 with at least ten samples beyond it, or
    else the median, as (value, percentile, sample count). Fixed steps keep
    the percentile the same between runs whose sample counts differ."""
    xs = sorted(values)
    n = len(xs)
    for pct in (99, 90):
        if n * (100 - pct) >= 1000:
            return xs[math.ceil(n * pct / 100) - 1], pct, n
    return median(xs), 50, n


def median(xs) -> float:
    return statistics.median(xs) if xs else math.nan


def end_to_end(workload, rec, setup_times, scaled: bool = True) -> tuple[dict, dict]:
    """The gated metrics as {name: (value, unit)}, and the details behind
    them: the per-workload metrics by name with their sample counts and
    tail percentiles. With ``scaled``, times are at reference speed (see
    speed.py); otherwise as measured."""
    request = "derive" if workload.name == "keyserve" else "partition"
    req = rec.times(request, scaled)
    part = rec.times("partition", scaled)
    setup = [rec.probe.reference_time(t, m) if scaled else t for t, m in setup_times]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    gated = {
        "setup_s": (median(setup), "s"),
        "request_ms": (sum(req) / len(req) * 1e3 if req else math.nan, "ms"),
        "cycle_s": (median(rec.cycle_times(scaled)), "s"),
        "partition_labels_per_s": (rec.labels / sum(part) if part else math.nan, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_ratio": ((rec.attempted - rec.failed) / rec.attempted, "ratio"),
    }
    named = {"setup_s": (gated["setup_s"][0], "s", f"median of {len(setup)} set-ups")}
    if workload.name == "partition-random":
        t, pct, n = tail(part)
        named["partition_s_p50"] = (median(part), "s", f"{n} samples")
        named["partition_s_tail"] = (t, "s", f"p{pct} of {n} samples")
    if workload.name != "keyserve":
        named["partition_labels_per_s"] = (gated["partition_labels_per_s"][0], "1/s", f"{rec.labels} labels")
    else:
        t, pct, n = tail(req)
        named["derive_us_p50"] = (median(req) * 1e6, "us", f"{n} samples")
        named["derive_us_tail"] = (t * 1e6, "us", f"p{pct} of {n} samples")
        for kind in ("rotate", "audit"):
            xs = rec.times(kind, scaled)
            named[f"{kind}_s"] = (median(xs), "s", f"{len(xs)} samples")
    named["peak_rss_mb"] = (rss_mb, "MB", "ru_maxrss of this process")
    named["fail_ratio"] = (rec.failed / rec.attempted, "ratio", f"{rec.failed} of {rec.attempted} ops")
    detail = {
        "request": request,
        "samples": {k: len(v) for k, v in sorted(rec.samples.items())},
        "cycles": len(rec.cycles),
        "setup_repeats": len(setup),
        "named": named,
    }
    return gated, detail


def measure(workload, rec, seconds: float, cycles: int | None = None) -> int:
    """Run cycles until ``seconds`` have passed (at least one), or exactly
    ``cycles`` of them; returns how many ran."""
    gc.collect()
    deadline = time.perf_counter() + seconds
    i = 0
    while cycles is None or i < cycles:
        workload.cycle(i, rec)
        i += 1
        if cycles is None and time.perf_counter() >= deadline:
            break
    rec.probe.sample()  # the last op's closing speed sample
    return i


def main(argv=None) -> int:
    import_program()
    import spans
    import speed
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "loop": "closed, one caller, one thread",
        "limits": LIMITS,
    }
    workload = workloads.WORKLOADS[args.workload](args.seed, workloads.load_reference())
    probe = speed.SpeedProbe()
    rec = workloads.Recorder(probe)
    setup_times = workload.setup(rec)

    if args.trace == 0:
        measure(workload, rec, args.seconds)
        metrics, detail = end_to_end(workload, rec, setup_times)
        detail["as_measured"] = {k: v for k, (v, _) in end_to_end(workload, rec, setup_times, False)[0].items()}
        recs = [rec]
    else:
        cycles = measure(workload, rec, args.seconds / 2)
        tracer = spans.Tracer()
        traced = workloads.Recorder(probe, tracer)
        tracer.install()
        try:
            measure(workload, traced, 0, cycles)
        finally:
            tracer.remove()
        untraced_e2e, _ = end_to_end(workload, rec, setup_times)
        traced_e2e, _ = end_to_end(workload, traced, setup_times)
        metrics = {k: (v, unit_of(k)) for k, v in tracer.layer_metrics().items()}
        metrics["trace.overhead_ratio"] = (sum(traced.cycle_times(True)) / sum(rec.cycle_times(True)) - 1, "ratio")
        detail = {
            "named": {k: (v, u, "") for k, (v, u) in metrics.items()},
            "replayed_cycles": cycles,
            "spans": len(tracer.spans),
            "overhead_traced_minus_untraced": {
                k: traced_e2e[k][0] - untraced_e2e[k][0]
                for k in ("request_ms", "cycle_s", "partition_labels_per_s")
                if math.isfinite(traced_e2e[k][0] - untraced_e2e[k][0])
            },
        }
        trace_file = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(trace_file)
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
        recs = [rec, traced]

    failures = sum((r.failures for r in recs), Counter())
    meta["loadavg_end"] = os.getloadavg()
    meta["speed_probe"] = {
        "reference_s": speed.REFERENCE_S,
        "median_s": statistics.median(probe.times),
        "samples": len(probe.times),
    }

    for name, (value, unit, note) in detail["named"].items():
        print(f"{name:<34} {value:>14.6g} {unit:<6} {note}")
    for what, n in sorted(failures.items()):
        print(f"failed {n}x  {what}")
    print("report " + json.dumps({**meta, **detail, "failures": failures}, default=list))
    result = {
        "correct": sum(r.wrong for r in recs) == 0,
        "attempted": sum(r.attempted for r in recs),
        "failed": sum(r.failed for r in recs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
