"""Inputs, operations, answer checks and loops of the three workloads.

Every operation calls the program through module attributes
(``formats.parse_policy``, ``optimize.optimal_partition``, ...), so the
traced run can wrap those names without touching the program's source.

Answer checks never trust the optimizer: a partition must be a valid chain
partition, have as many chains as the shipped reference width, satisfy
kmax <= w, make the three independent ``khat`` formulas agree, and match
the reference ``khat``, ``w`` and partition-text digest stored in
``reference.json``. Key-service answers are checked against the stored
keys, and refusals against a down-set closure the benchmark computes
itself from the generated covers.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from collections import Counter, defaultdict
from pathlib import Path

from chainforge import ces, formats, gen, optimize
from chainforge import policy as policy_mod
from chainforge.errors import InternalError, NotAuthorized
from chainforge.policy import Policy
from chainforge.poset import Poset

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

# Instance pools. Every instance a workload can draw has a shipped
# reference answer, so every partition op is checked whatever the seed.
RANDOM_N, RANDOM_DENSITY, RANDOM_POOL = 200, 0.1, 200
SHAPE_POOL = 32
TOTAL_ORDER_N = 200
FENCE_TOPS = 250
DEEP_FENCE_TOPS = 1500

RANDOM_PER_RUN = 24  # distinct instances per partition-random run
SHAPES_PER_RUN = 8  # distinct user-count draws per shape per run
# keyserve serves the same policy whatever the seed, which draws only its
# keys and requests: derive cost moves by about 8 % between
# random_policy(200, 0.1) instances, more than the run-to-run spread may be.
SERVICE_POLICY = 0
DERIVES_PER_ROTATION = 1000
AUTHORIZED_SHARE = 0.9
SETUP_REPEATS = 3


# -- instance generators ------------------------------------------------------


def random_instance(instance_seed: int) -> Policy:
    return gen.random_policy(RANDOM_N, RANDOM_DENSITY, instance_seed)


def total_order(n: int, users_seed: int) -> Policy:
    """A chain c0 < c1 < ... < c(n-1): width 1, every pair comparable."""
    labels = [f"c{i}" for i in range(n)]
    covers = [(labels[i], labels[i + 1]) for i in range(n - 1)]
    rng = random.Random(users_seed)
    return Policy(Poset(labels, covers), {x: rng.randint(0, 5) for x in labels})


def fence(tops: int, users_seed: int) -> Policy:
    """The zigzag b_i < t_i, b_i < t_(i-1), tops declared first in
    increasing order: width ``tops``, sparse covers."""
    t = [f"t{i}" for i in range(tops)]
    b = [f"b{i}" for i in range(tops)]
    covers = [(b[i], t[i]) for i in range(tops)] + [(b[i], t[i - 1]) for i in range(1, tops)]
    rng = random.Random(users_seed)
    labels = t + b
    return Policy(Poset(labels, covers), {x: rng.randint(0, 5) for x in labels})


def shape_instance(shape: str, users_seed: int) -> Policy:
    if shape == "total-order":
        return total_order(TOTAL_ORDER_N, users_seed)
    if shape == "fence":
        return fence(FENCE_TOPS, users_seed)
    raise ValueError(shape)


def instance(key: str) -> Policy:
    """The policy behind a reference key such as ``random/17``."""
    family, seed = key.rsplit("/", 1)
    if family == "random":
        return random_instance(int(seed))
    return shape_instance(family, int(seed))


def down_masks(elements, covers) -> dict[str, int]:
    """Reflexive down-set of every label as a bitmask over declaration
    indices, computed from the covers alone (independent of ``Poset``)."""
    index = {x: i for i, x in enumerate(elements)}
    children = defaultdict(list)
    parents = defaultdict(list)
    for child, parent in covers:
        children[parent].append(child)
        parents[child].append(parent)
    pending = {x: len(children[x]) for x in elements}
    ready = [x for x in elements if pending[x] == 0]
    masks = {}
    while ready:
        x = ready.pop()
        m = 1 << index[x]
        for c in children[x]:
            m |= masks[c]
        masks[x] = m
        for p in parents[x]:
            pending[p] -= 1
            if pending[p] == 0:
                ready.append(p)
    return masks


# -- operations -----------------------------------------------------------------


def partition_op(text: str):
    """The ``chainforge partition`` path, in process."""
    policy = formats.parse_policy(text)
    result = optimize.optimal_partition(policy)
    if not optimize.verify_result(policy, result):
        raise InternalError("optimization result failed self-verification")
    total = policy_mod.total_secrets(policy, result.partition)
    p = policy.poset
    bottoms = [
        (c[-1], p.up_size(c[-1]), sum(policy.count(x) for x in p.up_set(c[-1])))
        for c in result.partition.chains
    ]
    return policy, result, total, bottoms, formats.partition_text(result.partition)


def partition_answer(out) -> dict:
    """The values a reference entry records for one partition op."""
    _, result, total, bottoms, text = out
    return {
        "khat": result.khat,
        "w": result.width,
        "kmax": result.kmax,
        "K": total,
        "flow_cost": result.flow_cost,
        "bottoms_weight": sum(wt for _, _, wt in bottoms),
        "partition_sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def check_partition(out, ref: dict | None) -> str | None:
    """None if the answer is right, else what is wrong with it."""
    policy, result, _, _, _ = out
    pi = result.partition
    if not policy.poset.is_chain_partition(pi.chains):
        return "not a chain partition"
    khat = policy_mod.issued_secrets(policy, pi)
    bottoms = policy_mod.issued_secrets_via_bottoms(policy, pi)
    tree = policy_mod.issued_secrets_via_tree(*policy_mod.attach_to_maximum(policy, pi))
    if not khat == bottoms == tree == result.khat:
        return f"khat formulas disagree: {result.khat} {khat} {bottoms} {tree}"
    if ref is None:
        return "no reference answer for this instance"
    if len(pi.chains) != ref["w"] or result.width != ref["w"]:
        return f"{len(pi.chains)} chains, width {result.width}, reference w {ref['w']}"
    if result.kmax > ref["w"]:
        return f"kmax {result.kmax} > w {ref['w']}"
    got = partition_answer(out)
    wrong = sorted(k for k in ref if got.get(k) != ref[k])
    if wrong:
        return "differs from reference in " + ", ".join(f"{k} ({got.get(k)} != {ref[k]})" for k in wrong)
    return None


def analyze_op(text: str):
    """The ``chainforge analyze`` path, in process."""
    policy = formats.parse_policy(text)
    p = policy.poset
    return len(p), len(p.covers), p.width(), p.minimal_elements(), p.maximal_elements(), p.maximum()


def check_deep_fence(out) -> str | None:
    n, covers, width, minimal, maximal, top = out
    k = DEEP_FENCE_TOPS
    expect = (2 * k, 2 * k - 1, k, tuple(f"b{i}" for i in range(k)), tuple(f"t{i}" for i in range(k)), None)
    if out != expect:
        return f"analyze report {(n, covers, width, len(minimal), len(maximal), top)} is wrong"
    return None


# -- measurement ------------------------------------------------------------------


class Recorder:
    """Times ops, checks their answers and counts failures.

    An op fails when it raises, or when ``check`` finds its answer wrong.
    Only ops that succeed give latency samples; a cycle's time sums every
    op's time in it, failed ones included. Each time is kept with the mark
    of the speed sample taken just before it.
    """

    def __init__(self, probe, tracer=None):
        self.probe = probe
        self.tracer = tracer
        self.samples: dict[str, list[tuple[float, int]]] = defaultdict(list)
        self.labels = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: Counter = Counter()
        self.cycles: list[list[tuple[float, int]]] = []
        self._cycle: list[tuple[float, int]] = []

    def run(self, kind: str, fn, check, *, refusal=None, labels: int = 0):
        """Run one op and return its result, or None if it failed.

        ``check`` gets the result of a normal return and names what is
        wrong with it, or returns None. With ``refusal`` set, raising that
        exception type is the right answer.
        """
        mark = self.probe.mark()
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_op(kind)
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as e:  # a failed op is counted and reported, the loop goes on
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
            self._cycle.append((dt, mark))
            if refusal is None or not isinstance(e, refusal):
                self.failed += 1
                self.failures[f"{kind}: {type(e).__name__}: {str(e)[:100]}"] += 1
                return None
            out, problem = e, None
        else:
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
            self._cycle.append((dt, mark))
            problem = check(out)
        if problem:
            self.failed += 1
            self.wrong += 1
            self.failures[f"{kind}: wrong answer: {problem}"] += 1
            return None
        self.samples[kind].append((dt, mark))
        self.labels += labels
        return out

    def end_cycle(self) -> None:
        self.cycles.append(self._cycle)
        self._cycle = []

    def discard_cycle(self) -> None:
        self._cycle = []

    def times(self, kind: str, scaled: bool) -> list[float]:
        return [self.probe.reference_time(t, m) if scaled else t for t, m in self.samples[kind]]

    def cycle_times(self, scaled: bool) -> list[float]:
        return [sum(self.probe.reference_time(t, m) if scaled else t for t, m in c) for c in self.cycles]


# -- workloads --------------------------------------------------------------------


def load_reference() -> dict:
    """Reference answers keyed like ``random/17``, ``fence/3``."""
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))["instances"]


class Workload:
    """Set-up state plus one cycle of work. ``cycle(i)`` depends only on the
    seed and ``i``, so a traced replay repeats exactly the same inputs."""

    name = ""

    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        self.reference = reference
        self.rng = random.Random(f"{self.name}/{seed}")

    def setup(self, rec: Recorder) -> list[tuple[float, int]]:
        """Build the inputs; returns the time of each set-up repetition,
        with the mark of the speed sample taken just before it."""
        times = []
        for _ in range(SETUP_REPEATS):
            mark = rec.probe.sample()
            t0 = time.perf_counter()
            self.rng = random.Random(f"{self.name}/{self.seed}")
            self.generate()
            times.append((time.perf_counter() - t0, mark))
        rec.probe.sample()
        return times

    def generate(self) -> None:
        raise NotImplementedError

    def cycle(self, i: int, rec: Recorder) -> None:
        raise NotImplementedError

    def partition(self, rec: Recorder, key: str, text: str, labels: int):
        ref = self.reference.get(key)
        return rec.run(
            "partition",
            lambda: partition_op(text),
            lambda out: check_partition(out, ref),
            labels=labels,
        )


class PartitionRandom(Workload):
    name = "partition-random"

    def generate(self):
        seeds = self.rng.sample(range(RANDOM_POOL), RANDOM_PER_RUN)
        self.inputs = [(f"random/{s}", formats.policy_text(random_instance(s))) for s in seeds]

    def cycle(self, i, rec):
        key, text = self.inputs[i % len(self.inputs)]
        self.partition(rec, key, text, RANDOM_N)
        rec.end_cycle()


class PartitionShapes(Workload):
    name = "partition-shapes"
    shapes = (("total-order", TOTAL_ORDER_N), ("fence", 2 * FENCE_TOPS))

    def generate(self):
        self.inputs = []
        for shape, _ in self.shapes:
            seeds = self.rng.sample(range(SHAPE_POOL), SHAPES_PER_RUN)
            self.inputs.append([(f"{shape}/{s}", formats.policy_text(shape_instance(shape, s))) for s in seeds])
        self.deep_fence = formats.policy_text(fence(DEEP_FENCE_TOPS, 0))

    def cycle(self, i, rec):
        for inputs, (_, labels) in zip(self.inputs, self.shapes):
            key, text = inputs[i % SHAPES_PER_RUN]
            self.partition(rec, key, text, labels)
        rec.run("analyze", lambda: analyze_op(self.deep_fence), check_deep_fence)
        rec.end_cycle()


class KeyServe(Workload):
    """Set-up solves the service's policy through the partition op. Each
    cycle is one key rotation: keygen and bundle issuance with a text round
    trip, an audit, then a stream of derive requests."""

    name = "keyserve"
    params = ces.SchemeParams()

    def setup(self, rec):
        times = []
        for _ in range(SETUP_REPEATS):
            mark = rec.probe.sample()
            t0 = time.perf_counter()
            generated = random_instance(SERVICE_POLICY)
            out = self.partition(rec, f"random/{SERVICE_POLICY}", formats.policy_text(generated), RANDOM_N)
            times.append((time.perf_counter() - t0, mark))
            if out is None:
                raise RuntimeError(f"set-up solve failed: {list(rec.failures)}")
        rec.probe.sample()
        rec.discard_cycle()
        self.service = self._service(out[0], out[1], generated)
        return times

    def _service(self, policy, result, generated):
        p = generated.poset
        masks = down_masks(p.elements, p.covers)
        full = (1 << len(p.elements)) - 1
        holders = [x for x in p.elements if generated.count(x) > 0]
        weights = [generated.count(x) for x in holders]
        requests = []
        while len(requests) < DERIVES_PER_ROTATION:
            x = self.rng.choices(holders, weights)[0]
            authorized = self.rng.random() < AUTHORIZED_SHARE
            mask = masks[x] if authorized else full & ~masks[x]
            targets = [y for i, y in enumerate(p.elements) if mask >> i & 1]
            if targets:
                requests.append((x, self.rng.choice(targets), authorized))
        return {"policy": policy, "partition": result.partition, "width": result.width,
                "holders": holders, "requests": requests}

    def cycle(self, i, rec):
        svc = self.service
        policy, pi = svc["policy"], svc["partition"]
        entropy_seed = hashlib.sha256(f"{self.name}/{self.seed}/{i}".encode()).digest()

        def rotate():
            material = ces.setup(policy, pi, self.params, ces.seeded_entropy(entropy_seed))
            issued, parsed = {}, {}
            for x in svc["holders"]:
                issued[x] = ces.issue_bundle(material, policy, x)
                parsed[x] = ces.bundle_from_text(ces.bundle_to_text(issued[x]))
            return material, issued, parsed

        def check_rotation(out):
            _, issued, parsed = out
            for x, b in issued.items():
                if parsed[x] != b:
                    return f"bundle of {x!r} does not survive the text round trip"
                if len(b.secrets) > svc["width"]:
                    return f"bundle of {x!r} holds {len(b.secrets)} secrets, more than w"
            return None

        out = rec.run("rotate", rotate, check_rotation)
        if out is not None:
            material, _, bundles = out
            rec.run(
                "audit",
                lambda: ces.correctness_audit(policy, pi, material),
                lambda ok: None if ok is True else "correctness_audit rejected the material",
            )
            for x, y, authorized in svc["requests"]:
                if authorized:
                    rec.run(
                        "derive",
                        lambda: ces.derive(policy, pi, bundles[x], y, self.params),
                        lambda key: None if key == material.keys[y] else f"wrong key for {y!r} from {x!r}",
                    )
                else:
                    rec.run(
                        "derive",
                        lambda: ces.derive(policy, pi, bundles[x], y, self.params),
                        lambda key: f"{x!r} obtained a key for {y!r}",
                        refusal=NotAuthorized,
                    )
        rec.end_cycle()


WORKLOADS = {w.name: w for w in (PartitionRandom, PartitionShapes, KeyServe)}
