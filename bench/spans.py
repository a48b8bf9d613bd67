"""Span tracing for the traced run, installed from the benchmark's side.

The tracer replaces each public function at the name its caller looks it
up by (``chainforge.optimize.min_cost_flow``, ``Poset.width``, ...) with a
wrapper that records a span, and puts every original back when it is
removed. Spans live in memory until the run ends. Per-pair order queries
(``leq``, ``lt``, ``_i``) are never wrapped: there are O(n^2) of them per
op and the wrapper would cost more than the work.

A span is ``[name, start, end, parent, op, counts, raised]``; ``parent``
is the index of the enclosing span (-1 for an op's root span), ``op`` the
id of the op it belongs to and ``counts`` the counter events that fired
while it was the innermost open span.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter, defaultdict

from chainforge import ces, formats, optimize, policy
from chainforge.ces import SchemeParams
from chainforge.poset import Poset

NAME, START, END, PARENT, OP, COUNTS, RAISED = range(7)

# (owner, attribute, span name): the names each caller looks up.
SPANNED = [
    (formats, "parse_policy", "formats.parse"),
    (formats, "partition_text", "formats.emit"),
    (ces, "bundle_to_text", "formats.bundle_text"),
    (ces, "bundle_from_text", "formats.bundle_text"),
    (Poset, "__init__", "poset.build"),
    (Poset, "width", "poset.width"),
    (optimize, "optimal_partition", "optimize"),
    (optimize, "partition_from_flow", "optimize.decode"),
    (optimize, "verify_result", "optimize.verify"),
    (optimize, "build_flow_network", "flow.build"),
    (optimize, "eliminate_lower_bounds", "flow.lower_bounds"),
    (optimize, "restore_lower_bounds", "flow.lower_bounds"),
    (optimize, "min_cost_flow", "flow.solve"),
    (optimize, "is_feasible", "flow.feasible"),
    (optimize, "issued_secrets", "policy.metrics"),
    (optimize, "issued_secrets_via_bottoms", "policy.metrics"),
    (optimize, "issued_secrets_via_tree", "policy.metrics"),
    (optimize, "max_bundle_size", "policy.metrics"),
    (policy, "total_secrets", "policy.metrics"),
    (optimize, "augment_with_maximum", "policy.augment"),
    (optimize, "attach_to_maximum", "policy.augment"),
    (policy, "augment_with_maximum", "policy.augment"),
    (ces, "bundle_labels", "policy.bundle"),
    (ces, "setup", "ces.keygen"),
    (ces, "issue_bundle", "ces.issue"),
    (ces, "derive", "ces.derive"),
    (ces, "correctness_audit", "ces.audit"),
]

# Counted, not timed: called often enough per op that a span would distort.
COUNTED = [
    (Poset, "is_chain_partition", "poset.partition_checks"),
    (SchemeParams, "apply_f", "ces.hash_evals"),
    (SchemeParams, "apply_h", "ces.hash_evals"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.ops: list[str] = []  # op id -> op kind
        self.stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in SPANNED:
            self._replace(owner, attr, self._spanned(name, getattr(owner, attr)))
        for owner, attr, name in COUNTED:
            self._replace(owner, attr, self._counted(name, getattr(owner, attr)))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _spanned(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if not stack:  # outside an op: the benchmark's own checks
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1], len(self.ops) - 1, None, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if name == "flow.build":
                span[COUNTS] = {"flow.arcs": len(out.arcs), "flow.nodes": len(out.nodes)}
            return out

        return wrapper

    def _counted(self, name, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if stack:  # only inside an op; the benchmark's own checks are not counted
                span = spans[stack[-1]]
                if span[COUNTS] is None:
                    span[COUNTS] = {name: 1}
                else:
                    span[COUNTS][name] = span[COUNTS].get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- ops ---------------------------------------------------------------

    def begin_op(self, kind: str) -> None:
        self.ops.append(kind)
        span = [f"op.{kind}", 0.0, 0.0, -1, len(self.ops) - 1, None, False]
        self.stack[:] = [len(self.spans)]
        self.spans.append(span)
        span[START] = time.perf_counter()

    def end_op(self) -> None:
        self.spans[self.stack.pop()][END] = time.perf_counter()

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics, each divided by the unit it is stated per:
        partition ops, rotations, derive requests or audits."""
        own = self.self_times()
        kinds = Counter(self.ops)
        per_op: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        authorized = checks = hashes = 0
        for s, t in zip(self.spans, own):
            kind = self.ops[s[OP]]
            bucket = per_op[kind]
            bucket[s[NAME] + "_s"] += t
            for counter, n in (s[COUNTS] or {}).items():
                bucket[counter] += n
            if s[NAME] == "poset.width":
                bucket["poset.width_calls"] += 1
            elif s[NAME] == "ces.derive":
                bucket["ces.derive_calls"] += 1
                if kind == "derive" and not s[RAISED]:
                    authorized += 1
                    checks += (s[COUNTS] or {}).get("poset.partition_checks", 0)
                    hashes += (s[COUNTS] or {}).get("ces.hash_evals", 0)

        def per(kind, key, unit_kind=None):
            n = kinds[unit_kind or kind]
            return per_op[kind][key] / n if n else 0.0

        part = "partition"
        rot_or_audit = ("rotate", "audit")
        return {
            "formats.parse_s": per(part, "formats.parse_s"),
            "formats.emit_s": per(part, "formats.emit_s"),
            "formats.bundle_text_s": per("rotate", "formats.bundle_text_s"),
            "poset.build_s": per(part, "poset.build_s"),
            "poset.width_s": per(part, "poset.width_s"),
            "poset.width_calls_per_op": per(part, "poset.width_calls"),
            "flow.build_s": per(part, "flow.build_s"),
            "flow.arcs": per(part, "flow.arcs"),
            "flow.nodes": per(part, "flow.nodes"),
            "flow.lower_bounds_s": per(part, "flow.lower_bounds_s"),
            "flow.solve_s": per(part, "flow.solve_s"),
            "flow.feasible_s": per(part, "flow.feasible_s"),
            "optimize.self_s": per(part, "optimize_s"),
            "optimize.decode_s": per(part, "optimize.decode_s"),
            "optimize.verify_s": per(part, "optimize.verify_s"),
            "policy.metrics_s": per(part, "policy.metrics_s"),
            "policy.augment_s": per(part, "policy.augment_s"),
            "poset.partition_checks_per_op": per(part, "poset.partition_checks"),
            "policy.bundle_s": sum(per(k, "policy.bundle_s", "rotate") for k in rot_or_audit),
            "ces.keygen_s": per("rotate", "ces.keygen_s"),
            "ces.issue_s": sum(per(k, "ces.issue_s", "rotate") for k in rot_or_audit),
            "ces.derive_s": per("derive", "ces.derive_s"),
            "ces.hash_evals_per_derive": hashes / authorized if authorized else 0.0,
            "poset.partition_checks_per_derive": checks / authorized if authorized else 0.0,
            "ces.audit_s": per("audit", "ces.audit_s"),
            "ces.derives_per_audit": per("audit", "ces.derive_calls"),
        }

    def write(self, path) -> None:
        """Write ops and spans as gzipped JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"fields": ["name", "start", "end", "parent", "op", "counts", "raised"],
               "ops": self.ops, "spans": self.spans}
        with gzip.open(path, "wt", encoding="utf-8") as f:
            json.dump(doc, f, separators=(",", ":"))
