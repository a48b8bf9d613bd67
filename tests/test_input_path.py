"""Differential tests of the policy input path.

``formats._tokens_by_section``, ``formats.parse_policy`` and the checks of
``Poset.__init__`` work per line and per mask. The reference functions
below are the earlier per-token and per-pair implementations, kept
verbatim (each calls the reference copies of the others). Every generated
policy text, valid or faulty, must give the same policy (elements, covers,
index, masks and user counts in order) or the same exception class,
message and line under both, so the first fault found is the same one.
"""

from __future__ import annotations

import random
import re
from collections import Counter, deque

import pytest

from chainforge import Policy, Poset
from chainforge.errors import (
    ChainforgeError,
    CycleDetected,
    DuplicateLabel,
    InvalidLabel,
    ParseError,
    RedundantCover,
    UnknownLabel,
)
from chainforge.formats import parse_policy, policy_text
from chainforge.gen import random_policy

# -- references: the input path before it worked per line and per mask ------

_RESERVED_CHARS = ">#="
_SECTION_HEADERS = ("elements:", "covers:", "users:")
_SECTIONS = ("elements", "covers", "users")


def ref_check_label(label: str) -> None:
    if not isinstance(label, str) or not label or any(c.isspace() for c in label):
        raise InvalidLabel(f"bad label {label!r}: must be nonempty with no whitespace")
    if any(c in _RESERVED_CHARS for c in label) or label in _SECTION_HEADERS:
        raise InvalidLabel(
            f"bad label {label!r}: '>', '#', '=' and section headers cannot be "
            "written to a policy file"
        )


def ref_poset_init(self, elements, covers=()):
    elements = tuple(elements)
    for lab in elements:
        ref_check_label(lab)
    index: dict[str, int] = {}
    for i, lab in enumerate(elements):
        if lab in index:
            raise DuplicateLabel(f"label {lab!r} declared twice")
        index[lab] = i

    covers = tuple(covers)
    parents: list[list[int]] = [[] for _ in elements]  # child -> parents
    children: list[list[int]] = [[] for _ in elements]
    seen_arcs: set[tuple[int, int]] = set()
    for child, parent in covers:
        for lab in (child, parent):
            if lab not in index:
                raise UnknownLabel(f"cover endpoint {lab!r} is not a declared element")
        ic, ip = index[child], index[parent]
        if ic == ip:
            raise CycleDetected(child)
        if (ic, ip) in seen_arcs:
            raise RedundantCover(f"cover {child!r} < {parent!r} declared twice")
        seen_arcs.add((ic, ip))
        parents[ic].append(ip)
        children[ip].append(ic)

    self.elements = elements
    self.covers = covers
    self.index = index
    self._down, self._up = ref_closure(self, parents, children)
    ref_reject_redundant_covers(self)


def ref_closure(self, parents, children):
    n = len(self.elements)
    indeg = [len(children[i]) for i in range(n)]
    queue = deque(i for i in range(n) if indeg[i] == 0)
    down = [0] * n
    order = []
    while queue:
        i = queue.popleft()
        order.append(i)
        mask = 1 << i
        for c in children[i]:
            mask |= down[c]
        down[i] = mask
        for p in parents[i]:
            indeg[p] -= 1
            if indeg[p] == 0:
                queue.append(p)
    if len(order) != n:
        # walk backwards through unresolved nodes until one repeats
        left = {i for i in range(n) if indeg[i] > 0}
        node = next(iter(left))
        trail = set()
        while node not in trail:
            trail.add(node)
            node = next(c for c in children[node] if c in left)
        raise CycleDetected(self.elements[node])
    up = [0] * n
    for i in reversed(order):
        mask = 1 << i
        for p in parents[i]:
            mask |= up[p]
        up[i] = mask
    return down, up


def ref_reject_redundant_covers(self):
    for child, parent in self.covers:
        ic, ip = self.index[child], self.index[parent]
        between = self._up[ic] & self._down[ip] & ~(1 << ic) & ~(1 << ip)
        if between:
            raise RedundantCover(
                f"cover {child!r} < {parent!r} is implied transitively"
            )


def ref_poset(elements, covers=()):
    p = Poset.__new__(Poset)
    ref_poset_init(p, elements, covers)
    return p


def ref_tokens_by_section(text):
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        for tok in parts:
            if tok.endswith(":") and tok[:-1] in _SECTIONS:
                current = tok[:-1]
                if current in sections:
                    raise ParseError(f"duplicate section {tok!r}", lineno)
                sections[current] = []
            elif current is None:
                raise ParseError(f"token {tok!r} before any section header", lineno)
            else:
                sections[current].append((tok, lineno))
    return sections


def ref_parse_policy(text):
    sections = ref_tokens_by_section(text)
    if "elements" not in sections:
        raise ParseError("missing 'elements:' section")
    elements = [tok for tok, _ in sections["elements"]]
    if not elements:
        raise ParseError("'elements:' section is empty")

    covers = []
    for tok, lineno in sections.get("covers", []):
        if tok.count(">") != 1:
            raise ParseError(f"cover {tok!r} must be parent>child", lineno)
        parent, child = tok.split(">")
        if not parent or not child:
            raise ParseError(f"cover {tok!r} must be parent>child", lineno)
        covers.append((child, parent))

    counts = {}
    for tok, lineno in sections.get("users", []):
        if tok.count("=") != 1:
            raise ParseError(f"user count {tok!r} must be label=count", lineno)
        label, num = tok.split("=")
        try:
            value = int(num)
        except ValueError:
            raise ParseError(f"user count {tok!r} must be label=count", lineno) from None
        if value < 0:
            raise ParseError(f"user count {tok!r} is negative", lineno)
        if label in counts:
            raise ParseError(f"duplicate user count for {label!r}", lineno)
        counts[label] = value

    return Policy(ref_poset(elements, covers), counts)


# -- outcomes --------------------------------------------------------------


def poset_outcome(build, *args):
    try:
        p = build(*args)
    except ChainforgeError as e:
        return type(e), str(e), getattr(e, "line", None)
    return p.elements, p.covers, p.index, p._up, p._down


def policy_outcome(parse, text):
    try:
        policy = parse(text)
    except ChainforgeError as e:
        return type(e), str(e), e.line if isinstance(e, ParseError) else None
    p = policy.poset
    return p.elements, p.covers, p.index, p._up, p._down, list(policy.user_count.items())


def verdict(outcome) -> str:
    """The kind of an outcome: 'ok', or the error class and its message
    with the quoted labels and tokens cut out."""
    if not isinstance(outcome[0], type):
        return "ok"
    message = re.sub(r"^line \d+: ", "", outcome[1])
    return f"{outcome[0].__name__}: " + re.sub(r"'[^']*'", "_", message)


# -- seeded mutations of policy texts ----------------------------------------

BAD_LABELS = ("a>b", "x=1", ">", "=", "p>", "=q", "x>y>z")
BAD_COVERS = ("x0", "x0>", ">x0", "x0>x1>x2", ">", ">>")
BAD_COUNTS = ("x0", "x0=", "x0=lots", "x0=1=2", "x0=1.5", "=", "x0==3")


def lines_of(policy: Policy) -> list[list[str]]:
    return [line.split() for line in policy_text(policy).splitlines()]


def comparable_pairs(poset: Poset, strict_cover: bool) -> list[tuple[str, str]]:
    """(lower, upper) pairs that are covers, or comparable non-covers."""
    covers = set(poset.covers)
    pairs = [(y, x) for x in poset.elements for y in poset.down_set(x) if y != x]
    return [pr for pr in pairs if (pr in covers) == strict_cover]


# the mutations below by number, the rarer outcomes more often
KINDS = (0, 1, 2, 2, 3, 4, 5, 5, 6, 7, 8, 9, 9, 9, 10, 11, 12, 13, 14, 15, 16)


def after_first(rng: random.Random, line: list[str]) -> int:
    """A place in a line, after its first token if it has one."""
    return rng.randint(min(1, len(line)), len(line))


def mutate(rng: random.Random, policy: Policy) -> str:
    """A policy text with one to three seeded faults or legal variations."""
    p = policy.poset
    lines = lines_of(policy)
    labels = list(p.elements)
    sections = {line[0]: line for line in lines}

    def into(header: str) -> list[str]:
        """The line of a section (added if missing), now and then any line."""
        if rng.random() < 0.15:
            return rng.choice(lines)
        if header not in sections:
            sections[header] = [header]
            lines.append(sections[header])
        return sections[header]

    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(KINDS)
        line = rng.choice(lines)
        if kind == 0:  # a token before any header, or before a header mid-line
            lines[0].insert(0, rng.choice(labels + ["zz"]))
        elif kind == 1:  # a duplicate header, often mid-line
            line.insert(after_first(rng, line), rng.choice(_SECTION_HEADERS))
        elif kind == 2:  # an empty section, or one missing
            if rng.random() < 0.5 or len(lines) == 1:
                line[1:] = []
            else:
                lines.remove(line)
        elif kind == 3:  # a reserved label
            line = into("elements:")
            line.insert(after_first(rng, line), rng.choice(BAD_LABELS))
        elif kind == 4:  # a duplicate label
            into("elements:").append(rng.choice(labels))
        elif kind == 5:  # an unknown label in a cover or a count
            x = rng.choice(labels)
            if rng.random() < 0.5:
                into("covers:").append(rng.choice((f"zz>{x}", f"{x}>zz", "zz>yy")))
            else:
                into("users:").append("zz=1")
        elif kind == 6:  # a self cover
            x = rng.choice(labels)
            into("covers:").append(f"{x}>{x}")
        elif kind in (7, 8):  # a duplicate cover, or one reversed into a cycle
            pairs = comparable_pairs(p, strict_cover=True)
            if pairs:
                lo, hi = rng.choice(pairs)
                into("covers:").append(f"{hi}>{lo}" if kind == 7 else f"{lo}>{hi}")
        elif kind == 9:  # a redundant cover, or a longer cycle
            pairs = comparable_pairs(p, strict_cover=False)
            if pairs:
                lo, hi = rng.choice(pairs)
                into("covers:").append(f"{hi}>{lo}" if rng.random() < 0.75 else f"{lo}>{hi}")
        elif kind == 10:
            into("covers:").append(rng.choice(BAD_COVERS))
        elif kind == 11:
            into("users:").append(rng.choice(BAD_COUNTS))
        elif kind == 12:  # a negative count
            into("users:").append(f"{rng.choice(labels)}=-{rng.randint(0, 3)}")
        elif kind == 13:  # a duplicate count
            x = rng.choice(labels)
            into("users:").extend([f"{x}={rng.randint(0, 9)}", f"{x}={rng.randint(0, 9)}"])
        elif kind == 14:  # a legal count of another spelling
            into("users:").append(f"{rng.choice(labels)}={rng.choice(('+4', '0_1', '007'))}")
        elif kind == 15:  # a line broken in two
            k = rng.randint(0, len(line))
            lines.insert(lines.index(line) + 1, line[k:])
            line[k:] = []
        else:  # sections in another order
            rng.shuffle(lines)
    out = []
    for line in lines:
        out.append(" ".join(line) + rng.choice(("", "", "  # note", " #")))
        if rng.random() < 0.2:
            out.append(rng.choice(("", "   ", "# comment")))
    return "\n".join(out) + "\n"


def mutated_texts(count: int, seed: int):
    rng = random.Random(seed)
    for i in range(count):
        policy = random_policy(rng.randint(1, 9), rng.choice((0.1, 0.3, 0.6)), seed * 100_000 + i)
        yield mutate(rng, policy)


# every verdict the mutations can reach: each must be hit at least 50 times
VERDICTS = {
    "ok",
    "ParseError: token _ before any section header",
    "ParseError: duplicate section _",
    "ParseError: missing _ section",
    "ParseError: _ section is empty",
    "ParseError: cover _ must be parent>child",
    "ParseError: user count _ must be label=count",
    "ParseError: user count _ is negative",
    "ParseError: duplicate user count for _",
    "InvalidLabel: bad label _: _, _, _ and section headers cannot be written to a policy file",
    "DuplicateLabel: label _ declared twice",
    "UnknownLabel: cover endpoint _ is not a declared element",
    "UnknownLabel: user count for unknown label _",
    "CycleDetected: cycle detected involving element _",
    "RedundantCover: cover _ < _ declared twice",
    "RedundantCover: cover _ < _ is implied transitively",
}


class TestParseDifferential:
    def test_mutated_policy_texts(self):
        seen: Counter = Counter()
        for text in mutated_texts(4000, seed=2001):
            want = policy_outcome(ref_parse_policy, text)
            assert policy_outcome(parse_policy, text) == want, text
            seen[verdict(want)] += 1
        assert set(seen) == VERDICTS
        assert min(seen.values()) >= 50, sorted(seen.items(), key=lambda kv: kv[1])

    def test_round_trips_of_random_policies(self):
        for i in range(200):
            text = policy_text(random_policy(1 + i % 40, (0.05, 0.2, 0.5)[i % 3], i))
            assert policy_outcome(parse_policy, text) == policy_outcome(ref_parse_policy, text)


class TestPosetDifferential:
    """Inputs a policy file cannot spell: whitespace, empty and non-string
    labels, and covers given in any order."""

    ODD = ("", " ", "a b", "\t", "x\n", " y", 3, None, b"x", "users:", "covers:x", "é")

    def test_labels(self):
        rng = random.Random(7)
        for _ in range(1000):
            labels = [f"x{i}" for i in range(rng.randint(0, 5))]
            for _ in range(rng.randint(0, 2)):
                labels.insert(rng.randint(0, len(labels)), rng.choice(self.ODD + tuple(labels or "a")))
            assert poset_outcome(Poset, labels) == poset_outcome(ref_poset, labels), labels

    @pytest.mark.parametrize("seed", range(3))
    def test_covers(self, seed):
        rng = random.Random(seed)
        for _ in range(400):
            policy = random_policy(rng.randint(1, 12), rng.choice((0.1, 0.3, 0.6)), rng.randrange(10**6))
            labels = list(policy.poset.elements)
            covers = list(policy.poset.covers)
            extra = [(rng.choice(labels + ["zz"]), rng.choice(labels + ["yy"]))
                     for _ in range(rng.randint(0, 2))]
            covers += extra
            rng.shuffle(covers)
            rng.shuffle(labels)
            assert poset_outcome(Poset, labels, covers) == poset_outcome(ref_poset, labels, covers)


class TestRedundantCovers:
    """``Poset.__init__`` finds implied covers in its closure's down pass,
    bottom-up, and then reports the first one in declaration order of the
    covers, as the reference does."""

    @staticmethod
    def chain(*labels):
        """The covers of a chain, its labels listed bottom-up."""
        return [(lo, hi) for lo, hi in zip(labels, labels[1:])]

    def check(self, elements, covers, error, message):
        outcome = poset_outcome(Poset, elements, covers)
        assert outcome == poset_outcome(ref_poset, elements, covers)
        assert outcome[:2] == (error, message)

    def test_first_declared_is_reported_when_found_later(self):
        # the closure reaches c, and a < c, before d and b < d; b < d is
        # declared first
        covers = [("b", "d"), ("a", "c")] + self.chain("a", "b", "c", "d")
        self.check("abcd", covers, RedundantCover, "cover 'b' < 'd' is implied transitively")
        covers = [("a", "c"), ("b", "d")] + self.chain("a", "b", "c", "d")
        self.check("abcd", covers, RedundantCover, "cover 'a' < 'c' is implied transitively")

    def test_first_declared_in_another_component(self):
        # the pass runs p, a, q, b, r, c: it meets p < r before a < c
        covers = [("a", "c")] + self.chain("a", "b", "c") + self.chain("p", "q", "r") + [("p", "r")]
        self.check("pqrabc", covers, RedundantCover, "cover 'a' < 'c' is implied transitively")

    @pytest.mark.parametrize("steps", (3, 4, 7))
    def test_implied_only_through_a_long_path(self, steps):
        labels = [f"x{i}" for i in range(steps + 1)]
        # one cover x0 < x(steps), with no shorter path between its ends
        covers = self.chain(*labels) + [(labels[0], labels[-1])]
        self.check(labels, covers, RedundantCover,
                   f"cover 'x0' < {labels[-1]!r} is implied transitively")
        # the long path under another cover child of the top
        covers = [(labels[0], labels[-1])] + self.chain(*labels[:-1]) + [("y", labels[-1]), (labels[-2], "y")]
        self.check(labels + ["y"], covers, RedundantCover,
                   f"cover 'x0' < {labels[-1]!r} is implied transitively")

    def test_cycle_wins_over_an_implied_cover(self):
        # the down pass meets the implied cover a < c before it stalls on x, y
        covers = self.chain("a", "b", "c") + [("a", "c"), ("x", "y"), ("y", "x")]
        outcome = poset_outcome(Poset, "abcxy", covers)
        assert outcome == poset_outcome(ref_poset, "abcxy", covers)
        assert outcome[0] is CycleDetected
        # an implied cover inside the cycle's own labels
        covers = self.chain("a", "b", "c", "d") + [("a", "c"), ("d", "a")]
        outcome = poset_outcome(Poset, "abcd", covers)
        assert outcome == poset_outcome(ref_poset, "abcd", covers)
        assert outcome[0] is CycleDetected

    def test_implied_cover_next_to_a_cycle_below_it(self):
        # a cycle among labels below the implied cover's top: the pass never
        # reaches that top
        covers = [("x", "y"), ("y", "x"), ("y", "a")] + self.chain("a", "b", "c") + [("a", "c")]
        outcome = poset_outcome(Poset, "abcxy", covers)
        assert outcome == poset_outcome(ref_poset, "abcxy", covers)
        assert outcome[0] is CycleDetected

    def test_no_implied_cover_with_shared_descendants(self):
        # tops with two cover children that share a down-set, none implied
        covers = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("b", "e"), ("c", "e")]
        assert poset_outcome(Poset, "abcde", covers) == poset_outcome(ref_poset, "abcde", covers)
        assert Poset("abcde", covers).down_set("d") == ("a", "b", "c", "d")
