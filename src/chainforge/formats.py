"""Plain-text policy and partition file formats.

Policy files have three sections, each introduced by a header token and
free to span multiple lines; ``#`` starts a comment anywhere:

    elements: a b c d        # declaration order is significant
    covers: b>a c>a d>b      # parent>child, one token per cover
    users: a=3 d=1           # omitted labels default to 0

Partition files hold one chain per line, written top-to-bottom:

    h>f>d>b
    g>e>c>a

Both formats are UTF-8 with LF line endings; diffability over
compactness.
"""

from __future__ import annotations

import sys

from .errors import ParseError
from .policy import ChainPartition, Policy
from .poset import Poset

_HEADERS = frozenset(("elements:", "covers:", "users:"))


def _tokens_by_section(text: str) -> dict[str, tuple[list[str], list[int]]]:
    """Each section's tokens, plus the line number of every token in a
    parallel list (read only to report errors)."""
    sections: dict[str, tuple[list[str], list[int]]] = {}
    current: tuple[list[str], list[int]] | None = None

    def take(tokens: list[str], lineno: int) -> None:
        if not tokens:
            return
        if current is None:
            raise ParseError(f"token {tokens[0]!r} before any section header", lineno)
        current[0].extend(tokens)
        current[1].extend([lineno] * len(tokens))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        start = 0
        if not _HEADERS.isdisjoint(parts):
            for k, tok in enumerate(parts):
                if tok in _HEADERS:
                    take(parts[start:k], lineno)
                    if tok[:-1] in sections:
                        raise ParseError(f"duplicate section {tok!r}", lineno)
                    current = sections[tok[:-1]] = ([], [])
                    start = k + 1
        take(parts[start:], lineno)
    return sections


def _long_count(num: str) -> int | None:
    """The integer that ``num`` spells when ``int(num)`` refused it for
    having more digits than Python's int/str conversion limit, else None.
    It is converted in pieces below the limit; the process-wide limit is
    left as it is."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    body = num[1:] if num[:1] in ("+", "-") else num
    digits = body.replace("_", "")
    # int()'s own syntax: '_' only between two digits
    if not limit or not digits.isdecimal() or "_" in (body[0], body[-1]) or "__" in body:
        return None
    value = 0
    for k in range(0, len(digits), limit):
        piece = digits[k : k + limit]
        value = value * 10 ** len(piece) + int(piece)
    return -value if num[0] == "-" else value


def _decimal(value: int) -> str:
    """``str(value)`` for a nonnegative count, also past Python's int/str
    conversion limit: such values are written in pieces below the limit."""
    try:
        return str(value)
    except ValueError:
        step = sys.get_int_max_str_digits()
        base, pieces = 10 ** step, []
        while value >= base:
            value, low = divmod(value, base)
            pieces.append(str(low).zfill(step))
        pieces.append(str(value))
        return "".join(reversed(pieces))


def parse_policy(text: str) -> Policy:
    """Parse a policy file; raises :class:`ParseError` with line numbers
    for malformed tokens and propagates semantic errors (unknown labels,
    cycles, redundant covers) from construction."""
    sections = _tokens_by_section(text)
    if "elements" not in sections:
        raise ParseError("missing 'elements:' section")
    elements = sections["elements"][0]
    if not elements:
        raise ParseError("'elements:' section is empty")

    tokens, lines = sections.get("covers", ((), ()))
    covers = []
    for k, tok in enumerate(tokens):
        parent, _, child = tok.partition(">")
        if not parent or not child or ">" in child:
            raise ParseError(f"cover {tok!r} must be parent>child", lines[k])
        covers.append((child, parent))

    tokens, lines = sections.get("users", ((), ()))
    counts = {}
    for k, tok in enumerate(tokens):
        label, _, num = tok.partition("=")
        try:
            value = int(num)
        except ValueError:  # also no '=' (num is empty) or a second one
            value = _long_count(num)
        if value is None:
            raise ParseError(f"user count {tok!r} must be label=count", lines[k])
        if value < 0:
            raise ParseError(f"user count {tok!r} is negative", lines[k])
        if label in counts:
            raise ParseError(f"duplicate user count for {label!r}", lines[k])
        counts[label] = value

    poset = Poset(elements, covers)
    if not counts.keys() <= poset.index.keys():
        return Policy(poset, counts)  # raises UnknownLabel for the first unknown label
    # every count is already checked, so the policy is built without a second check
    user_count = dict.fromkeys(poset.elements, 0)
    user_count.update(counts)
    return Policy._checked(poset, user_count)


def policy_text(policy: Policy) -> str:
    lines = ["elements: " + " ".join(policy.poset.elements)]
    if policy.poset.covers:
        lines.append("covers: " + " ".join(f"{p}>{c}" for c, p in policy.poset.covers))
    users = " ".join(
        f"{x}={_decimal(policy.user_count[x])}"
        for x in policy.poset.elements
        if policy.user_count[x]
    )
    if users:
        lines.append("users: " + users)
    return "\n".join(lines) + "\n"


def parse_partition(text: str, poset: Poset) -> ChainPartition:
    """Parse a partition file against a poset.

    Chains must be written top-to-bottom; a misordered chain is a parse
    error rather than being silently reordered.
    """
    blocks: list[tuple[tuple[str, ...], int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        chain = tuple(line.split(">"))
        if not any(chain):
            raise ParseError("empty chain", lineno)
        if not all(chain):
            raise ParseError("empty label in chain", lineno)
        blocks.append((chain, lineno))
    if not blocks:
        raise ParseError("partition file has no chains")
    pi = ChainPartition.from_blocks(poset, [c for c, _ in blocks])
    for (given, lineno), sorted_chain in zip(blocks, pi.chains):
        if given != sorted_chain:
            raise ParseError("chain is not written top-to-bottom", lineno)
    return pi


def partition_text(pi: ChainPartition) -> str:
    return "\n".join(">".join(chain) for chain in pi.chains) + "\n"
