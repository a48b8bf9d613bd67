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

from .errors import ParseError
from .policy import ChainPartition, Policy
from .poset import Poset

_SECTIONS = ("elements", "covers", "users")


def _tokens_by_section(text: str) -> dict[str, list[tuple[str, int]]]:
    sections: dict[str, list[tuple[str, int]]] = {}
    current: str | None = None
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


def parse_policy(text: str) -> Policy:
    """Parse a policy file; raises :class:`ParseError` with line numbers
    for malformed tokens and propagates semantic errors (unknown labels,
    cycles, redundant covers) from construction."""
    sections = _tokens_by_section(text)
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

    return Policy(Poset(elements, covers), counts)


def policy_text(policy: Policy) -> str:
    lines = ["elements: " + " ".join(policy.poset.elements)]
    if policy.poset.covers:
        lines.append("covers: " + " ".join(f"{p}>{c}" for c, p in policy.poset.covers))
    users = " ".join(
        f"{x}={policy.user_count[x]}" for x in policy.poset.elements if policy.user_count[x]
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
