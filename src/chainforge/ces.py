"""Chain-based cryptographic enforcement over a chain partition.

Setup walks every chain top-down: the top label of each chain gets a
fresh random secret, every other label's secret is the one-way image of
its chain parent's secret, and each label's encryption key is a second,
domain-separated one-way image of its own secret. A user class receives
exactly the secrets of its bundle labels and can re-walk the public chain
structure to reach any key at or below its own label; no public helper
data is ever produced.

The two one-way functions are a cryptographic hash with one-byte domain
separation prefixes:

    F(s) = hash(0x01 || s)     secret -> child secret
    H(s) = hash(0x02 || s)     secret -> encryption key

Entropy is always injected by the caller, never read ambiently, so key
generation is reproducible under test. CPython cannot reliably zero
immutable byte strings, so secrets are not wiped in place; exporting them
requires an explicit unsafe flag instead.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

from .errors import EntropyFailure, NotAuthorized, ParseError
from .policy import ChainPartition, Policy, _require_partition, bundle_labels

_F_PREFIX = b"\x01"
_H_PREFIX = b"\x02"


@dataclass(frozen=True)
class SchemeParams:
    """Security parameter (bits) and the hash behind both one-way functions."""

    security_bits: int = 256
    hash_name: str = "sha256"

    def __post_init__(self):
        if self.security_bits not in (128, 256, 512):
            raise ValueError("security_bits must be 128, 256 or 512")
        if hashlib.new(self.hash_name).digest_size < self.secret_size:
            raise ValueError(
                f"{self.hash_name} is too short for {self.security_bits}-bit secrets"
            )

    @property
    def secret_size(self) -> int:
        return self.security_bits // 8

    def apply_f(self, secret: bytes) -> bytes:
        return hashlib.new(self.hash_name, _F_PREFIX + secret).digest()[: self.secret_size]

    def apply_h(self, secret: bytes) -> bytes:
        return hashlib.new(self.hash_name, _H_PREFIX + secret).digest()[: self.secret_size]


EntropySource = Callable[[int], bytes]


def seeded_entropy(seed: bytes) -> EntropySource:
    """A deterministic entropy stream for tests and reproducible setups.

    Blocks are sha256(seed || counter); consecutive draws continue the
    stream.
    """
    state = {"counter": 0, "buffer": b""}

    def draw(n: int) -> bytes:
        while len(state["buffer"]) < n:
            block = hashlib.sha256(seed + state["counter"].to_bytes(8, "big")).digest()
            state["buffer"] += block
            state["counter"] += 1
        out, state["buffer"] = state["buffer"][:n], state["buffer"][n:]
        return out

    return draw


@dataclass(frozen=True)
class KeyMaterial:
    """All per-label secrets and keys for one partition, plus the (empty)
    public information. Immutable after setup."""

    secrets: dict[str, bytes]
    keys: dict[str, bytes]
    partition: ChainPartition
    params: SchemeParams
    public_info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class UserBundle:
    """The secrets issued to one user class: exactly its bundle labels."""

    label: str
    secrets: dict[str, bytes]


def setup(
    policy: Policy,
    pi: ChainPartition,
    params: SchemeParams,
    entropy: EntropySource,
) -> KeyMaterial:
    """Generate all secrets and keys for the partition.

    One fresh random secret per chain top; everything else is derived by
    chain walks with F, and keys by H.
    """
    _require_partition(policy, pi)
    secrets: dict[str, bytes] = {}
    for chain in pi.chains:
        top = entropy(params.secret_size)
        if not isinstance(top, bytes) or len(top) != params.secret_size:
            raise EntropyFailure(
                f"entropy source returned {len(top) if isinstance(top, bytes) else type(top)} "
                f"instead of {params.secret_size} bytes"
            )
        secrets[chain[0]] = top
        for upper, lower in zip(chain, chain[1:]):
            secrets[lower] = params.apply_f(secrets[upper])
    keys = {x: params.apply_h(secrets[x]) for x in policy.poset.elements}
    return KeyMaterial(secrets=secrets, keys=keys, partition=pi, params=params)


def issue_bundle(material: KeyMaterial, policy: Policy, x: str) -> UserBundle:
    """The secrets for user class ``x``: one per chain reaching below it."""
    labels = bundle_labels(policy, x, material.partition)
    return UserBundle(label=x, secrets={z: material.secrets[z] for z in labels})


def derive(
    policy: Policy,
    pi: ChainPartition,
    bundle: UserBundle,
    y: str,
    params: SchemeParams = SchemeParams(),
) -> bytes:
    """Derive the key for ``y`` from a user bundle.

    Authorized iff ``y`` is at or below the bundle's label. Walks down
    y's chain from the bundle secret covering it, applying F once per
    step, then applies H. The chain structure is public input; only the
    sigma values are secret. A wrong-length bundle secret is a ParseError,
    and a secret for a label outside the poset is an UnknownLabel.
    """
    p = policy.poset
    p._i(y)
    p._i(bundle.label)
    for z, secret in bundle.secrets.items():
        p._i(z)
        if len(secret) != params.secret_size:
            raise ParseError(f"bundle secret for {z!r} is {len(secret)} bytes, "
                             f"expected {params.secret_size} bytes")
    if not p.leq(y, bundle.label):
        raise NotAuthorized(f"{y!r} is not at or below {bundle.label!r}")
    _require_partition(policy, pi)

    chain = next(c for c in pi.chains if y in c)
    # the checked chain is top-first: the first bundle label up to y covers y
    pos = chain.index(y)
    start = next((i for i in range(pos + 1) if chain[i] in bundle.secrets), None)
    if start is None:
        raise NotAuthorized(f"bundle for {bundle.label!r} holds no secret covering {y!r}")

    secret = bundle.secrets[chain[start]]
    for _ in range(pos - start):
        secret = params.apply_f(secret)
    return params.apply_h(secret)


def correctness_audit(policy: Policy, pi: ChainPartition, material: KeyMaterial) -> bool:
    """Exhaustive pairwise check of the enforcement guarantee.

    For every ordered pair (x, y): derivation from x's bundle must yield
    exactly the stored key of y when y <= x, and must be refused
    otherwise.
    """
    p = policy.poset
    for x in p.elements:
        try:
            bundle = issue_bundle(material, policy, x)
        except Exception:
            return False
        for y in p.elements:
            try:
                key = derive(policy, pi, bundle, y, material.params)
            except NotAuthorized:
                key = None  # the right answer iff y is not below x
            except Exception:
                return False
            if key != (material.keys[y] if p.leq(y, x) else None):
                return False
    return True


def export_material(material: KeyMaterial, include_secrets: bool = False) -> str:
    """Serialize keys (and, only on explicit request, secrets) as lines of
    "label kind hex". Labels follow the partition's chain order."""
    lines = []
    for chain in material.partition.chains:
        for x in chain:
            lines.append(f"{x} key {material.keys[x].hex()}")
    if include_secrets:
        for chain in material.partition.chains:
            for x in chain:
                lines.append(f"{x} secret {material.secrets[x].hex()}")
    return "\n".join(lines) + "\n"


def bundle_to_text(bundle: UserBundle) -> str:
    lines = [f"bundle {bundle.label}"]
    for z in sorted(bundle.secrets):
        lines.append(f"{z} secret {bundle.secrets[z].hex()}")
    return "\n".join(lines) + "\n"


def bundle_from_text(text: str) -> UserBundle:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("bundle "):
        raise ValueError("bundle file must start with a 'bundle <label>' line")
    label = lines[0].split(maxsplit=1)[1].strip()
    secrets: dict[str, bytes] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3 or parts[1] != "secret":
            raise ValueError(f"bad bundle line: {ln!r}")
        if parts[0] in secrets:
            raise ValueError(f"second secret for {parts[0]!r} in bundle line: {ln!r}")
        try:
            secrets[parts[0]] = bytes.fromhex(parts[2])
        except ValueError:
            raise ValueError(f"bad hex in bundle line: {ln!r}") from None
    return UserBundle(label=label, secrets=secrets)
