"""Chain partition optimization and chain-based cryptographic enforcement
for information flow policies.

The flow-network oracle lives in :mod:`chainforge.flow` (and its decoder,
``partition_from_flow``, in :mod:`chainforge.optimize`); the brute-force
oracle in :mod:`chainforge.brute`."""

from .ces import (
    KeyMaterial,
    SchemeParams,
    UserBundle,
    correctness_audit,
    derive,
    export_material,
    issue_bundle,
    seeded_entropy,
    setup,
)
from .errors import ChainforgeError
from .gen import random_chain_partition, random_policy
from .optimize import OptimizationResult, optimal_partition, verify_result
from .policy import (
    ChainPartition,
    DerivationTree,
    Policy,
    augment_with_maximum,
    bundle_labels,
    derivation_tree,
    issued_secrets,
    issued_secrets_via_bottoms,
    issued_secrets_via_tree,
    link_cost,
    max_bundle_size,
    secret_holders,
    total_secrets,
)
from .poset import Poset, build_poset, ensure_maximum

__version__ = "0.1.0"

__all__ = [
    "ChainforgeError",
    "ChainPartition",
    "DerivationTree",
    "KeyMaterial",
    "OptimizationResult",
    "Policy",
    "Poset",
    "SchemeParams",
    "UserBundle",
    "augment_with_maximum",
    "build_poset",
    "bundle_labels",
    "correctness_audit",
    "derivation_tree",
    "derive",
    "ensure_maximum",
    "export_material",
    "issue_bundle",
    "issued_secrets",
    "issued_secrets_via_bottoms",
    "issued_secrets_via_tree",
    "link_cost",
    "max_bundle_size",
    "optimal_partition",
    "random_chain_partition",
    "random_policy",
    "secret_holders",
    "seeded_entropy",
    "setup",
    "total_secrets",
    "verify_result",
]
