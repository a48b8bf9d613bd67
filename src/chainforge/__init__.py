"""Chain partition optimization and chain-based cryptographic enforcement
for information flow policies.

The root exports the README workflow and the types it returns or raises.
The metrics come from :mod:`chainforge.policy`, the seeded generators from
:mod:`chainforge.gen`, the flow-network oracle from :mod:`chainforge.flow`
(its decoder ``partition_from_flow`` from :mod:`chainforge.optimize`) and
the brute-force oracle from :mod:`chainforge.brute`."""

from .ces import (
    KeyMaterial,
    SchemeParams,
    UserBundle,
    derive,
    issue_bundle,
    seeded_entropy,
    setup,
)
from .errors import ChainforgeError
from .optimize import OptimizationResult, optimal_partition, verify_result
from .policy import ChainPartition, Policy
from .poset import Poset

__version__ = "0.1.0"

__all__ = [
    # the README library example
    "Poset", "Policy", "optimal_partition", "verify_result",
    "SchemeParams", "setup", "issue_bundle", "derive", "seeded_entropy",
    # the types it returns or raises
    "ChainforgeError", "ChainPartition", "KeyMaterial", "OptimizationResult",
    "UserBundle",
]
