"""Cyclic locally repairable codes from structured zero sets.

Build optimal cyclic codes whose defining sets are products of an anchor set
and a consecutive run, certify their dimension, minimum distance, locality
and Singleton-like optimality, and re-verify every claim with independent
brute-force oracles at desk scale.

The package exports the names of README's library example; everything else
is imported from its module (`cyclrc.cyclic`, `cyclrc.bounds`, ...).
"""

from .constructions import ConstructionRequest, build
from .cyclic import code_from_defining_set, cyc_context, min_distance, product_set
from .locality import locality_from_product

__version__ = "0.1.0"

__all__ = [
    "ConstructionRequest",
    "build",
    "code_from_defining_set",
    "cyc_context",
    "locality_from_product",
    "min_distance",
    "product_set",
]
