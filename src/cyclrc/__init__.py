"""Cyclic locally repairable codes from structured zero sets.

Build optimal cyclic codes whose defining sets are products of an anchor set
and a consecutive run, certify their dimension, minimum distance, locality
and Singleton-like optimality, and re-verify every claim with independent
brute-force oracles at desk scale.
"""

from .bounds import (
    BchWitness,
    BettiSalaWitness,
    bch_lower,
    betti_sala_lower,
    exact_dual_distance,
    singleton_like,
)
from .constructions import (
    BuildResult,
    ConstructionRequest,
    HypothesisViolated,
    build,
    validate,
)
from .cyclic import (
    CycContext,
    CyclicCode,
    DistanceResult,
    ExponentSet,
    code_from_defining_set,
    cyc_context,
    cyclotomic_coset,
    has_weight_at_most,
    is_q_closed,
    min_distance,
    min_weight_word,
    product_set,
)
from .field import (
    FieldSpec,
    field_create,
    is_in_subfield,
    ord_mod,
    primitive_nth_root,
)
from .locality import (
    check_delta_independence,
    locality_from_product,
    verify_locality_exhaustive,
)
from .poly import Polynomial, product_from_roots, reciprocal

__version__ = "0.1.0"

__all__ = [
    "BchWitness",
    "BettiSalaWitness",
    "BuildResult",
    "ConstructionRequest",
    "CycContext",
    "CyclicCode",
    "DistanceResult",
    "ExponentSet",
    "FieldSpec",
    "HypothesisViolated",
    "Polynomial",
    "bch_lower",
    "betti_sala_lower",
    "build",
    "check_delta_independence",
    "code_from_defining_set",
    "cyc_context",
    "cyclotomic_coset",
    "exact_dual_distance",
    "field_create",
    "has_weight_at_most",
    "is_in_subfield",
    "is_q_closed",
    "locality_from_product",
    "min_distance",
    "min_weight_word",
    "ord_mod",
    "primitive_nth_root",
    "product_from_roots",
    "product_set",
    "reciprocal",
    "singleton_like",
    "validate",
    "verify_locality_exhaustive",
]
