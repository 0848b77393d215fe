"""Finite 2-dimensional symmetric monoidal algebra and its K-theory.

The package provides, at desk scale: finite 2-categories, tabulated or
composed by formula, with exhaustive axiom validation; permutative
2-categories and permutative Gray-monoids in cubical form; truncated
diagrams on pointed finite sets with Segal diagnostics; level-by-level
K-theory of both permutative flavors; the block-tuple indexing category
and the lazily evaluated Grothendieck construction inverse to K-theory;
and the unit/counit pair with machine-checked triangle identities and
the span rectification of lax maps.
"""

from .twocat import (
    FiniteTwoCategory,
    PathObject,
    Transformation2,
    TwoFunctor,
    ValidationReport,
    internal_equivalence_classes,
    path_object,
    pi0,
    two_equivalence_check,
    validate_two_category,
    validate_two_functor,
)
from .monoidal import (
    MonoidalFunctor,
    PermutativeGrayMonoid,
    PermutativeTwoCategory,
    demote,
    fixture,
    promote,
    sum_one_cells,
    validate_monoidal_functor,
    validate_permutative,
    validate_pgm,
)
from .gamma import (
    ESpan,
    GammaLaxMap,
    GammaTransformation,
    GammaTruncation,
    compose_lax,
    e_adjunction_check,
    e_construction,
    e_on_square,
    gamma_path_object,
    segal_map,
    special_check,
    validate_gamma,
    very_special_check,
)
from .ktheory import (
    SubsetSystem,
    SystemMap,
    SystemTwoCell,
    ko_gamma,
    ko_level,
    ko_map,
    ko_phi,
    kt_gamma,
    kt_level,
    kt_to_ko,
    partition_cell,
)
from .inversek import (
    AMorphism,
    BlockwiseLax,
    BoundedGroth,
    GrothPerm,
    POfLax,
    a_compose,
    a_concat,
    a_hom,
    ax_apply,
    decompose,
    validate_p_truncation,
)
from .adjunction import (
    Counit,
    eta_on_cell,
    eta_phi,
    lambda_of,
    phi_s,
    pi_s,
    pi_st,
    triangle_K,
    triangle_P,
    unit_map,
)

__version__ = "0.1.0"
