"""Exact torus decompositions of classical varieties.

The library decomposes toric varieties, Grassmannians, flag varieties and
type-A Chevalley groups into split tori, derives their counting polynomials
and zeta-factor forms, computes monoid spectra of cones and fans, and
evaluates the point-set functors attached to the decompositions on finite
abelian groups and on cyclic monoids with zero.  Everything is exact integer
arithmetic, and every count is cross-checkable against an independent
finite-field formula.
"""

__version__ = "0.1.0"

from .counting import (
    CountingPolynomial,
    ZetaFunction,
    counting_polynomial,
    eval_counting,
    gaussian_binomial,
    oracle_point_count,
    q_multinomial,
    sl_group_order,
    to_delta_basis,
    to_monomial_basis,
    verify_counting,
    verify_counting_polynomial,
    zeta,
)
from .errors import (
    BoundTooSmall,
    BudgetExceeded,
    DimensionMismatch,
    InvalidChevalleyData,
    InvalidComposition,
    InvalidCone,
    InvalidFan,
    MissingCharts,
    MissingSourceCone,
    NotPointed,
    ShapeMismatch,
    TorifiedError,
    UnknownFamily,
    UnsupportedDimension,
    ValidationReport,
)
from .gadgets import (
    CyclicMonoidWithZero,
    FiniteAbelianGroup,
    GradedPointSet,
    MonoidHom,
    TorifiedMap,
    abelian_group_types,
    cc_cardinality_check,
    cc_points,
    compose_maps,
    discover_relations,
    enumerate_monoid_homs,
    hom_extend,
    hom_restrict,
    identity_map,
    induced_map,
    soule_count_by_faces,
    toric_fq_points_via_homs,
)
from .lattice import (
    Cone,
    Fan,
    dual_cone,
    faces,
    fan_from_dict,
    fan_to_dict,
    hilbert_basis,
    is_smooth,
    standard_fan,
    validate_fan,
    zero_cone,
)
from .monoids import (
    AffineMonoid,
    DScheme,
    MonoidPrime,
    dscheme_of_fan,
    monoid_of_cone,
    spec,
    unit_group,
)
from .torify import (
    ChevalleyData,
    Torification,
    Torus,
    check_atlas,
    chevalley_data_sl,
    delta_affine_space,
    delta_chevalley,
    delta_flag,
    delta_grassmannian,
    delta_projective,
    delta_sl,
    delta_torus,
    delta_vector,
    disjoint_union,
    is_regular_toric,
    permutation_length,
    product,
    schubert_cells_flag,
    schubert_cells_grassmannian,
    schubert_leq,
    torify_affine_space,
    torify_chevalley,
    torify_flag,
    torify_grassmannian,
    torify_point,
    torify_toric,
    torify_torus,
)
