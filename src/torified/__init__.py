"""Exact torus decompositions of classical varieties.

The library decomposes toric varieties, Grassmannians, flag varieties and
type-A Chevalley groups into split tori, derives their counting polynomials
and zeta-factor forms, computes monoid spectra of cones and fans, and
evaluates the point-set functors attached to the decompositions on finite
abelian groups and on cyclic monoids with zero.  Everything is exact integer
arithmetic.

``verify_counting`` compares N(q) = sum_l delta_l (q-1)^l of a delta vector
with the family's classical formula over F_q (q-binomials, q-multinomials,
group orders), and the CLI's ``gadget`` compares |X(D)| = sum_r delta_r |D|^r
with it at q = |D| + 1.  The toric formula is not independent: it sums
(q-1)^(n - dim c) over the fan's cones c, and ``torify_toric`` lists one torus
of rank n - dim c per cone.  ``soule_count_by_faces`` and ``count_monoid_homs`` count maps
into mu_m with zero by the face formula and by the Hermite bases of the
generators orthogonal to each face.
"""

__version__ = "0.1.0"

from .counting import (
    CountingPolynomial,
    ZetaFunction,
    counting_polynomial,
    eval_counting,
    gaussian_binomial,
    oracle_point_count,
    sl_group_order,
    verify_counting,
    verify_counting_polynomial,
    zeta,
)
from .errors import (
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
    ValidationReport,
)
from .gadgets import (
    CyclicMonoidWithZero,
    FiniteAbelianGroup,
    GradedPointSet,
    MonoidHom,
    TorifiedMap,
    abelian_group_types,
    cc_points,
    enumerate_monoid_homs,
    hom_extend,
    hom_restrict,
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
    hilbert_basis,
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
    is_regular_toric,
    product,
    schubert_cells_flag,
    schubert_cells_grassmannian,
    torify_affine_space,
    torify_chevalley,
    torify_flag,
    torify_grassmannian,
    torify_point,
    torify_toric,
    torify_torus,
)
