"""Piecewise-linear circuit verification, integer simplicial homology,
limit sets of compactified maps, and pseudocycle certificates."""

from .circuits import (
    BordismData,
    CircuitVerdict,
    RelativeCircuitData,
    SingularSet,
    boundary_circuit,
    cylinder,
    glue,
    singular_set,
    skeleton_complement_inclusions,
    subdivision_bordism,
    verify_circuit,
    verify_manifold_complement,
    verify_nullbordism,
)
from .complexes import (
    OpenSimplexSet,
    Simplex,
    SimplicialComplex,
    SimplicialMap,
    barycentric_subdivision,
    build_complex,
    join_decompose,
    link,
    product_complex,
    star,
    subdivision_prism,
)
from .homology import (
    Coordinates,
    HomologyResult,
    IntChain,
    OrientationAssignment,
    chain_boundary,
    evaluate,
    fundamental_class,
    homology,
    induced_boundary_orientation,
    orient_circuit,
    pushforward,
)
from .limits import (
    CompactifiedMap,
    LimitSetResult,
    PuncturedComplex,
    compose,
    is_proper,
    limit_set,
    preimage_restrict,
    product,
    restrict_closed,
)
from .obstructions import ObstructionReport, cw_dimension_bound, dual_complex
from .pipeline import (
    BordismCertificate,
    PseudocycleCertificate,
    TargetPair,
    bordism_invariance_check,
    psi,
    verify_bordism_certificate,
)
from .recognition import (
    PointClass,
    RegionVerdict,
    classify_point,
    region_is_pl_manifold,
)

__version__ = "0.1.0"
