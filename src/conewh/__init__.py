"""conewh: exact polyhedral cone calculus, order-compactification strata,
convex gauge analysis, and discretized Wiener-Hopf operator experiments."""

__version__ = "0.1.0"

from .cones import (
    Face,
    FaceLattice,
    PolyhedralCone,
    cone_from_generators,
    cone_from_inequalities,
    dual_cone,
    dual_face,
    exposed_face,
    face_lattice,
    is_pointed,
    is_solid,
    project_cone,
    relative_dual,
)
from .convex import (
    BallBody,
    HPolytopeBody,
    PolyhedralConeBody,
    gauge,
    gauge_directional,
    gauge_gradient,
    gauge_gradient_projection_form,
    metric_project,
    normal_cone,
    support,
)
from .limits import SampledSet, hausdorff_distance, pk_converged
from .strata import (
    IncidencePairs,
    OrderPoint,
    SigmaBundle,
    Strata,
    incidence_pairs,
    order_point,
    order_point_hrep,
    ray_limit,
    recover_face_point,
    sigma_bundle,
    solvable_length,
    spectrum_poset,
    strata,
)
from .trivialization import (
    Trivialization,
    build_trivialization,
    lipschitz_bound,
    triv_apply,
    triv_det,
    triv_det_formula,
)
from .wiener_hopf import (
    FredholmReport,
    SymbolGrid,
    WHMatrix,
    classical_index,
    face_symbol,
    face_symbol_twisted,
    hierarchy_fredholm,
    make_symbol,
    numerical_index,
    symbol_curve,
    wh_matrix,
    winding_number,
)
