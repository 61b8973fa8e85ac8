"""Growth graphs of random Littelmann paths, central measures and weight polytopes.

Exact desk-scale machinery for simple Lie algebras of small rank: root data,
Weyl characters, the Littelmann path crystal B(delta), the weight polytope
K(delta) with its dominant faces, the extremal central measures on the free
and chamber growth graphs, the drift map and its numerical inverse, and
simulation utilities (law of large numbers, Pitman equality in law).
"""

from .errors import (
    WeylWalksError,
    UnsupportedType,
    DimensionCap,
    LevelCap,
    EnumerationCap,
    InvalidWeight,
    OrderViolation,
    NotAdmissible,
    NotInPolytope,
    NotDominantDrift,
    NotAWeight,
    NoConvergence,
)
from .rootdata import (
    CartanDatum,
    WeylElement,
    build_root_system,
    cartan_type,
    dominant_representative,
    minimal_coset_rep,
    weight,
    wadd,
    wsub,
    wscale,
    wzero,
)
from .chars import (
    WeightMultiset,
    weight_multiplicities,
    weyl_dim,
    evaluate_S,
    tensor_decompose,
    exterior_power_char,
    total_positivity_min_minor,
)
from .paths import (
    PLPath,
    CrystalB,
    GrowthGraph,
    straight_path,
    concat,
    root_operator,
    generate_crystal,
    in_chamber,
    build_growth_graph,
    count_paths,
    pitman_transform,
    pitman_chain,
    highest_weight_witness,
)
from .polytope import (
    AdmissibleSet,
    DominantFace,
    LocateResult,
    admissible_subsets,
    is_admissible,
    dominant_faces,
    locate,
    in_unit_box_delta,
)
from .boundary import (
    BoundaryPoint,
    CentralMeasure,
    boundary_point,
    random_boundary_point,
    psi_eval,
    invert_drift,
    central_measure,
    harmonicity_residual,
    s_hat,
    s_hat_t,
    c_harmonic_level,
    harmonic_function_check,
)
from .montecarlo import (
    Trajectory,
    SimReport,
    sample_trajectory,
    lln_check,
    pitman_equality_in_law,
)

__version__ = "0.1.0"
