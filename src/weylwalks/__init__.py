"""Growth graphs of random Littelmann paths, central measures and weight polytopes.

Exact desk-scale machinery for simple Lie algebras of small rank: root data,
Weyl characters, the Littelmann path crystal B(delta), the weight polytope
K(delta) with its dominant faces, the extremal central measures on the free
and chamber growth graphs, the drift map and its numerical inverse, and
simulation utilities (law of large numbers, Pitman equality in law).

The names below are resolved on first use (PEP 562), so `import weylwalks`
loads no layer, and numpy is loaded only by the float evaluators that need it.
"""

import importlib

_EXPORTS = {
    "errors": (
        "WeylWalksError", "UnsupportedType", "DimensionCap", "LevelCap", "EnumerationCap",
        "InvalidWeight", "OrderViolation", "NotAdmissible", "NotInPolytope",
        "NotDominantDrift", "NotAWeight", "NoConvergence",
    ),
    "rootdata": (
        "CartanDatum", "WeylElement", "build_root_system", "cartan_type",
        "dominant_representative", "minimal_coset_rep", "weight", "wadd", "wsub", "wscale",
        "wzero",
    ),
    "chars": (
        "WeightMultiset", "weight_multiplicities", "weyl_dim", "evaluate_S",
        "tensor_decompose", "exterior_power_char", "total_positivity_min_minor",
    ),
    "paths": (
        "PLPath", "CrystalB", "GrowthGraph", "straight_path", "concat", "root_operator",
        "generate_crystal", "in_chamber", "build_growth_graph", "count_paths",
        "pitman_transform", "pitman_chain", "highest_weight_witness",
    ),
    "polytope": (
        "AdmissibleSet", "DominantFace", "LocateResult", "admissible_subsets",
        "is_admissible", "dominant_faces", "locate", "in_unit_box_delta",
    ),
    "boundary": (
        "BoundaryPoint", "CentralMeasure", "boundary_point", "random_boundary_point",
        "psi_eval", "invert_drift", "central_measure", "harmonicity_residual", "s_hat",
        "s_hat_t", "c_harmonic_level", "harmonic_function_check",
    ),
    "montecarlo": (
        "Trajectory", "SimReport", "sample_trajectory", "lln_check",
        "pitman_equality_in_law",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    # an unknown name (a submodule included) raises AttributeError, so that
    # `from weylwalks import chars` falls back to importing the submodule
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
