"""embedlab: certified embeddings of metric spaces into l_q targets.

The package builds Gaussian-kernel sphere maps and their glued sums,
characteristic-function embeddings of amenable group models, and the
finite-geometry obstructions that cap what any embedding can achieve.
Every construction ships with certified two-sided bounds and a
deterministic audit path; the compression/expansion envelope estimators
in :mod:`embedlab.moduli` measure what a given map actually attains.
"""

from .amenable import (HeisenbergModel, TreeACollection, TreeModel,
                       ZkFolnerSystem, ZkModel, char_embedding_bound_check,
                       folner_defect,
                       glued_group_embedding, heisenberg_growth_fit,
                       predicted_group_gap, radial_folner_upper)
from .finite_geometry import (GkSpace, HammingCube, cube_distance, cube_report,
                              enflo_lower_bound, enflo_type2_certificate,
                              gk_distance, gk_probe, probe_audit)
from .gaussian import (FundamentalMapSpec, KernelExact, RandomFeatures,
                       TruncatedExp, delta_q, moduli_exponents, phi_map,
                       psi_distance_exact)
from .glue import (GaussianBlockFamily, GluedEmbedding, ParamSchedule,
                   per_pair_bounds_check, predicted_gap, preset_schedule)
from .mazur import mazur_bounds_check, mazur_constants, mazur_map
from .metric_core import (ExponentRegime, MonotoneFunction, TruncatedVector,
                          generalized_inverse, h_ab, lp_distance,
                          lp_sum_distance, snowflake_distance)
from .moduli import (PairSampler, distortion, estimate_moduli, fit_exponent,
                     write_moduli_csv)
from .report import ComparisonTable, report_tables

__version__ = "0.1.0"

__all__ = [
    "ComparisonTable", "ExponentRegime", "FundamentalMapSpec",
    "GaussianBlockFamily", "GkSpace", "GluedEmbedding", "HammingCube",
    "HeisenbergModel", "KernelExact", "MonotoneFunction", "PairSampler",
    "ParamSchedule", "RandomFeatures", "TreeACollection", "TreeModel",
    "TruncatedExp", "TruncatedVector", "ZkFolnerSystem", "ZkModel",
    "char_embedding_bound_check", "cube_distance", "cube_report", "delta_q",
    "distortion", "enflo_lower_bound", "enflo_type2_certificate",
    "estimate_moduli", "fit_exponent", "folner_defect",
    "generalized_inverse", "gk_distance", "gk_probe",
    "glued_group_embedding", "h_ab", "heisenberg_growth_fit",
    "lp_distance", "lp_sum_distance", "mazur_bounds_check", "mazur_constants",
    "mazur_map", "moduli_exponents", "per_pair_bounds_check", "phi_map",
    "predicted_gap", "predicted_group_gap", "preset_schedule", "probe_audit",
    "psi_distance_exact", "radial_folner_upper", "report_tables",
    "snowflake_distance", "write_moduli_csv",
]
