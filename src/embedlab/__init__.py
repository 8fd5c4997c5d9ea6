"""embedlab: certified embeddings of metric spaces into l_q targets.

The package builds Gaussian-kernel sphere maps and their glued sums,
characteristic-function embeddings of amenable group models, and the
finite-geometry obstructions that cap what any embedding can achieve.
Every construction ships with certified two-sided bounds and a
deterministic audit path; the compression/expansion envelope estimators
in :mod:`embedlab.moduli` measure what a given map actually attains.

The names in ``__all__`` are exported lazily (PEP 562): importing the
package loads none of its modules and no numpy, and ``embedlab.X``
imports the module that defines ``X`` on first access.  So a process
pays only for the modules it uses; ``python -m embedlab.cli report``
loads no numpy at all.

The package import itself still caps OpenBLAS at one thread, before any
module can load numpy, unless ``OPENBLAS_NUM_THREADS`` is already set:
the block kernel keeps its products on the calling thread anyway, and an
idle pool costs CPU in every process.  Once numpy is loaded its pool is
fixed, so the variable is then left alone rather than made to disagree
with it.
"""

import importlib
import os
import sys

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# The submodule that defines each name of ``__all__``.
_EXPORTS = {
    "amenable": ("HeisenbergModel", "TreeACollection", "TreeModel", "ZkFolnerSystem",
                 "ZkModel", "char_embedding_bound_check", "glued_group_embedding",
                 "heisenberg_growth_fit"),
    "finite_geometry": ("GkSpace", "HammingCube", "cube_report",
                        "enflo_lower_bound", "probe_audit"),
    "gaussian": ("RandomFeatures", "TruncatedExp", "delta_q", "moduli_exponents",
                 "psi_distance_exact"),
    "glue": ("GaussianBlockFamily", "GluedEmbedding", "ParamSchedule",
             "per_pair_bounds_check", "preset_schedule"),
    "mazur": ("audit_sphere_pairs", "mazur_constants"),
    "moduli": ("PairSampler", "estimate_moduli", "write_moduli_csv"),
    "report": ("ComparisonTable", "report_tables"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [
    "ComparisonTable", "GaussianBlockFamily", "GkSpace", "GluedEmbedding", "HammingCube",
    "HeisenbergModel", "PairSampler", "ParamSchedule",
    "RandomFeatures", "TreeACollection", "TreeModel", "TruncatedExp",
    "ZkFolnerSystem", "ZkModel", "audit_sphere_pairs",
    "char_embedding_bound_check", "cube_report", "delta_q",
    "enflo_lower_bound",
    "estimate_moduli", "glued_group_embedding",
    "heisenberg_growth_fit", "mazur_constants",
    "moduli_exponents", "per_pair_bounds_check", "preset_schedule",
    "probe_audit", "psi_distance_exact", "report_tables", "write_moduli_csv",
]


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
