"""mha_nw_lab: multi-head attention as an ensemble of kernel regressors.

A numerical laboratory that treats softmax attention heads as
Nadaraya-Watson estimators, measures the bias-variance-covariance
decomposition of their weighted ensembles on synthetic regression tasks,
and sweeps head geometry (diversity, weighting, dimension allocation).
"""

import os

# The kernel's GEMMs are small and replicates run in worker processes, so BLAS
# threads only contend with them: one per process unless the caller chose
# (set before numpy loads; no effect if it already has).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

from .arch_search import enumerate_allocations, scaling_trend
from .decomposition import (
    ExperimentPlan,
    FamilySpec,
    hdi_sweep,
    mc_decompose,
    weighting_compare,
)
from .diversity import (
    hdi,
    load_weight_file,
    make_diversity_report,
    make_projection_family,
    optimize_projections,
)
from .mha import make_weights
from .nw_attention import (AttentionOutput, HeadConfig, attend, attend_many, kernel_operands,
                           nw_reference)
from .synthetic import (
    Dataset,
    RegressionTask,
    derive_seed,
    make_task,
    sample_dataset,
    sample_labels,
    sample_queries,
)
from .tensor_core import Matrix, qr_orthonormalize

__all__ = [
    "__version__",
    "Matrix", "qr_orthonormalize",
    "RegressionTask", "Dataset", "make_task", "sample_dataset",
    "sample_labels", "sample_queries", "derive_seed",
    "HeadConfig", "AttentionOutput", "attend", "attend_many", "kernel_operands", "nw_reference",
    "make_weights",
    "hdi", "make_diversity_report",
    "make_projection_family", "optimize_projections", "load_weight_file",
    "ExperimentPlan", "FamilySpec", "mc_decompose",
    "hdi_sweep", "weighting_compare",
    "enumerate_allocations", "scaling_trend",
]
