"""Spectral simulation laboratory for the exponential-interaction
stochastic dynamics on the two-dimensional torus: cutoff Wick calculus,
exact-noise mild solvers, weighted Gibbs ensembles and the experiment
drivers that check their convergence and invariance."""

import os

# One BLAS thread, set before the package imports numpy:
# spectral.sobolev_norms sums with np.dot, whose summation order, and so
# every report digest, follows the OpenBLAS thread count.  A count
# already in the environment wins, and numpy imported before this
# package keeps the count it started with.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .besov import besov_norm
from .config import ConfigError, ExperimentConfig, load_config, parse_config
from .dynamics import (
    ContractionReport,
    SqeConfig,
    contraction_check,
    decompose,
    evolve_levels,
    evolve_projected,
    evolve_shifted,
    solve_shifted,
    solve_sqe_full,
    solve_sqe_projected,
    time_grid,
)
from .experiments import (
    cmd_invariance,
    cmd_norms_bench,
    cmd_sample_gff,
    cmd_sqe,
    cmd_wick_converge,
)
from .measures import (
    DegenerateEnsembleError,
    InvarianceReport,
    PartitionEstimate,
    WeightedEnsemble,
    estimate_partition,
    invariance_test,
    mode0_tilt_mean,
    rn_log_weight,
    sample_ensemble,
    standard_observables,
)
from .randomfields import (
    FieldPath,
    gff_mode_variance,
    gff_sample,
    ou_noise_variance,
    ou_path,
)
from .reports import ExperimentReport, load_fields, save_fields, write_csv, write_report
from .rng import RngStream
from .spectral import (
    SpectralField,
    TorusGrid,
    constant_field,
    field_from_coeffs,
    grid_quadrature,
    heat_semigroup,
    hermitian_defect,
    make_grid,
    sobolev_norm,
    to_spectral,
    zero_field,
)
from .wick import (
    ALPHA_MAX,
    CutoffProfile,
    WickOverflowError,
    WickParams,
    analytic_wick_cov,
    green_kernel_point,
    hermite,
    make_wick_params,
    renorm_constant,
    wick_exp_values,
)

__version__ = "0.1.0"

# benchmark runs are stamped with the backend; numpy is the only one
KERNEL_BACKEND = "python"

__all__ = [
    "ALPHA_MAX",
    "ConfigError",
    "ContractionReport",
    "CutoffProfile",
    "DegenerateEnsembleError",
    "ExperimentConfig",
    "ExperimentReport",
    "FieldPath",
    "InvarianceReport",
    "KERNEL_BACKEND",
    "PartitionEstimate",
    "RngStream",
    "SpectralField",
    "SqeConfig",
    "TorusGrid",
    "WeightedEnsemble",
    "WickOverflowError",
    "WickParams",
    "analytic_wick_cov",
    "besov_norm",
    "cmd_invariance",
    "cmd_norms_bench",
    "cmd_sample_gff",
    "cmd_sqe",
    "cmd_wick_converge",
    "constant_field",
    "contraction_check",
    "decompose",
    "estimate_partition",
    "evolve_levels",
    "evolve_projected",
    "evolve_shifted",
    "field_from_coeffs",
    "gff_mode_variance",
    "gff_sample",
    "green_kernel_point",
    "grid_quadrature",
    "heat_semigroup",
    "hermite",
    "hermitian_defect",
    "invariance_test",
    "load_config",
    "load_fields",
    "make_grid",
    "make_wick_params",
    "mode0_tilt_mean",
    "ou_noise_variance",
    "ou_path",
    "parse_config",
    "renorm_constant",
    "rn_log_weight",
    "sample_ensemble",
    "save_fields",
    "sobolev_norm",
    "solve_shifted",
    "solve_sqe_full",
    "solve_sqe_projected",
    "standard_observables",
    "time_grid",
    "to_spectral",
    "wick_exp_values",
    "write_csv",
    "write_report",
    "zero_field",
]
