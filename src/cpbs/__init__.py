"""Clustered Poisson-Birnbaum-Saunders (CPBS) regression.

Counts within a cluster share one latent multiplicative Birnbaum-Saunders
effect, giving overdispersed, positively within-cluster-correlated counts
with a fully explicit likelihood.  The package provides exact likelihood
evaluation, EM and direct maximum-likelihood fitting, parametric-bootstrap
standard errors, residual/influence diagnostics, samplers, and a Monte Carlo
study harness.
"""

from .bessel import (
    log_bessel_k_half,
    log_bessel_k_half_scaled,
    log_gig_moment,
    log_gig_normalizer,
)
from .data import PHI_FLOOR, Cluster, ClusteredDataset, ModelParams
from .diagnostics import (
    EnvelopeBands,
    InfluenceSet,
    ResidualSet,
    gcd_one_step,
    pearson_residuals,
    simulated_envelopes,
)
from .estimation import (
    ConditionalMoments,
    EmConfig,
    FitResult,
    bootstrap_se,
    conditional_moment,
    direct_ml_fit,
    em_fit,
    m_step_beta,
    m_step_phi,
    posterior_moments,
    q_function,
    q_score_beta,
    q_score_phi,
)
from .mc import McConfig, McReport, run_mc_study
from .model import (
    bs_log_density,
    bs_mean,
    bs_variance,
    cluster_log_pmf,
    compute_mu,
    log_likelihood,
    model_moments,
)
from .io import FitReport, ModelSpec, load_csv
from .simulate import (
    CovariateColumn,
    default_covariate_spec,
    generate_design,
    sample_bs,
    sample_cluster,
    simulate_dataset,
    simulate_responses,
)

__version__ = "0.1.0"

__all__ = [
    "PHI_FLOOR",
    "Cluster",
    "ClusteredDataset",
    "ModelParams",
    "log_bessel_k_half",
    "log_bessel_k_half_scaled",
    "log_gig_normalizer",
    "log_gig_moment",
    "compute_mu",
    "bs_log_density",
    "bs_mean",
    "bs_variance",
    "cluster_log_pmf",
    "log_likelihood",
    "model_moments",
    "ConditionalMoments",
    "EmConfig",
    "FitResult",
    "conditional_moment",
    "posterior_moments",
    "q_function",
    "q_score_beta",
    "q_score_phi",
    "m_step_beta",
    "m_step_phi",
    "em_fit",
    "direct_ml_fit",
    "bootstrap_se",
    "ResidualSet",
    "EnvelopeBands",
    "InfluenceSet",
    "pearson_residuals",
    "simulated_envelopes",
    "gcd_one_step",
    "sample_bs",
    "sample_cluster",
    "simulate_responses",
    "simulate_dataset",
    "generate_design",
    "CovariateColumn",
    "default_covariate_spec",
    "McConfig",
    "McReport",
    "run_mc_study",
    "ModelSpec",
    "FitReport",
    "load_csv",
    "__version__",
]
