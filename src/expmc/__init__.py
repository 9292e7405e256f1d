"""Low-rank matrix completion under natural exponential-family noise.

Penalized maximum-likelihood estimation with a nuclear-norm penalty and
an entrywise box constraint, for Gaussian, binomial, Poisson and
exponential observations under a general entry-sampling distribution.
Includes the known-sampling variant of the estimator, Bregman/KL risk
metrics with closed-form bound evaluators, a minimax packing-set
construction, and a CLI experiment harness.
"""

__version__ = "0.1.0"

from .families import (
    Binomial,
    DomainError,
    Exponential,
    ExponentialFamily,
    Gaussian,
    IntervalConstants,
    ParameterBox,
    Poisson,
)
from .sampling import (
    CoverageError,
    ObservationSet,
    SamplingScheme,
    product_scheme,
    rademacher_norm_estimate,
    uniform_scheme,
)
from .matops import (
    box_clip,
    combined_prox,
    nuclear_norm,
    numerical_rank,
    operator_norm,
    proj_onto,
    proj_perp,
    schatten_norm,
    svt,
)
from .estimator import (
    KNOWN_SAMPLING,
    LIKELIHOOD,
    CompletionProblem,
    FitResult,
    SolverConfig,
    fit,
    gradient,
    neg_loglik,
    oracle_lambda,
    theorem_lambda,
)
from .metrics import (
    OracleInequalityReport,
    RiskReport,
    bound_value,
    bregman_empirical,
    bregman_integrated,
    frobenius_risk,
    oracle_inequality_check,
    risk_report,
)
from .lowerbound import (
    PackingError,
    PackingReport,
    PackingSet,
    build_packing,
    delta_probability,
    kappa,
    kl_to_null,
    save_packing,
    verify_conditions,
)
from .bench import (
    ExperimentConfig,
    GroundTruth,
    box_from_config,
    concentration_check,
    family_from_config,
    family_to_config,
    gen_truth,
    lowerbound_run,
    observe_every_entry,
    oracle_check,
    rate_sweep,
    sample_size_threshold,
    scheme_from_config,
    simulate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
