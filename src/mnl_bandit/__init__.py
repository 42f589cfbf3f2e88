"""Optimistic assortment selection under the multinomial-logit choice model.

The library covers the full loop: choice-model math (``choice``),
regularized maximum-likelihood estimation and design matrices
(``estimation``), confidence radii and sets (``confidence``), decision
policies (``policy``), a synthetic environment (``simulator``), and a
seeded experiment harness with CSV/JSON persistence (``harness``).
"""

__version__ = "0.1.0"

from .choice import (
    AssortmentContexts,
    ChoiceDistribution,
    choice_probabilities,
    diag_derivative,
    diag_second_derivative,
    expected_revenue,
    sample_choice,
)
from .estimation import (
    History,
    MleResult,
    fit_mle,
    g_vector,
    matrix_G,
    matrix_H,
    matrix_V,
    penalized_log_likelihood,
    score,
)
from .confidence import (
    ConfidenceConfig,
    ConfidenceState,
    beta_radius,
    build_confidence_state,
    default_lambda,
    gamma_radius,
    in_set_C,
    in_set_E,
    max_revenue_over_E,
)
from .policy import (
    ConfigurationError,
    Decision,
    PolicyKind,
    bonus_ucb_step,
    cb_mnl_step,
    enumerate_assortments,
    oracle_assortment,
)
from .simulator import (
    Instance,
    InstanceConfig,
    environment_step,
    estimate_kappa,
    make_instance,
    serve_contexts,
)
from .harness import (
    ExperimentConfig,
    RunLog,
    RunSummary,
    elliptical_potential_check,
    run_experiment,
    run_many,
    summarize_runs,
)
