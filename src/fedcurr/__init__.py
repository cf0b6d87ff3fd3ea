"""Deterministic federated-learning simulator with ordered (curriculum)
training on client data and client selection, plus a Monte-Carlo harness for
the biased-local-SGD convergence bounds."""

from .clients import (
    ClientSelectionConfig,
    client_loss,
    score_clients,
    select_clients,
)
from .curriculum import (
    OrderingKind,
    PacingFamily,
    PacingSpec,
    ScoringKind,
    order_and_select,
    pace,
    score_samples,
    scores_from_losses,
)
from .data import (
    Dataset,
    Partition,
    PartitionSpec,
    Scheme,
    gen_synthetic,
    partition,
    partition_difficulty,
)
from .errors import ConfigurationError
from .federation import (
    Algorithm,
    DataCurriculumConfig,
    ExperimentConfig,
    RoundMetrics,
    aggregate,
    client_update,
    evaluate,
    gradient_dissimilarity,
    run_experiment,
    train_centralized,
)
from .models import (
    Batch,
    HessianDecomposition,
    ModelKind,
    ModelSpec,
    SgdHyper,
    grad,
    hessian_decomposition,
    init_params,
    per_sample_losses,
    predict,
    sgd_step,
)
from .theory import (
    BiasKind,
    BiasedGradOracle,
    BoundReport,
    ConvexProblem,
    NonconvexProblem,
    biased_grad,
    bound_convex,
    bound_nonconvex,
    constant_stepsizes,
    inverse_round_stepsizes,
    make_bias_schedule,
    make_quadratic,
    verify_convex,
    verify_nonconvex,
    zero_sum_directions,
)

__version__ = "0.1.0"
