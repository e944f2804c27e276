"""hedgekit: strategy SDPs for prover-verifier quantum interactions.

Compile interactions into outcome-operator form, solve the resulting
Hermitian SDPs with an embedded dense interior-point solver, certify
parallel-repetition bounds through explicit dual witnesses, reproduce
the perfect two-repetition hedge, and plan error reduction for
interactive proofs.
"""

__version__ = "0.1.0"

from .errors import (
    DomainError,
    HedgekitError,
    NumericalError,
    SpaceError,
    ValidationError,
)
from .spaces import SpaceList, space
from .operators import (
    DensityOperator,
    HermitianOperator,
    KrausChannel,
    apply_channel,
    choi,
    dephase,
    identity,
    inner,
    kron,
    min_eigenvalue,
    partial_trace,
    permute_systems,
)
from .games import (
    OutcomeOperators,
    Rounds,
    SingleRoundGameSpec,
    StrategyChoi,
    dephase_game,
    group_outcomes,
    outcome_operators_single_round,
    outcome_probabilities,
    parallel_game,
    parallel_rounds,
    threshold_objective,
    value_objective,
)
from .sdp import (
    DualWitness,
    SdpProblem,
    SolveReport,
    check_dual_feasibility,
    compile_primal,
    dual_witness_from_report,
    repair_witness,
    solve,
)
from .witnesses import (
    classical_optimum,
    single_round_witness,
    verify_monotone_inequality,
    witness_average,
    witness_classical_binomial,
    witness_naive,
    witness_recursive_snk,
    witness_tensor_power,
)
from .error_reduction import (
    ErrorReductionPlan,
    binary_entropy,
    binomial_tail,
    completeness_error_bound,
    entropy_curve,
    entropy_threshold,
    plan_rounds,
    soundness_error_bound,
    threshold_condition,
)
from .hedging import (
    WIN_PROBABILITY,
    hedging_game,
    hedging_optimal_witness,
    phase_flip_strategy,
)
