"""Incentive contracts and feedback equilibria for decarbonized production.

Solvers for three stochastic-control production models (a regulated
single firm with two technologies, two regulated firms, and a two-firm game
without incentives), with independent verification oracles and Monte Carlo
simulation of every solved object.
"""

from .contract import (
    ContractLQG,
    argmax_oracle,
    assemble_lqg,
    effective_aversions,
    hamiltonian_h,
    lambda_pair,
    oracle_rates,
    rates_single,
    rates_two,
)
from .errors import (
    BlowUp,
    ConfigMismatch,
    DecarbError,
    MaximizerOnBoundary,
    MissingField,
    NonFinitePath,
    NumericalError,
    OracleNotConverged,
    OutOfHorizon,
    OutOfRange,
    UnexpectedField,
    ValidationError,
    WrongKind,
)
from .mc import (
    Deviation,
    SimConfig,
    UtilityEstimate,
    simulate_nash,
    simulate_principal,
)
from .model import (
    Kind,
    ModelParams,
    price,
    revenue_f,
    social_cost_g,
    validate_params,
)
from .nash import (
    BestResponseCoeffs,
    FeedbackStrategy,
    NashCoeffs,
    best_response,
    certainty_surface,
    feedback_strategies,
    ode_residual,
    payoff_rate,
    solve_nash,
)
from .riccati import (
    QuadraticValueFn,
    TimeGrid,
    rate_profile,
    rk4_backward,
    solve_lqg,
    solve_principal,
)
from .verify import (
    GridSpec,
    ResidualReport,
    hjb_residual_nash,
    hjb_residual_principal,
    sup_consistency,
)

__version__ = "0.1.0"
