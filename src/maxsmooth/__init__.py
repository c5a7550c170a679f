"""Smoothings of the coordinate-wise max function in the infinity norm:
constructions with exact gap formulas, partition-sum lower bounds with
their asymptotic constant, numerical certificates, a smoothing-accelerated
minimax solver, and a regularized-leader experts-game harness."""

from .bounds import (
    AsymptoticConstants,
    PartitionCertificate,
    asymptotic_sandwich,
    beta_root,
    gamma,
    two_term_lower,
)
from .certify import (
    CertReport,
    SamplerConfig,
    check_gradient_fd,
    check_gradient_structure,
    empirical_gap,
    run_certificate_suite,
    telescoping_sum,
)
from .core import (
    project_simplex,
    sigma_max,
    structured_point,
)
from .minimax import (
    AffineComponent,
    MaxOfSmoothProblem,
    QuadraticComponent,
    SolverTrace,
    composite_value_grad,
    load_problem,
    solve_smoothed,
    solve_subgradient,
)
from .regret import (
    RegretTrace,
    ftrl_weights,
    regret_bound,
    run_coinflip_game,
    tuned_eta,
)
from .smoothings import (
    Evaluation,
    SmoothingKind,
    c_constant,
    deviation_interval,
    gap_bound,
    value_grad,
    value_grad_many,
)

__version__ = "0.1.0"
