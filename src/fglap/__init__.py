"""Numerical laboratory for nonlocal g-Laplacian eigenproblems in
Orlicz-Sobolev settings: growth-function calculus, grid discretization of
the operator and its modular energy, constrained eigen and semilinear
solves, truncation diagnostics, and a batch verification harness."""

from .grids import DiscreteFunction, Grid, GridError, refine
from .operator import (
    OperatorParams,
    apply_operator,
    energy,
    energy_gradient,
    gagliardo_seminorm,
    holder_seminorm,
    pair_test_margin,
    s_quotient,
)
from .solver import (
    ConvergenceError,
    DeGiorgiTrace,
    EigenResult,
    SolveOptions,
    StagnationError,
    SubcriticalityError,
    check_recursive_bound,
    degiorgi_rescale,
    degiorgi_trace,
    domain_modular,
    fit_recursion,
    is_subcritical,
    solve_eigen,
    solve_semilinear,
    sup_norm,
    truncation_energy_report,
)
from .young import (
    BracketError,
    EmbeddingConditionError,
    QuadratureError,
    WeightedSamples,
    YoungFunction,
    YoungFunctionError,
    builtin_embedding_params,
    builtin_families,
    chebyshev_bound,
    combine,
    conjugate,
    embedding_composition,
    indicator_gauge,
    inverse,
    iterate_recursion,
    luxemburg_norm,
    make_piecewise_power,
    make_power,
    make_power_log,
    modular,
    normalize_young,
    scale_young,
    sequence_threshold,
    sobolev_conjugate,
    young_from_config,
)

__version__ = "0.1.0"
