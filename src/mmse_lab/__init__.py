"""Verification laboratory for minimum mean square error estimation.

Exact finite-alphabet engines (conditional mean, MMSE, LMMSE, stochastic
degradedness) plus a Monte Carlo cross-path and a catalog of convergence
scenarios that probe when the MMSE is — and is not — continuous along a
sequence of pair laws.
"""

from .convergence import (
    ConvergenceReport,
    DiagnosticsBundle,
    ReportRow,
    run_scenario,
    ui_functional,
    usc_check,
)
from .degradedness import (
    Channel,
    GarblingCertificate,
    binary_symmetric_channel,
    blackwell_verify,
    compose,
    is_degraded,
)
from .errors import (
    AlphabetMismatch,
    InsufficientSamples,
    InvalidDistribution,
    MmseLabError,
    NonPositiveStep,
    ScenarioRunError,
    SelfCheckError,
)
from .exact import (
    ConditionalExpectation,
    MmseResult,
    conditional_expectation,
    mmse_exact,
    orthogonality_check,
)
from .linear import LmmseResult, lmmse
from .mc import (
    McMmseEstimate,
    RegressionConfig,
    cube_root_bins,
    mc_mmse,
    mc_mmse_vs_exact,
)
from .probcore import (
    FiniteJoint,
    MomentSummary,
    SufficientJoint,
    floor_quantize,
    joint_from_atoms,
    moments_exact,
    quantize_joint,
    rng_stream,
)
from .scenarios import (
    ExpectedOutcome,
    OutcomeKind,
    ScenarioSequence,
    bsc_prior_joint,
    builtin_scenarios,
    example3_limit_joint,
)

__version__ = "0.1.0"
