"""Empirical-likelihood ratio tests for varying-coefficient regression.

Local empirical likelihood estimation of smooth coefficient functions,
sieve likelihood-ratio test statistics with chi-squared and bootstrap
calibration, and a Monte Carlo harness for size and power studies.
"""

from .errors import (
    ConfigError,
    DataError,
    Infeasible,
    MaxIterations,
    NumericalError,
    SelrError,
)
from .estfun import (
    EstimatingFunction,
    make_identity,
    make_smoothed_indicator,
    make_symmetric_indicator,
    parse_g_spec,
)
from .kernels import (
    Kernel,
    KernelConstants,
    kernel_by_name,
    kernel_constants,
    kstar,
    second_moment,
    tabulated_kernel,
)
from .local_el import (
    Dataset,
    LocalELFit,
    LocalParameter,
    LocalWeights,
    fit_local,
    fit_local_constrained,
    lls_init,
    local_weights,
    solve_lagrange,
)
from .montecarlo import (
    MomentMatch,
    NullSummary,
    SimulationConfig,
    StudyRow,
    ecdf_vs_chisq,
    f_type_stat,
    generate,
    moment_match,
    null_table,
    simulate_statistics,
    size_power_study,
)
from .selr import (
    BandwidthSelection,
    CoefFn,
    Hypothesis,
    ParametricFamily,
    TestResult,
    asymptotic_pvalue,
    bias_correct,
    bootstrap_null,
    const_coef,
    sel_entropy,
    sel_full,
    select_bandwidth,
    selr_composite,
    selr_gof,
    selr_simple,
    selr_test,
    zero_coef,
)

__version__ = "0.1.0"
