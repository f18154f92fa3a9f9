"""Sieve empirical likelihood ratio statistics and their calibration.

Three statistics are provided: a goodness-of-fit statistic for the
estimating-equation constraints, a statistic against a simple null on the
coefficient functions, and a statistic against a composite null that pins
only some coefficients.  Each is a sum of local empirical-likelihood terms
over the observed index points inside the testing interval.  Calibration
is by a rescaled chi-squared law with fractional degrees of freedom
proportional to |Omega| / h, or by a null-simulation bootstrap.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import least_squares
from scipy.special import gammaincc

from . import streams
from .errors import (
    ConfigError,
    DegenerateTestWarning,
    Infeasible,
    MaxIterations,
    NoRetainedWindows,
    NumericalError,
    ReplicateFailureWarning,
    SingularDesign,
)
from .estfun import EstimatingFunction
from .kernels import Kernel, kernel_constants
from .local_el import (
    Dataset,
    _constrained_fits,
    _entropies,
    _fit,
    _fit_arrays,
    _lls_fits,
    _local_linear_fitted,
    _log_ratios,
    _nonempty,
    _pins,
    _require_derivative,
    _windows,
)

__all__ = [
    "CoefFn",
    "zero_coef",
    "const_coef",
    "ParametricFamily",
    "Hypothesis",
    "TestResult",
    "BandwidthSelection",
    "sel_entropy",
    "sel_full",
    "selr_gof",
    "selr_simple",
    "selr_composite",
    "selr_test",
    "asymptotic_pvalue",
    "bootstrap_null",
    "select_bandwidth",
    "bias_correct",
]


@dataclass(frozen=True)
class CoefFn:
    """A coefficient function u -> a(u) together with its derivative."""

    value: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]


def zero_coef() -> CoefFn:
    return CoefFn(lambda u: np.zeros_like(u), lambda u: np.zeros_like(u))


def const_coef(c: float) -> CoefFn:
    if not math.isfinite(c):
        raise ConfigError(f"a constant coefficient must be finite, not {c}")
    return CoefFn(lambda u: np.full_like(u, float(c)), lambda u: np.zeros_like(u))


@dataclass(frozen=True)
class ParametricFamily:
    """Map (u, theta) -> (n, p) coefficient matrix, smooth in theta."""

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    theta_dim: int


@dataclass(frozen=True)
class Hypothesis:
    kind: str
    a0: tuple[CoefFn, ...] | None = None
    a10: tuple[CoefFn, ...] | None = None
    fixed_idx: tuple[int, ...] | None = None
    family: ParametricFamily | None = None
    theta_init: tuple[float, ...] | None = None
    omega: tuple[float, float] | None = None
    no_estimated_coefficients: bool = False

    def __post_init__(self):
        if self.kind not in ("goodness_of_fit", "simple_null", "composite_null",
                             "parametric_null"):
            raise ConfigError(f"unknown hypothesis kind {self.kind!r}")
        if self.omega is not None:
            lo, hi = self.omega
            if not -math.inf < lo < hi < math.inf:
                raise ConfigError("omega must be a finite nondegenerate interval")
        if self.kind == "simple_null" and self.a0 is None:
            raise ConfigError("simple_null needs coefficient functions a0")
        if self.kind == "composite_null":
            if not self.a10 or not self.fixed_idx:
                raise ConfigError("composite_null needs a10 and fixed_idx")
            if len(self.a10) != len(self.fixed_idx):
                raise ConfigError("a10 must match fixed_idx in length")
        if self.kind == "parametric_null" and (self.family is None or self.theta_init is None):
            raise ConfigError("parametric_null needs family and theta_init")

    @classmethod
    def goodness_of_fit(cls, omega=None, no_estimated_coefficients=False):
        return cls(
            "goodness_of_fit",
            omega=omega,
            no_estimated_coefficients=no_estimated_coefficients,
        )

    @classmethod
    def simple(cls, a0: Sequence[CoefFn], omega=None):
        return cls("simple_null", a0=tuple(a0), omega=omega)

    @classmethod
    def composite(cls, a10: Sequence[CoefFn], fixed_idx, omega=None):
        return cls(
            "composite_null",
            a10=tuple(a10),
            fixed_idx=tuple(int(i) for i in fixed_idx),
            omega=omega,
        )

    @classmethod
    def parametric(cls, family: ParametricFamily, theta_init, omega=None):
        return cls(
            "parametric_null",
            family=family,
            theta_init=tuple(float(t) for t in theta_init),
            omega=omega,
        )


@dataclass
class TestResult:
    statistic: float
    scaled: float
    df: float
    p_asymptotic: float
    kernel: str
    h: float
    hypothesis: str
    r_K: float
    c_K: float
    p_bootstrap: float | None = None
    B: int | None = None
    n_infeasible_points: int = 0
    n_clamped: int = 0
    retained_frac: float = 1.0
    per_point: list | None = None

    def to_dict(self) -> dict:
        def _num(v):
            if v is None:
                return None
            v = float(v)
            return v if np.isfinite(v) else None

        return {
            "hypothesis": self.hypothesis,
            "kernel": self.kernel,
            "h": self.h,
            "statistic": _num(self.statistic),
            "scaled": _num(self.scaled),
            "df": _num(self.df),
            "r_K": _num(self.r_K),
            "c_K": _num(self.c_K),
            "p_asymptotic": _num(self.p_asymptotic),
            "p_bootstrap": _num(self.p_bootstrap),
            "B": self.B,
            "n_skipped": self.n_infeasible_points,
            "n_clamped": self.n_clamped,
            "retained_frac": _num(self.retained_frac),
            "per_point": self.per_point or [],
        }


# ---------------------------------------------------------------------------
# evaluation-point machinery


def _eval_points(data: Dataset, omega) -> tuple[tuple[float, float], np.ndarray]:
    """The testing interval ``omega`` (by default [min u, max u]) and the
    indices of the observations inside it."""
    lo, hi = (data.u.min(), data.u.max()) if omega is None else omega
    idx = np.nonzero((data.u >= lo) & (data.u <= hi))[0]
    if len(idx) == 0:
        raise ConfigError("no observation inside the testing interval")
    return (float(lo), float(hi)), idx


def _walk(data: Dataset, eval_idx, windows):
    """(indices, windows) of each block of the window source ``windows`` over the
    evaluation points in increasing u, indices as a list and a window None where
    it holds no observation; every batch stage takes a block whole."""
    return ((block.tolist(), wins) for block, wins in
            windows(eval_idx[np.argsort(data.u[eval_idx])]))


def sel_entropy(data: Dataset, kernel: Kernel, h: float, omega=None) -> float:
    """Saturated-model term: double sum of w log w over all windows."""
    blocks = _windows(data, kernel, h)(_eval_points(data, omega)[1])
    return sum(win.entropy for block, wins in blocks for win in _nonempty(wins, data.u[block]))


def _full_fits(data, Y, g, walk):
    """Unconstrained local fit in each window of each block of ``walk`` under
    each row of the responses ``Y`` on the design of ``data``, yielding
    (block, windows, log-EL, beta, status) with log-EL and status (R, E) and
    beta (R, E, 2p): NaN, None and a NaN row where the fit fails.  Each
    replicate's fits are warm-started from its previous window's, across
    blocks, falling back to the local least-squares start when the carried
    parameter is infeasible.
    For the identity G the fit is the closed-form LLS fit (see
    :func:`local_el._fit`), computed by :func:`local_el._lls_fits`: no start
    matters, and a window with a singular local design is always skipped."""
    prev = [None] * len(Y)
    for block, wins in walk:
        if g.kind == "identity":
            yield block, wins, *_lls_fits(wins, Y, g, 2 * data.p)
            continue
        logel, status = _fit_arrays((len(Y), len(wins)))
        beta = np.full(logel.shape + (2 * data.p,), np.nan)
        for r, y in enumerate(Y):
            for e, win in enumerate(wins):
                if win is None:
                    continue
                for init in [prev[r], None] if prev[r] is not None else [None]:
                    try:
                        fit = _fit(win, y, g, init)
                    except (Infeasible, MaxIterations, SingularDesign):
                        continue
                    prev[r] = fit.beta.vector
                    logel[r, e], beta[r, e], status[r, e] = fit.logel, prev[r], fit.status
                    break
        yield block, wins, logel, beta, status


def sel_full(data: Dataset, kernel: Kernel, h: float, g: EstimatingFunction, omega=None) -> float:
    """Sum of maximized local log-EL values over the evaluation points."""
    eval_idx = _eval_points(data, omega)[1]
    walk = _walk(data, eval_idx, _windows(data, kernel, h))
    # a left-to-right sum over the kept windows in walk order: np.nansum rounds otherwise
    return float(sum(v for _, _, logel, _, _ in _full_fits(data, data.y[None], g, walk)
                     for v in logel[0].tolist() if not math.isnan(v)))


def asymptotic_pvalue(stat: float, r_K: float, df: float) -> float:
    """Upper chi-squared tail (gamma(df/2, 2)) of the rescaled statistic r_K * stat."""
    if df <= 0:
        warnings.warn(
            "zero degrees of freedom: asymptotic p-value undefined",
            DegenerateTestWarning,
            stacklevel=2,
        )
        return float("nan")
    x = r_K * stat
    # gammaincc is NaN below 0, where the tail is 1
    return 1.0 if x < 0 else float(gammaincc(df / 2.0, x / 2.0))


@dataclass(frozen=True)
class _Terms:
    """The per-point terms of one statistic under R replicates, the value
    every result, bootstrap sample and bandwidth comparison is read from.

    ``contribs`` and ``statuses`` (R, points) hold the contribution and
    status of each evaluation point ``eval_idx`` of the testing interval
    ``omega``, a NaN contribution marking a skipped window; ``errors`` maps
    each replicate whose null fit failed to its error, its row all NaN.
    ``dim`` is the dimension the hypothesis ``kind`` tests.
    """

    kind: str
    dim: int
    omega: tuple[float, float]
    eval_idx: np.ndarray
    contribs: np.ndarray
    statuses: np.ndarray
    errors: dict

    def totals(self) -> tuple[np.ndarray, np.ndarray]:
        """Each replicate's statistic, the left-to-right sum of its kept
        contributions (NaN where every window was skipped), and the fraction
        of its windows retained."""
        skipped = np.isnan(self.contribs)
        stat = np.cumsum(np.where(skipped, 0.0, self.contribs), axis=1)[:, -1]
        retained = 1.0 - skipped.sum(axis=1) / len(self.eval_idx)
        return np.where(retained > 0, stat, np.nan), retained

    def df(self, kernel: Kernel, h: float, retained):
        """The degrees of freedom dim * |Omega| * c_K / h, scaled by the
        retained fraction, and the kernel's constants."""
        consts = kernel_constants(kernel)
        return self.dim * (self.omega[1] - self.omega[0]) * consts.c_K / h * retained, consts


def _standardized(r_K, stat, df):
    """(r_K T - df) / sqrt(2 df), the statistic a bandwidth grid compares."""
    return (r_K * stat - df) / np.sqrt(2.0 * df)


def _assemble(terms: _Terms, data: Dataset, kernel: Kernel, h: float) -> TestResult:
    """The calibrated result of a single statistic (R = 1), the one place a
    result and its ``per_point`` list are built.

    A skipped window also removes its share of the degrees of freedom.
    Raises the error of a failed null fit, or :class:`NoRetainedWindows`
    when every window was skipped.
    """
    if 0 in terms.errors:
        raise terms.errors[0]
    stat, retained = (float(v[0]) for v in terms.totals())
    contribs = terms.contribs[0]
    n_skipped = int(np.isnan(contribs).sum())
    if math.isnan(stat):
        raise NoRetainedWindows(f"all {n_skipped} evaluation windows were skipped")
    df, consts = terms.df(kernel, h, retained)
    if terms.kind == "goodness_of_fit" and df <= 0:
        warnings.warn(
            "goodness-of-fit with a single constraint is degenerate (df = 0)",
            DegenerateTestWarning,
            stacklevel=3,
        )
    return TestResult(
        statistic=stat,
        scaled=consts.r_K * stat,
        df=df,
        p_asymptotic=asymptotic_pvalue(stat, consts.r_K, df) if df > 0 else float("nan"),
        kernel=kernel.family,
        h=h,
        hypothesis=terms.kind,
        r_K=consts.r_K,
        c_K=consts.c_K,
        n_infeasible_points=n_skipped,
        n_clamped=int(np.sum(contribs < 0)),
        retained_frac=retained,
        per_point=[{"u0": u0, "contribution": None, "status": "skipped"} if math.isnan(c)
                   else {"u0": u0, "contribution": c, "status": status}
                   for u0, c, status in zip(data.u[terms.eval_idx].tolist(), contribs.tolist(),
                                            terms.statuses[0])],
    )


def selr_gof(
    data: Dataset,
    kernel: Kernel,
    h: float,
    g: EstimatingFunction,
    spec: Hypothesis,
) -> TestResult:
    """Goodness-of-fit statistic for the estimating-equation constraints."""
    return selr_test(data, kernel, h, g, replace(spec, kind="goodness_of_fit"))


def _coef_sum(data: Dataset, fns: Sequence[CoefFn], cols) -> np.ndarray:
    """sum_k a_k(u) x_k over the coefficient functions ``fns`` on columns ``cols``."""
    total = np.zeros(data.n)
    for fn, k in zip(fns, cols, strict=True):
        total += np.asarray(fn.value(data.u), dtype=float) * data.x[:, k]
    return total


def _simple_null_fitted(data: Dataset, spec: Hypothesis) -> np.ndarray:
    """The regression function sum_k a0_k(u) x_k of the simple null ``spec``,
    refused unless a0 supplies one coefficient function per covariate."""
    if len(spec.a0) != data.p:
        raise ConfigError(f"a0 must supply {data.p} coefficient functions")
    return _coef_sum(data, spec.a0, range(data.p))


def selr_simple(
    data: Dataset,
    kernel: Kernel,
    h: float,
    g: EstimatingFunction,
    spec: Hypothesis,
    include_full_term: bool | None = None,
) -> TestResult:
    """Likelihood-ratio statistic against a simple null A = A0.

    The data are first shifted so the null becomes A* = 0 and the local
    linear fit is unbiased under it.  With a single constraint (k0 = 1)
    the unconstrained-fit term is omitted unless ``include_full_term``
    forces it back in.  For the identity G that term is exactly 0, not
    merely negligible: the unconstrained fit is the local least-squares
    fit, where the local log-EL equals the window entropy.  Forcing it in
    changes the statistic only where the LLS fit fails (a singular local
    design), which skips the window.
    """
    # a hypothesis of another kind without a0 is refused by the replace
    return selr_test(data, kernel, h, g, replace(spec, kind="simple_null"), include_full_term)


def _simple(data, Y, g, full_term, walk):
    """The simple zero null's terms of the shifted responses ``Y``."""
    for block, wins, *full in _full_fits(data, Y, g, walk) if full_term else walk:
        terms = _log_ratios(wins, g, Y, np.zeros(2 * data.p))
        if full:  # less the unconstrained-fit term
            terms -= _entropies(wins) - full[0]
        yield block, terms, "converged"


def selr_composite(
    data: Dataset,
    kernel: Kernel,
    h: float,
    g: EstimatingFunction,
    spec: Hypothesis,
) -> TestResult:
    """Likelihood-ratio statistic against a composite null pinning A1 = A10."""
    return selr_test(data, kernel, h, g, replace(spec, kind="composite_null"))


def _composite(data, Y, h, g, spec, eval_idx, walk):
    u = data.u[eval_idx]
    # the pin values, then slopes; a coefficient function may return a scalar
    fixed, free_idx = _pins(data.p, h, spec.fixed_idx, *(
        np.column_stack([np.broadcast_to(f(u), u.shape) for f in fns])
        for fns in zip(*[(fn.value, fn.deriv) for fn in spec.a10])))
    for block, wins, full, beta, _ in _full_fits(data, Y, g, walk):
        # a window whose full fit failed is skipped: its NaN start gets no constrained fit
        logel, status = _constrained_fits(wins, Y, g, fixed[np.searchsorted(eval_idx, block)],
                                          free_idx, beta)
        yield block, full - logel, status


def bias_correct(
    data: Dataset, family: ParametricFamily, theta_init
) -> tuple[np.ndarray, Dataset]:
    """Fit the parametric null by nonlinear least squares and shift it out.

    Returns the root-n-consistent estimate theta_hat and the transformed
    dataset whose null is `all coefficients zero`.
    """
    theta_init = np.atleast_1d(np.asarray(theta_init, dtype=float))
    if len(theta_init) != family.theta_dim:
        raise ConfigError("theta_init has wrong dimension")

    res = least_squares(lambda th: data.y - _family_fitted(data, family, th), theta_init,
                        xtol=1e-12, ftol=1e-12)
    if not res.success:
        raise NumericalError(f"parametric null fit failed: {res.message}")
    theta_hat = res.x
    return theta_hat, Dataset(data.u, data.x, data.y - _family_fitted(data, family, theta_hat))


def _family_fitted(data: Dataset, family: ParametricFamily, theta) -> np.ndarray:
    """Regression function sum_k a_k(u; theta) x_k of a parametric family."""
    coefs = np.asarray(family.fn(data.u, theta), dtype=float)
    if coefs.ndim == 1:
        coefs = coefs[:, None]
    return np.sum(coefs * data.x, axis=1)


def selr_test(
    data: Dataset,
    kernel: Kernel,
    h: float,
    g: EstimatingFunction,
    spec: Hypothesis,
    include_full_term: bool | None = None,
) -> TestResult:
    """Dispatch on the hypothesis kind; parametric nulls are bias-corrected
    and reduced to a simple zero null."""
    return _assemble(_statistics(data, data.y[None], kernel, h, g, spec, include_full_term,
                                 windows=_windows(data, kernel, h)), data, kernel, h)


def _statistics(data, Y, kernel, h, g, spec, include_full_term=None, *, windows) -> _Terms:
    """The terms of :func:`selr_test` on the datasets (u, x, Y[r]) of the
    rows of the responses ``Y`` (R, n), with ``windows`` the window source
    of ``data``.  One walk over the windows serves every replicate: each
    kind yields the (block, contributions, status) of its blocks."""
    full_term = g.k0 > 1 if include_full_term is None else include_full_term
    if spec.kind in ("goodness_of_fit", "composite_null") or full_term:
        _require_derivative(g)  # before any window is built
    omega, eval_idx = _eval_points(data, spec.omega)
    walk = _walk(data, eval_idx, windows)
    rows, errors = np.arange(len(Y)), {}
    if spec.kind == "goodness_of_fit":
        dim = (g.k0 if spec.no_estimated_coefficients else g.k0 - 1) * data.p
        blocks = ((block, _entropies(wins) - logel, status)
                  for block, wins, logel, _, status in _full_fits(data, Y, g, walk))
    elif spec.kind == "simple_null":
        # shift the responses so the null becomes `all coefficients zero`; the
        # shift changes y only, so the windows stay those of data
        dim, blocks = data.p, _simple(data, Y - _simple_null_fitted(data, spec), g, full_term,
                                      walk)
    elif spec.kind == "composite_null":
        dim, blocks = len(spec.fixed_idx), _composite(data, Y, h, g, spec, eval_idx, walk)
    else:  # parametric_null
        rows, stars, errors = _parametric(data, Y, spec)
        dim, blocks = data.p, _simple(data, stars, g, full_term, walk) if len(rows) else ()
    contribs, statuses = _fit_arrays((len(Y), len(eval_idx)))
    for block, contrib, status in blocks:
        at = rows[:, None], np.searchsorted(eval_idx, block)
        contribs[at], statuses[at] = contrib, status
    return _Terms(spec.kind, dim, omega, eval_idx, contribs, statuses, errors)


def _parametric(data, Y, spec):
    """The bias correction of each replicate for the parametric null: the
    replicates it corrects, their corrected responses, whose null is the
    simple zero null, and the error of each other replicate, which fails
    alone."""
    stars, errors = {}, {}
    for r, y in enumerate(Y):
        try:
            stars[r] = bias_correct(Dataset(data.u, data.x, y), spec.family, spec.theta_init)[1].y
        except NumericalError as exc:
            errors[r] = exc.with_traceback(None)  # a traceback would keep this frame alive
    return np.array(list(stars), dtype=int), np.array(list(stars.values())), errors


# ---------------------------------------------------------------------------
# bootstrap calibration


def _null_fitted_values(data: Dataset, kernel: Kernel, h: float, spec: Hypothesis,
                        windows) -> np.ndarray:
    """Regression function fixed under the null, used to generate replicates;
    ``windows`` is the window source of ``data``."""
    if spec.kind == "simple_null":
        return _simple_null_fitted(data, spec)
    if spec.kind == "parametric_null":
        theta_hat, _ = bias_correct(data, spec.family, spec.theta_init)
        return _family_fitted(data, spec.family, theta_hat)
    if spec.kind == "composite_null":
        none = np.empty((0, len(spec.fixed_idx)))  # no points: only the indices are checked
        _, free_idx = _pins(data.p, h, spec.fixed_idx, none, none)
        pinned = _coef_sum(data, spec.a10, spec.fixed_idx)
        reduced = Dataset(data.u, data.x[:, free_idx[free_idx < data.p]], data.y - pinned)
        return pinned + _local_linear_fitted(reduced, _windows(reduced, kernel, h))
    # goodness_of_fit: nuisance coefficients fixed at their local linear fit
    return _local_linear_fitted(data, windows)


def _sigma2_hat(data: Dataset, resid: np.ndarray, windows) -> np.ndarray:
    """Kernel estimate of the conditional variance of the null residuals,
    with ``windows`` the window source of ``data``."""
    sigma2 = np.empty(data.n)
    sq = resid**2
    w = np.zeros(data.n)
    for block, wins in windows(np.arange(data.n)):
        for i, win in zip(block.tolist(), _nonempty(wins, data.u[block])):
            # a dot over all n, zeros included: any other order (the active set
            # alone, a matvec per block) moves some replicates by 1% via one ulp
            w[win.active] = win.w
            sigma2[i] = float(w @ sq)
            w[win.active] = 0.0
    return np.maximum(sigma2, 1e-12)


def _replicate_errors(resid, sigma2, scheme, gen):
    n = len(resid)
    if scheme == "gaussian":
        return np.sqrt(sigma2) * streams.standard_normal(gen, n)
    if scheme == "wild":
        return resid * streams.rademacher(gen, n)
    if scheme == "resample":
        return resid[gen.integers(0, n, size=n)]
    raise ConfigError(f"unknown bootstrap scheme {scheme!r}")


def _bootstrap(data, kernel, h, spec, B, scheme, seed, statistics, observed, windows):
    """Null sample of B replicates and its p-value.

    Replicate b draws its errors from the stream keyed by (seed, b), so the
    sample does not depend on how replicates are scheduled.  All B response
    vectors are drawn first; ``statistics`` maps them, (B, n), to the B
    statistics, NaN where a replicate failed.  ``windows`` gives the windows
    of ``data`` at bandwidth h, for the null fit and the variance smoother.
    """
    m = _null_fitted_values(data, kernel, h, spec, windows)
    resid = data.y - m
    sigma2 = _sigma2_hat(data, resid, windows) if scheme == "gaussian" else None
    Y = np.array([m + _replicate_errors(resid, sigma2, scheme, streams.substream(seed, b))
                  for b in range(B)])
    sample = statistics(Y)
    sample = sample[~np.isnan(sample)]
    failures = B - len(sample)
    if failures > 0.05 * B:
        warnings.warn(
            f"{failures}/{B} bootstrap replicates failed",
            ReplicateFailureWarning,
            stacklevel=3,
        )
    if not len(sample):
        raise NumericalError("all bootstrap replicates failed")
    return sample, (1 + int(np.sum(sample >= observed))) / (len(sample) + 1)


def bootstrap_null(
    data: Dataset,
    kernel: Kernel,
    h: float,
    g: EstimatingFunction,
    spec: Hypothesis,
    B: int,
    scheme: str = "gaussian",
    seed: int = 0,
    include_full_term: bool | None = None,
    observed: float | None = None,
) -> tuple[np.ndarray, float]:
    """Simulate the null distribution of the statistic and return a p-value.

    Replicates regenerate the response from the null regression function
    plus errors drawn per ``scheme``; p = (1 + #{replicate >= observed})
    / (#successes + 1).  Replicates raising :class:`NumericalError` are
    dropped: more than 5% of them warns with
    :class:`ReplicateFailureWarning`, and all of them raises.  The
    replicates share u and x, so one walk over the design's windows
    computes all B statistics.
    """
    if B < 1:
        raise ConfigError("need at least one bootstrap replicate")
    windows = _windows(data, kernel, h)
    if observed is None:
        observed = selr_test(data, kernel, h, g, spec, include_full_term).statistic
    return _bootstrap(
        data, kernel, h, spec, B, scheme, seed,
        lambda Y: _statistics(data, Y, kernel, h, g, spec, include_full_term,
                              windows=windows).totals()[0],
        observed, windows)


@dataclass(frozen=True)
class BandwidthSelection:
    h: float
    statistic: float
    per_h: dict
    p_bootstrap: float | None = None


def select_bandwidth(
    data: Dataset,
    kernel: Kernel,
    g: EstimatingFunction,
    spec: Hypothesis,
    h_grid: Sequence[float],
    B: int = 0,
    scheme: str = "gaussian",
    seed: int = 0,
) -> BandwidthSelection:
    """Multi-scale test: maximize the standardized statistic over a
    bandwidth grid; optional joint bootstrap calibration of the maximum,
    with replicates drawn and failures handled as in :func:`bootstrap_null`
    and one walk over the windows per grid bandwidth."""
    h_grid = [float(h) for h in h_grid]
    if not h_grid:
        raise ConfigError("bandwidth grid is empty")

    per_h = {}
    for h in h_grid:
        res = selr_test(data, kernel, h, g, spec)
        if res.df <= 0:
            raise ConfigError("bandwidth selection needs positive df")
        per_h[h] = _standardized(res.r_K, res.statistic, res.df)
    h_hat = max(per_h, key=per_h.get)
    observed = per_h[h_hat]

    p_boot = None
    if B > 0:
        def standardized(h, Y):  # NaN where a replicate fails
            terms = _statistics(data, Y, kernel, h, g, spec, windows=_windows(data, kernel, h))
            stat, retained = terms.totals()
            df, consts = terms.df(kernel, h, retained)
            return _standardized(consts.r_K, stat, df)

        def maxima(Y):  # NaN where a replicate fails at any bandwidth
            return np.max([standardized(h, Y) for h in h_grid], axis=0)

        _, p_boot = _bootstrap(data, kernel, min(h_grid), spec, B, scheme, seed, maxima,
                               observed, _windows(data, kernel, min(h_grid)))
    return BandwidthSelection(h=h_hat, statistic=observed, per_h=per_h, p_bootstrap=p_boot)
