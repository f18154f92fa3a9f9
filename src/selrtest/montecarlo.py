"""Simulation harness: data generators, null tables, moment matching and
size/power comparisons against the residual-sum-of-squares F-type test.

The generating model is Y = a1(U) + eps with U uniform on [0, 1],
eps | U ~ N(0, 1 + c1 U^2) and a single constant covariate, tested
against the null a1 = 0 with the single-constraint statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammainc

from . import streams
from .errors import ConfigError, DegenerateRSS1, NumericalError
from .estfun import make_identity
from .kernels import Kernel, kernel_by_name
from .local_el import Dataset, _fitted_block, _local_linear_fitted, _windows
from .selr import Hypothesis, _statistics, zero_coef

__all__ = [
    "SimulationConfig",
    "NullSummary",
    "MomentMatch",
    "StudyRow",
    "generate",
    "f_type_stat",
    "simulate_statistics",
    "null_table",
    "moment_match",
    "ecdf_vs_chisq",
    "size_power_study",
]

_UNIT_OMEGA = (0.0, 1.0)


@dataclass(frozen=True)
class SimulationConfig:
    """One cell of the simulation design; h = c0 * n^(-2/9)."""

    n: int
    c0: float = 1.0
    c1: float = 0.0
    alternative: str = "null"  # null | linear | sine
    r: float = 0.0
    reps: int = 500
    seed: int = 0
    kernel: str = "triweight"

    def __post_init__(self):
        # each test written so that NaN fails it
        for name, ok, need in (("n", self.n >= 10, ">= 10"), ("reps", self.reps >= 1, ">= 1"),
                               ("c0", 0 < self.c0 < math.inf, "finite and > 0"),
                               ("c1", 0 <= self.c1 < math.inf, "finite and >= 0"),
                               ("r", 0 <= self.r < math.inf, "finite and >= 0")):
            if not ok:
                raise ConfigError(f"simulation {name} must be {need}, not {getattr(self, name)}")
        if self.alternative not in ("null", "linear", "sine"):
            raise ConfigError(f"unknown alternative {self.alternative!r}")
        if self.alternative == "null" and self.r > 0:
            raise ConfigError(f"alternative 'null' takes r = 0, not {self.r}")
        kernel_by_name(self.kernel)  # refuses an unknown name here, not in a replicate

    @property
    def h(self) -> float:
        return self.c0 * self.n ** (-2.0 / 9.0)


@dataclass(frozen=True)
class NullSummary:
    n: int
    h: float
    variance_label: str
    mu: float
    sigma: float
    reps: int


@dataclass(frozen=True)
class MomentMatch:
    """Scaled chi-squared fit: r0 * stat ~ chi2(d0) by moment matching."""

    r0: float
    d0: float


@dataclass(frozen=True)
class StudyRow:
    n: int
    h: float
    c1: float
    r: float
    power_selr: float
    power_f: float


def _coefficient(alternative: str, r: float, u: np.ndarray) -> np.ndarray:
    if alternative == "null" or r == 0.0:
        return np.zeros_like(u)
    if alternative == "linear":
        return r * (u - 0.5)
    if alternative == "sine":
        return r * (2.0 * np.sin(2.0 * np.pi * u) ** 2 - 1.0)
    raise ConfigError(f"unknown alternative {alternative!r}")


def generate(config: SimulationConfig, rng: np.random.Generator) -> Dataset:
    """Draw one dataset from the simulation model."""
    n = config.n
    u = rng.random(n)
    eps = np.sqrt(1.0 + config.c1 * u**2) * streams.standard_normal(rng, n)
    y = _coefficient(config.alternative, config.r, u) + eps
    return Dataset(u, np.ones((n, 1)), y)


def f_type_stat(data: Dataset, kernel: Kernel, h: float) -> float:
    """(RSS0 - RSS1) / RSS1 with RSS0 = y'y and RSS1 from the local linear fit."""
    return _f_type(data, _local_linear_fitted(data, _windows(data, kernel, h)))


def _f_type(data: Dataset, fitted: np.ndarray) -> float:
    """:func:`f_type_stat` with ``fitted`` the local linear fit of ``data``."""
    rss0 = float(data.y @ data.y)
    resid1 = data.y - fitted
    rss1 = float(resid1 @ resid1)
    if rss0 == 0.0 and rss1 == 0.0:
        return 0.0
    if rss1 < 1e-12 * rss0:
        raise DegenerateRSS1("alternative fit interpolates the data")
    return (rss0 - rss1) / rss1


def _zero_null_spec() -> Hypothesis:
    return Hypothesis.simple([zero_coef()], omega=_UNIT_OMEGA)


def _one_replicate(args):
    """One replicate's SELR statistic and, with ``want_f``, its F-type
    statistic, NaN where one fails, from one walk over its design's windows:
    the smoother fills each block's fitted values as the SELR walk passes it.
    That walk covers all n points (omega = (0, 1), u in [0, 1)), a window is
    the same in any block, and an all-skipped SELR statistic is NaN, not an
    error, so F is :func:`f_type_stat`'s value whether or not the SELR
    statistic fails; a block whose smoother fails leaves F NaN."""
    config, rep_index, stream_offset, want_f = args
    rng = streams.substream(config.seed, stream_offset + rep_index)
    data = generate(config, rng)
    kern = kernel_by_name(config.kernel)
    g = make_identity()
    fitted = np.full(data.n, math.nan)

    def windows(idx):
        for block, wins in _windows(data, kern, config.h)(idx):
            if want_f:
                try:
                    fitted[block] = _fitted_block(data, block, wins)
                except NumericalError:
                    pass
            yield block, wins

    try:
        [selr_val], _ = _statistics(data, data.y[None], kern, config.h, g, _zero_null_spec(),
                                    windows=windows).totals()
    except NumericalError:
        selr_val = math.nan
    f_val = math.nan
    if want_f and not np.isnan(fitted).any():
        try:
            f_val = _f_type(data, fitted)
        except NumericalError:
            f_val = math.nan
    return selr_val, f_val


def simulate_statistics(
    config: SimulationConfig,
    want_f: bool = False,
    stream_offset: int = 0,
    n_jobs: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """SELR (and optionally F-type) statistics for ``reps`` replicates.

    Replicate b uses the stream keyed by (seed, stream_offset + b), so the
    output is identical for any worker count.
    """
    if n_jobs < 1:
        raise ConfigError(f"n_jobs must be >= 1, got {n_jobs}")
    items = [(config, b, stream_offset, want_f) for b in range(config.reps)]
    if n_jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            out = list(pool.map(_one_replicate, items, chunksize=8))
    else:
        out = [_one_replicate(it) for it in items]
    selr_vals = np.array([o[0] for o in out])
    f_vals = np.array([o[1] for o in out])
    return selr_vals, f_vals


def null_table(config: SimulationConfig, n_jobs: int = 1) -> NullSummary:
    """Simulated mean and SD of the null statistic of one configuration."""
    if config.alternative != "null":
        raise ConfigError("null_table expects a null-model configuration")
    vals, _ = simulate_statistics(config, n_jobs=n_jobs)
    vals = vals[np.isfinite(vals)]
    return NullSummary(n=config.n, h=config.h,
                       variance_label="1" if config.c1 == 0 else f"1+{config.c1:g}u^2",
                       mu=float(np.mean(vals)),
                       sigma=float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0,
                       reps=len(vals))


def moment_match(sample) -> MomentMatch:
    """Fit r0, d0 so that r0 * stat has chi-squared mean and variance."""
    sample = np.asarray(sample, dtype=float)
    if len(sample) < 2:
        raise ConfigError("need at least two statistics to match moments")
    mu = float(np.mean(sample))
    var = float(np.var(sample, ddof=1))
    if var <= 0 or mu <= 0:
        raise ConfigError("sample moments must be positive")
    return MomentMatch(r0=2.0 * mu / var, d0=2.0 * mu**2 / var)


def ecdf_vs_chisq(sample, match: MomentMatch) -> float:
    """Kolmogorov-Smirnov distance of r0 * sample to chi-squared(d0)."""
    sample = np.sort(np.asarray(sample, dtype=float))
    if len(sample) == 0:
        raise ConfigError("empty sample")
    n = len(sample)
    x = match.r0 * sample
    # the chi-squared(d0) CDF; gammainc is NaN below 0, where the CDF is 0
    cdf = np.where(x < 0, 0.0, gammainc(match.d0 / 2.0, x / 2.0))
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def _rate(vals: np.ndarray, threshold: float) -> float:
    """Share of the finite statistics above ``threshold``; NaN if none is finite."""
    vals = vals[np.isfinite(vals)]
    return float(np.mean(vals > threshold)) if len(vals) else math.nan


def size_power_study(
    config: SimulationConfig,
    r_grid,
    thresholds: tuple[float, float] | None = None,
    level: float = 0.05,
    n_jobs: int = 1,
) -> list[StudyRow]:
    """Rejection rates of the SELR and F-type tests over an r grid.

    ``thresholds`` is the pair (selr_threshold, f_threshold); None
    self-calibrates each as the empirical (1 - level) quantile of a null run
    of ``config`` at stream offset 0.  The cell at ``r_grid[ri]`` draws from
    stream offset (ri + 1) << 32, so its row depends on ``config``, its r and
    its place in ``r_grid`` alone.
    """
    if not 0.0 < level < 1.0:
        raise ConfigError(f"level must lie in (0, 1), got {level}")
    if thresholds is not None and not (len(thresholds) == 2
                                       and all(math.isfinite(t) for t in thresholds)):
        raise ConfigError(f"thresholds must be a finite (selr, f) pair, got {thresholds}")
    # every cell is built, and so checked, before any is simulated
    cells = [replace(config, alternative=config.alternative if r > 0 else "null", r=float(r))
             for r in r_grid]
    if thresholds is None:
        null_vals = simulate_statistics(replace(config, alternative="null", r=0.0),
                                        want_f=True, n_jobs=n_jobs)
        thresholds = [float(np.nanquantile(vals, 1.0 - level)) for vals in null_vals]
    t_selr, t_f = thresholds
    rows = []
    for ri, cell in enumerate(cells):
        selr_vals, f_vals = simulate_statistics(cell, want_f=True, stream_offset=(ri + 1) << 32,
                                                n_jobs=n_jobs)
        rows.append(StudyRow(n=config.n, h=config.h, c1=config.c1, r=cell.r,
                             power_selr=_rate(selr_vals, t_selr), power_f=_rate(f_vals, t_f)))
    return rows
