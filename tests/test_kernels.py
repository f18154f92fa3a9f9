"""Kernel families and calibration constants against quadrature oracles."""

import math
import warnings
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest

from selrtest import ConfigError, kernel_by_name, kernel_constants, tabulated_kernel
from selrtest.kernels import (
    KERNEL_FAMILIES,
    Kernel,
    _piecewise_constants,
    kstar,
    second_moment,
)

from conftest import midpoint

FAMILIES = sorted(KERNEL_FAMILIES)

# exact second moments: uniform 1/3, epanechnikov 1/5, biweight 1/7, triweight 1/9
MU2 = {"uniform": 1 / 3, "epanechnikov": 1 / 5, "biweight": 1 / 7, "triweight": 1 / 9}
# (mu2, Kstar(0), int Kstar^2) by exact polynomial integration of the defining integrals
EXACT = {
    "uniform": (Fraction(1, 3), Fraction(1), Fraction(74, 105)),
    "epanechnikov": (Fraction(1, 5), Fraction(36, 35), Fraction(4152, 5005)),
    "biweight": (Fraction(1, 7), Fraction(90, 77), Fraction(49484430, 52055003)),
    "triweight": (Fraction(1, 9), Fraction(560, 429),
                  Fraction(2706814106528, 2552848524369)),
}


def exact_constants(name):
    """The correctly rounded (mu2, kstar0, kstar_l2, r_K, c_K) of a named family."""
    mu2, kstar0, l2 = EXACT[name]
    return tuple(float(v) for v in (mu2, kstar0, l2, 2 * kstar0 / l2, kstar0**2 / l2))


@pytest.mark.parametrize("name", FAMILIES)
def test_unit_mass_symmetry_nonnegativity(name):
    kern = kernel_by_name(name)
    assert abs(midpoint(kern, -1, 1, 100_000) - 1.0) < 1e-8
    t = np.linspace(0, 1, 257)
    np.testing.assert_allclose(kern(t), kern(-t), atol=1e-14)
    assert np.all(kern(np.linspace(-1, 1, 1001)) >= 0)


@pytest.mark.parametrize("name", FAMILIES)
def test_support_clipping(name):
    kern = kernel_by_name(name)
    assert kern(1.5) == 0.0
    assert kern(-1.0001) == 0.0
    assert float(np.asarray(kern(np.array([3.0]))[0])) == 0.0


@pytest.mark.parametrize("name", FAMILIES)
def test_second_moment_exact(name):
    assert abs(second_moment(kernel_by_name(name)) - MU2[name]) < 1e-9


def test_kstar_uniform_at_zero():
    # K = 1/2 on [-1,1]: Kstar(0) = int 1/4 (1 + 3 t^2) dt = 1 exactly
    assert abs(kstar(kernel_by_name("uniform"), 0.0) - 1.0) < 1e-9


def test_kstar_epanechnikov_at_zero():
    # K = 3/4 (1 - t^2), mu2 = 1/5: Kstar(0) = (3/4)^2 int (1 - t^2)^2 (1 + 5 t^2) dt = 36/35
    assert abs(kstar(kernel_by_name("epanechnikov"), 0.0) - 36 / 35) < 1e-9


@pytest.mark.parametrize("name", FAMILIES)
@pytest.mark.parametrize("s", [0.0, 0.3, 0.7, 1.0, 1.4, 1.9])
def test_kstar_matches_midpoint_oracle(name, s):
    kern = kernel_by_name(name)
    mu2 = MU2[name]
    lo, hi = max(-1.0, -1.0 - s), min(1.0, 1.0 - s)

    def integrand(t):
        return kern(t) * kern(s + t) * (1.0 + t * (s + t) / mu2)

    assert abs(kstar(kern, s) - midpoint(integrand, lo, hi)) < 1e-6


@pytest.mark.parametrize("name", FAMILIES)
def test_kstar_even_and_compact(name):
    kern = kernel_by_name(name)
    for s in (0.25, 0.8, 1.5):
        assert abs(kstar(kern, s) - kstar(kern, -s)) < 1e-9
    assert kstar(kern, 2.1) == 0.0
    assert kstar(kern, -2.5) == 0.0
    assert abs(kstar(kern, 1.999)) < 1e-3


@pytest.mark.parametrize("name", FAMILIES)
def test_l2_norm_matches_double_midpoint_oracle(name):
    kern = kernel_by_name(name)
    mu2 = MU2[name]

    # fully independent nested midpoint rule for int_{-2}^{2} Kstar(s)^2 ds
    def kstar_oracle(s):
        lo, hi = max(-1.0, -1.0 - s), min(1.0, 1.0 - s)
        if lo >= hi:
            return 0.0
        t = lo + (hi - lo) * (np.arange(4096) + 0.5) / 4096
        vals = kern(t) * kern(s + t) * (1.0 + t * (s + t) / mu2)
        return (hi - lo) / 4096 * float(vals.sum())

    s_grid = 4.0 * (np.arange(2000) + 0.5) / 2000 - 2.0
    oracle = 4.0 / 2000 * sum(kstar_oracle(s) ** 2 for s in s_grid)
    consts = kernel_constants(kern)
    assert abs(consts.kstar_l2 - oracle) < 1e-5


@pytest.mark.parametrize("name", FAMILIES)
def test_constants_identities(name):
    consts = kernel_constants(kernel_by_name(name))
    # c_K = r_K * Kstar(0) / 2 and r_K * |Kstar|^2 = 2 Kstar(0), exactly
    assert abs(consts.c_K - consts.r_K * consts.kstar0 / 2.0) < 1e-12
    assert abs(consts.r_K * consts.kstar_l2 - 2.0 * consts.kstar0) < 1e-10


def test_uniform_constants_frozen():
    consts = kernel_constants(kernel_by_name("uniform"))
    assert abs(consts.kstar0 - 1.0) < 1e-8
    assert abs(consts.r_K - 2.8378378) < 2e-4
    assert abs(consts.c_K - 2.8378378 / 2) < 1e-4


def test_epanechnikov_constants_frozen():
    # exact values of the defining integrals: Kstar(0) = 36/35,
    # int Kstar^2 = 4152/5005 (polynomial integration), hence
    # r_K = 2 Kstar(0) / int Kstar^2 = 429/173, c_K = Kstar(0)^2 / int Kstar^2 = 7722/6055
    consts = kernel_constants(kernel_by_name("epanechnikov"))
    assert abs(consts.kstar0 - 36 / 35) < 1e-8
    assert abs(consts.kstar_l2 - 4152 / 5005) < 1e-7
    assert abs(consts.r_K - 429 / 173) < 1e-6
    assert abs(consts.c_K - 7722 / 6055) < 1e-6


def test_triweight_constants_frozen():
    consts = kernel_constants(kernel_by_name("triweight"))
    assert abs(consts.mu2 - 1 / 9) < 1e-9
    assert abs(consts.kstar0 - 1.3053613) < 1e-6
    assert abs(consts.r_K - 2.4622228) < 1e-6
    assert abs(consts.c_K - 1.6070452) < 1e-6


@pytest.mark.parametrize("name", FAMILIES)
def test_named_table_is_the_quadrature(name):
    # the table is within one ulp of the exact rationals, and the
    # Gauss-Legendre rule on the kernel's one piece within 1e-14 relative
    kern = kernel_by_name(name)
    exact = exact_constants(name)
    assert all(abs(got - want) <= math.ulp(want)
               for got, want in zip(astuple(kernel_constants(kern)), exact))
    np.testing.assert_allclose(astuple(_piecewise_constants(kern)), exact, rtol=1e-14, atol=0)


def test_named_table_rounds_the_exact_values():
    assert 2 * EXACT["epanechnikov"][1] / EXACT["epanechnikov"][2] == Fraction(429, 173)
    for name in ("epanechnikov", "triweight"):
        consts = kernel_constants(kernel_by_name(name))
        assert (consts.r_K, consts.c_K) == exact_constants(name)[3:]


def test_only_the_named_evaluator_takes_the_table():
    # a family name on another evaluator gets that evaluator's integrals, by
    # the rule, which is exact for a polynomial of degree <= 6 on [-1, 1]
    kern = Kernel("epanechnikov", KERNEL_FAMILIES["uniform"])
    np.testing.assert_allclose(astuple(kernel_constants(kern)), exact_constants("uniform"),
                               rtol=1e-14, atol=0)


def test_constants_cached():
    kern = kernel_by_name("biweight")
    assert kernel_constants(kern) is kernel_constants(kernel_by_name("biweight"))


def test_unknown_family_rejected():
    with pytest.raises(ConfigError):
        kernel_by_name("gaussian")


@pytest.mark.filterwarnings("error")
def test_tabulated_kernel_roundtrip():
    t = np.linspace(-1, 1, 4001)
    k = (35.0 / 32.0) * (1 - t**2) ** 3
    kern = tabulated_kernel(t, k)
    consts = kernel_constants(kern)
    ref = kernel_constants(kernel_by_name("triweight"))
    assert abs(consts.r_K - ref.r_K) < 1e-3
    assert abs(consts.c_K - ref.c_K) < 1e-3


def test_tabulated_kernel_mass_is_the_tables_trapezoid_sum():
    # the interpolant's mass is exact: a trapezoid-normalised 201-point
    # triweight table passes with no quadrature warning, and one whose mass
    # is off by 2e-6 is refused
    t = np.linspace(-1, 1, 201)
    k = (1 - t**2) ** 3
    k = k / np.sum(np.diff(t) * (k[1:] + k[:-1]) / 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tabulated_kernel(t, k)
    with pytest.raises(ConfigError, match="integrates to 1.00000200, not 1"):
        tabulated_kernel(t, k * (1 + 2e-6))
    # a grid wider than [-1, 1] is refused, even where it is zero outside
    wide = np.linspace(-2, 2, 9)
    with pytest.raises(ConfigError, match="from -1 to 1 in equal steps"):
        tabulated_kernel(wide, np.where(np.abs(wide) <= 1, 0.5, 0.0))


def test_tabulated_kernel_validation():
    t = np.linspace(-1, 1, 11)
    with pytest.raises(ConfigError, match="two equal 1-d columns"):
        tabulated_kernel(t, 0.75 * (1 - t[:-1] ** 2))  # one K(t) short
    with pytest.raises(ConfigError):
        tabulated_kernel(t, -np.ones_like(t))  # negative
    with pytest.raises(ConfigError):
        tabulated_kernel(t[::-1], np.ones_like(t))  # decreasing grid
    with pytest.raises(ConfigError):
        tabulated_kernel(t, np.full_like(t, 2.0))  # mass 4, not 1
    skew = np.linspace(0, 1, 11)
    with pytest.raises(ConfigError):
        tabulated_kernel(t, skew / np.sum(np.diff(t) * (skew[1:] + skew[:-1]) / 2))  # asymmetric
    for bad in (np.where(t == 0, np.nan, t), np.where(t == 1, np.inf, t)):
        with pytest.raises(ConfigError, match="finite"):
            tabulated_kernel(bad, 0.75 * (1 - t**2))  # a NaN or inf in t
    with pytest.raises(ConfigError, match="finite"):
        tabulated_kernel(t, np.where(t == 0, np.nan, 0.75 * (1 - t**2)))  # a NaN in K(t)


def test_tabulated_grid_runs_from_minus_one_to_one_in_equal_steps():
    t = np.linspace(-1, 1, 11)
    k = 0.75 * (1 - t**2)
    k = k / np.sum(np.diff(t) * (k[1:] + k[:-1]) / 2)
    tabulated_kernel(t + 1e-11 * np.sin(7 * t), k)  # within 1e-9 of a step
    for grid in (np.sign(t) * np.abs(t) ** 1.5,  # not uniform
                 np.linspace(-0.9, 0.9, 11),  # without +-1
                 np.linspace(-1, 1.1, 11)):  # without 1
        with pytest.raises(ConfigError, match="from -1 to 1 in equal steps"):
            tabulated_kernel(grid, k)


def test_tabulated_symmetry_is_checked_at_every_knot():
    # 1e-4 at t = 0.005 alone moves the mass by 5e-7 and lies between two
    # probes of a 101-point check; the knots t and -t disagree
    t = np.linspace(-1, 1, 401)
    k = (35.0 / 32.0) * (1 - t**2) ** 3
    k = k / np.sum(np.diff(t) * (k[1:] + k[:-1]) / 2)
    tabulated_kernel(t, k)
    k[201] += 1e-4
    with pytest.raises(ConfigError, match="not symmetric"):
        tabulated_kernel(t, k)


def _merged_breakpoint_constants(kern, knots):
    """(mu2, kstar0, kstar_l2, r_K, c_K) of a piecewise-linear kernel with an
    independent rule: each Kstar(s) by Gauss-Legendre on the pieces between
    the merged breakpoints {knots} and {knots - s}, Kstar^2 between the knot
    differences, where Kstar is a polynomial of degree <= 5."""
    nodes, weights = np.polynomial.legendre.leggauss(6)

    def gauss(f, cuts):
        a, b = cuts[:-1, None], cuts[1:, None]
        x = (a + b) / 2 + (b - a) / 2 * nodes
        return float(np.sum((b - a) / 2 * weights * f(x)))

    mu2 = gauss(lambda t: t * t * kern(t), knots)

    def kstar_oracle(s):
        lo, hi = max(-1.0, -1.0 - s), min(1.0, 1.0 - s)
        cuts = np.unique(np.clip(np.concatenate([knots, knots - s]), lo, hi))
        return gauss(lambda t: kern(t) * kern(s + t) * (1.0 + t * (s + t) / mu2), cuts)

    # Kstar is even: twice the integral over [0, 2]
    diffs = np.unique(np.round(knots - knots[0], 12))
    kstar_l2 = 2.0 * gauss(lambda s: np.vectorize(kstar_oracle)(s) ** 2, diffs)
    kstar0 = kstar_oracle(0.0)
    return mu2, kstar0, kstar_l2, 2 * kstar0 / kstar_l2, kstar0**2 / kstar_l2


@pytest.mark.parametrize("rows", [5, 11, 21])
def test_tabulated_constants_match_the_merged_breakpoint_rule(rows):
    t = np.linspace(-1, 1, rows)
    k = (1 - t**2) ** 3
    kern = tabulated_kernel(t, k / np.sum(np.diff(t) * (k[1:] + k[:-1]) / 2))
    np.testing.assert_allclose(astuple(kernel_constants(kern)),
                               _merged_breakpoint_constants(kern, t), rtol=1e-13, atol=0)
