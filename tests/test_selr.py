"""Test statistics, calibration, bootstrap and bandwidth selection."""

import math
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import gamma

from selrtest import (
    ConfigError,
    Dataset,
    Hypothesis,
    ParametricFamily,
    asymptotic_pvalue,
    bias_correct,
    bootstrap_null,
    const_coef,
    fit_local,
    kernel_by_name,
    kernel_constants,
    make_identity,
    make_smoothed_indicator,
    make_symmetric_indicator,
    sel_entropy,
    sel_full,
    select_bandwidth,
    selr_composite,
    selr_gof,
    selr_simple,
    selr_test,
    zero_coef,
)
from selrtest import local_el, selr, streams
from selrtest.errors import (
    DegenerateTestWarning,
    DerivativeUnavailable,
    Infeasible,
    NoRetainedWindows,
    NumericalError,
    ReplicateFailureWarning,
    SingularDesign,
)
from selrtest.local_el import _window
from selrtest.selr import CoefFn

from conftest import count_windows, random_dataset

TRIWEIGHT = kernel_by_name("triweight")
G2 = make_smoothed_indicator([0.0, 0.8, 3.5], width=0.3)


def small_dataset(rng, n=40, p=1, hetero=0.0, coef=None):
    return random_dataset(rng, n=n, p=p, hetero=hetero, coef=coef)


# ---------------------------------------------------------------------------
# hypothesis containers


def test_hypothesis_factories():
    assert Hypothesis.goodness_of_fit().kind == "goodness_of_fit"
    assert Hypothesis.simple([zero_coef()]).a0 is not None
    comp = Hypothesis.composite([const_coef(1.0)], [1])
    assert comp.fixed_idx == (1,)
    par = Hypothesis.parametric(ParametricFamily(lambda u, th: th[0] + 0 * u, 1), [0.0])
    assert par.theta_init == (0.0,)


def test_hypothesis_validation():
    with pytest.raises(ConfigError):
        Hypothesis.simple([zero_coef()], omega=(1.0, 0.0))
    with pytest.raises(ConfigError):
        Hypothesis.composite([], [])
    with pytest.raises(ConfigError):
        Hypothesis.composite([const_coef(0.0)], [0, 1])
    with pytest.raises(ConfigError, match="unknown hypothesis kind 'simple'"):
        Hypothesis("simple")  # a typo for simple_null


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_null_value_or_interval_is_refused(bad):
    # a NaN or infinite pin would reach the dual's LP certificate, and an
    # infinite omega end would give the calibration an infinite df
    with pytest.raises(ConfigError):
        const_coef(bad)
    for omega in ((0.2, bad), (bad, 0.5)):
        with pytest.raises(ConfigError):
            Hypothesis.simple([zero_coef()], omega=omega)


# ---------------------------------------------------------------------------
# building blocks against brute-force oracles


def test_sel_entropy_double_loop_oracle(rng):
    data = small_dataset(rng, n=30)
    h = 0.35
    got = sel_entropy(data, TRIWEIGHT, h, omega=(0.0, 1.0))
    total = 0.0
    for j in range(data.n):
        raw = np.array(
            [
                (35 / 32) * (1 - t**2) ** 3 if abs(t) <= 1 else 0.0
                for t in (data.u - data.u[j]) / h
            ]
        )
        w = raw / raw.sum()
        w = w[w > 0]
        total += float(np.sum(w * np.log(w)))
    assert abs(got - total) < 1e-10


def test_sel_full_per_point_assembly_oracle(rng):
    data = small_dataset(rng, n=30)
    h = 0.45
    got = sel_full(data, TRIWEIGHT, h, make_identity(), omega=(0.0, 1.0))
    total = sum(
        fit_local(data, TRIWEIGHT, h, float(u0), make_identity()).logel
        for u0 in data.u
    )
    assert abs(got - total) < 1e-8


def test_sel_full_equals_entropy_on_exact_fit(rng):
    n = 40
    u = rng.random(n)
    data = Dataset(u, np.ones((n, 1)), 1.0 + 2.0 * u)  # exact linear model
    h = 0.4
    full = sel_full(data, TRIWEIGHT, h, make_identity(), omega=(0.0, 1.0))
    ent = sel_entropy(data, TRIWEIGHT, h, omega=(0.0, 1.0))
    assert abs(full - ent) < 1e-8


def singular_middle_design(rng, n=100):
    """p = 2 with x2 = 0 on (0.4, 0.6): at h = 0.08 every window centred
    there has a singular local design."""
    u = np.linspace(0.005, 0.995, n)
    x2 = np.cos(7.0 * u)
    x2[(u > 0.4) & (u < 0.6)] = 0.0
    return Dataset(u, np.column_stack([np.ones(n), x2]), rng.normal(size=n))


def test_identity_full_fit_skips_singular_local_design(rng):
    # The identity full fit is the LLS fit, so a window without one is
    # skipped even when the walk carries a warm start from a neighbour
    # that did fit.
    data = singular_middle_design(rng)
    n, x2 = data.n, data.x[:, 1]
    h = 0.08
    walk = selr._walk(data, np.arange(n), selr._windows(data, TRIWEIGHT, h))
    rows = [(win, logel, beta, status) for _, wins, logels, betas, statuses
            in selr._full_fits(data, data.y[None], make_identity(), walk)
            for win, logel, beta, status in zip(wins, logels[0], betas[0], statuses[0])]
    singular = [row[1:] for row in rows if not np.any(x2[row[0].active])]
    assert len(singular) >= 5
    assert all(np.isnan(logel) and np.isnan(beta).all() and status is None
               for logel, beta, status in singular)
    prev = next(beta for win, logel, beta, _ in rows if not np.isnan(logel) and win.u0 < 0.4)
    with pytest.raises(SingularDesign):
        local_el._fit(_window(data, TRIWEIGHT, h, 0.5), data.y, make_identity(), prev)
    spec = Hypothesis.simple([zero_coef()] * 2)
    res = selr_simple(data, TRIWEIGHT, h, make_identity(), spec, include_full_term=True)
    assert res.n_infeasible_points >= len(singular)


def test_identity_full_fits_solve_each_window_once(monkeypatch, rng):
    # the closed form ignores the start, so a failed window is not retried
    data = singular_middle_design(rng)
    calls = Counter()
    stacked_lls = local_el._stacked_lls

    def counting_lls(wins, Y):
        calls.update(win.u0 for win in wins)
        return stacked_lls(wins, Y)

    monkeypatch.setattr(local_el, "_stacked_lls", counting_lls)
    walk = selr._walk(data, np.arange(data.n), selr._windows(data, TRIWEIGHT, 0.08))
    logel = np.concatenate([logels[0] for _, _, logels, _, _ in
                            selr._full_fits(data, data.y[None], make_identity(), walk)])
    assert np.isnan(logel).sum() >= 5
    assert sum(calls.values()) == data.n == len(calls)


def test_full_fit_arrays_skip_alike_in_every_replicate(rng):
    # R = 3 replicates of the singular design: the identity full fits mark a
    # skipped item by a NaN log-EL and a NaN beta row together; the composite
    # statistic skips those windows, and every other item equals its R = 1 walk
    data = singular_middle_design(rng)
    Y = data.y + rng.normal(size=(3, data.n))
    g, h = make_identity(), 0.08

    def full_fits(Y):
        walk = selr._walk(data, np.arange(data.n), selr._windows(data, TRIWEIGHT, h))
        blocks = [arrays for _, _, *arrays in selr._full_fits(data, Y, g, walk)]
        return [np.concatenate(arrays, axis=1) for arrays in zip(*blocks)]

    logel, beta, status = full_fits(Y)
    skipped = np.isnan(logel)
    assert skipped.all(axis=0).sum() >= 5 and not skipped.all()
    np.testing.assert_array_equal(np.isnan(beta).any(axis=2), skipped)
    np.testing.assert_array_equal(np.isnan(beta).all(axis=2), skipped)
    assert all(s is None for s in status[skipped])
    assert all(s == "converged" for s in status[~skipped])
    spec = Hypothesis.composite([zero_coef()], [1])
    terms = selr._statistics(data, Y, TRIWEIGHT, h, g, spec,
                             windows=selr._windows(data, TRIWEIGHT, h))
    for r, y in enumerate(Y):
        one = full_fits(y[None])
        np.testing.assert_array_equal(logel[r], one[0][0])
        np.testing.assert_array_equal(beta[r], one[1][0])
        assert status[r].tolist() == one[2][0].tolist()
        single = selr_composite(Dataset(data.u, data.x, y), TRIWEIGHT, h, g, spec)
        # u is increasing, so the walk's order is the evaluation points' order
        assert [(None, "skipped") if math.isnan(c) else (c, s) for c, s in
                zip(terms.contribs[r].tolist(), terms.statuses[r])] == [
            (pt["contribution"], pt["status"]) for pt in single.per_point]
        assert np.isnan(terms.contribs[r][skipped[r]]).all()


@pytest.mark.filterwarnings("ignore::selrtest.errors.ThinWindowWarning")
@pytest.mark.filterwarnings("ignore::selrtest.errors.DegenerateTestWarning")  # identity GOF
@pytest.mark.parametrize("kind", ["simple", "simple_full", "gof", "composite"])
def test_window_results_do_not_depend_on_chunk_mates(monkeypatch, rng, kind):
    """Each batch stage gives a window the same contribution and status
    whether its window block holds up to _BLOCK_VALUES kernel values or that
    window alone."""
    spec = {"simple": Hypothesis.simple([zero_coef()] * 2),
            "simple_full": Hypothesis.simple([zero_coef()] * 2),
            "gof": Hypothesis.goodness_of_fit(),
            "composite": Hypothesis.composite([const_coef(0.5)], [1])}[kind]
    cases = [(singular_middle_design(rng), 0.08),  # skips the singular windows
             (small_dataset(rng, n=120, p=2, hetero=1.0), 0.3)]

    def per_point(data, h):
        res = selr_test(data, TRIWEIGHT, h, make_identity(), spec,
                        include_full_term=kind == "simple_full")
        return [(pt["contribution"], pt["status"]) for pt in res.per_point]

    blocked = [per_point(data, h) for data, h in cases]
    monkeypatch.setattr(local_el, "_BLOCK_VALUES", 1)  # one window per block
    alone = [per_point(data, h) for data, h in cases]
    assert alone == blocked
    if kind != "simple":
        assert any(c is None for c, _ in blocked[0])
    assert all(c is not None for c, _ in blocked[1])


# ---------------------------------------------------------------------------
# goodness of fit


def test_gof_perfect_fit_statistic_zero(rng):
    n = 50
    u = rng.random(n)
    data = Dataset(u, np.ones((n, 1)), 0.5 - 0.3 * u)  # zero residuals
    res = selr_gof(data, TRIWEIGHT, 0.4, G2, Hypothesis.goodness_of_fit(omega=(0, 1)))
    assert abs(res.statistic) < 1e-8
    assert res.p_asymptotic > 0.999


def test_gof_decomposition_identity(rng):
    # the statistic equals the double sum of w log(1 + alpha'G) at the
    # unconstrained per-point fits
    data = small_dataset(rng, n=40)
    h = 0.5
    res = selr_gof(data, TRIWEIGHT, h, G2, Hypothesis.goodness_of_fit(omega=(0, 1)))
    # walk the windows in the same warm-started sorted order the statistic
    # uses, so both sides evaluate the identity at the same per-point fits
    total = 0.0
    prev = None
    for u0 in np.sort(data.u):
        fit = fit_local(data, TRIWEIGHT, h, float(u0), G2, init=prev)
        prev = fit.beta
        win = _window(data, TRIWEIGHT, h, float(u0))
        active, wa, z = win.active, win.w, win.z
        resid = data.y[active] - z @ fit.beta.vector
        moments = (G2.batch(resid)[:, :, None] * z[:, None, :]).reshape(len(active), -1)
        total += float(wa @ np.log1p(moments @ fit.alpha))
    assert abs(res.statistic - total) < 1e-8


def test_gof_single_constraint_degenerate(rng):
    data = small_dataset(rng, n=40)
    with pytest.warns(DegenerateTestWarning):
        res = selr_gof(
            data, TRIWEIGHT, 0.4, make_identity(), Hypothesis.goodness_of_fit()
        )
    assert res.df == 0.0
    assert np.isnan(res.p_asymptotic)


def test_gof_df_arithmetic(rng):
    data = small_dataset(rng, n=60)
    res = selr_gof(data, TRIWEIGHT, 0.25, G2, Hypothesis.goodness_of_fit(omega=(0, 1)))
    c_k = kernel_constants(TRIWEIGHT).c_K
    # df = (k0 - 1) p |Omega| c_K / h, scaled by the retained fraction
    retained = 1.0 - res.n_infeasible_points / data.n
    assert abs(res.df - (G2.k0 - 1) * 1 * 1 * c_k / 0.25 * retained) < 1e-10
    spec = Hypothesis.goodness_of_fit(omega=(0, 1), no_estimated_coefficients=True)
    res2 = selr_gof(data, TRIWEIGHT, 0.25, G2, spec)
    retained2 = 1.0 - res2.n_infeasible_points / data.n
    assert abs(res2.df - G2.k0 * c_k / 0.25 * retained2) < 1e-10


# ---------------------------------------------------------------------------
# simple null


def test_simple_exact_null_statistic_zero(rng):
    n = 50
    u = rng.random(n)
    a0 = CoefFn(lambda v: 1.0 + np.sin(v), lambda v: np.cos(v))
    data = Dataset(u, np.ones((n, 1)), a0.value(u))  # zero noise
    res = selr_simple(data, TRIWEIGHT, 0.4, make_identity(), Hypothesis.simple([a0]))
    assert abs(res.statistic) < 1e-10


def test_simple_matches_bisection_double_loop_oracle(rng):
    # independent reassembly of the k0 = 1 statistic: per window, solve the
    # two-dimensional dual by nested scalar bisections is impractical, so use
    # p = 1 with the slope column dropped by a pure-intercept design instead:
    # here we simply recompute with the package's own pieces replaced by a
    # from-scratch Newton on the scalar profile via brentq per coordinate.
    data = small_dataset(rng, n=25)
    h = 0.5
    spec = Hypothesis.simple([zero_coef()], omega=(0.0, 1.0))
    res = selr_simple(data, TRIWEIGHT, h, make_identity(), spec)

    def dual_2d(moments, w):
        # coordinate-wise brentq ascent on the concave dual; independent of
        # the package's damped-Newton implementation
        alpha = np.zeros(2)
        for _ in range(400):
            moved = 0.0
            for k in range(2):
                gk = moments[:, k]

                def psi(a):
                    step = alpha.copy()
                    step[k] = a
                    return float(np.sum(w * gk / (1.0 + moments @ step)))

                denom_rest = 1.0 + moments @ alpha - alpha[k] * gk
                with np.errstate(divide="ignore"):
                    ratio = -denom_rest[gk != 0] / gk[gk != 0]
                lo = max(ratio[ratio < alpha[k]].max(), -1e8) + 1e-12 if np.any(
                    ratio < alpha[k]
                ) else -1e8
                hi = min(ratio[ratio > alpha[k]].min(), 1e8) - 1e-12 if np.any(
                    ratio > alpha[k]
                ) else 1e8
                new = brentq(psi, lo, hi, xtol=1e-15)
                moved = max(moved, abs(new - alpha[k]))
                alpha[k] = new
            if moved < 1e-13:
                break
        return alpha

    total = 0.0
    for u0 in data.u:
        win = _window(data, TRIWEIGHT, h, float(u0))
        active, wa, z = win.active, win.w, win.z
        moments = data.y[active][:, None] * z
        alpha = dual_2d(moments, wa)
        total += float(wa @ np.log1p(moments @ alpha))
    assert abs(res.statistic - total) < 1e-8


def test_simple_scale_invariance(rng):
    data = small_dataset(rng, n=60, hetero=2.0)
    spec = Hypothesis.simple([zero_coef()], omega=(0.0, 1.0))
    base = selr_simple(data, TRIWEIGHT, 0.4, make_identity(), spec).statistic
    for c in (0.1, 5.0, 400.0):
        scaled_data = Dataset(data.u, data.x, c * data.y)
        scaled = selr_simple(scaled_data, TRIWEIGHT, 0.4, make_identity(), spec).statistic
        assert abs(scaled - base) <= 1e-8 * max(1.0, abs(base))


def test_simple_permutation_invariance(rng):
    data = small_dataset(rng, n=50)
    spec = Hypothesis.simple([zero_coef()], omega=(0.0, 1.0))
    base = selr_simple(data, TRIWEIGHT, 0.45, make_identity(), spec).statistic
    perm = rng.permutation(data.n)
    shuffled = Dataset(data.u[perm], data.x[perm], data.y[perm])
    other = selr_simple(shuffled, TRIWEIGHT, 0.45, make_identity(), spec).statistic
    assert abs(other - base) <= 1e-8 * max(1.0, abs(base))


def test_simple_nonnegative_and_df(rng):
    for _ in range(5):
        data = small_dataset(rng, n=45, hetero=1.0)
        spec = Hypothesis.simple([zero_coef()], omega=(0.0, 1.0))
        res = selr_simple(data, TRIWEIGHT, 0.5, make_identity(), spec)
        assert res.statistic >= -1e-8
        c_k = kernel_constants(TRIWEIGHT).c_K
        retained = 1.0 - res.n_infeasible_points / data.n
        assert abs(res.df - c_k / 0.5 * retained) < 1e-10


def test_simple_full_term_default_by_k0(rng):
    data = small_dataset(rng, n=45)
    spec = Hypothesis.simple([zero_coef()], omega=(0.0, 1.0))
    # with the identity G the full fit is the LLS fit, where the full term
    # is exactly 0, so forcing it back in leaves the statistic as it is
    a = selr_simple(data, TRIWEIGHT, 0.5, make_identity(), spec).statistic
    b = selr_simple(
        data, TRIWEIGHT, 0.5, make_identity(), spec, include_full_term=True
    ).statistic
    assert abs(a - b) <= 1e-12 * abs(a)


def test_simple_needs_a0(rng):
    data = small_dataset(rng)
    with pytest.raises(ConfigError):
        selr_simple(data, TRIWEIGHT, 0.4, make_identity(), Hypothesis.goodness_of_fit())


@pytest.mark.parametrize("h", [0.0, -0.3])
def test_nonpositive_bandwidth_rejected(rng, h):
    # a negative h mirrors the symmetric kernel and would yield negative df
    data = small_dataset(rng)
    with pytest.raises(ConfigError):
        selr_simple(data, TRIWEIGHT, h, make_identity(), Hypothesis.simple([zero_coef()]))
    with pytest.raises(ConfigError):
        sel_entropy(data, TRIWEIGHT, h)


# ---------------------------------------------------------------------------
# composite null


def test_composite_nonnegative_nesting(rng):
    data = small_dataset(rng, n=60, p=2)
    spec = Hypothesis.composite([zero_coef()], [1], omega=(0.0, 1.0))
    res = selr_composite(data, TRIWEIGHT, 0.5, make_identity(), spec)
    assert res.statistic >= -1e-8
    c_k = kernel_constants(TRIWEIGHT).c_K
    retained = 1.0 - res.n_infeasible_points / data.n
    assert abs(res.df - 1 * c_k / 0.5 * retained) < 1e-10


def test_composite_reports_the_constrained_fit(monkeypatch, rng):
    # a window the batch certifies reads "converged"; a handed-off window
    # reads the status of its BFGS fit
    data = small_dataset(rng, n=60, p=2)
    spec = Hypothesis.composite([zero_coef()], [1], omega=(0.0, 1.0))
    batch, fit = local_el._batch_profile, local_el._fit
    handed, n_handed = set(), []

    def halved_batch(*args):
        value, *rest = batch(*args)
        value[1::2] = np.nan  # every other window handed off
        n_handed.append(int(np.isnan(value).sum()))
        return value, *rest

    def marked_bfgs(win, y, g, init=None, free_idx=None, fixed_vec=None):
        assert free_idx is not None  # the identity full fit needs no search
        handed.add(win.u0)
        return replace(fit(win, y, g, init, free_idx, fixed_vec), status="max_iter")

    monkeypatch.setattr(local_el, "_batch_profile", halved_batch)
    monkeypatch.setattr(local_el, "_fit", marked_bfgs)
    res = selr_composite(data, TRIWEIGHT, 0.5, make_identity(), spec)
    kept = [pt for pt in res.per_point if pt["contribution"] is not None]
    assert handed and len(handed) < len(kept)
    assert len(handed) == sum(n_handed)  # each handoff fits once, by BFGS
    for pt in kept:
        assert pt["status"] == ("max_iter" if pt["u0"] in handed else "converged")


def test_composite_requires_partial_pin(rng):
    data = small_dataset(rng, n=40, p=1)
    spec = Hypothesis.composite([zero_coef()], [0], omega=(0.0, 1.0))
    with pytest.raises(ConfigError):
        selr_composite(data, TRIWEIGHT, 0.4, make_identity(), spec)


def test_composite_pins_in_the_order_given(rng):
    # a10[k] pins coefficient fixed_idx[k]: the null A2 = 3, A3 = 1 written
    # out of index order is the same null
    coef = [lambda u: 0.5 * u, lambda u: np.full_like(u, 3.0), lambda u: np.full_like(u, 1.0)]
    data = small_dataset(rng, n=150, p=3, coef=coef)
    g = make_identity()
    swapped = Hypothesis.composite([const_coef(1.0), const_coef(3.0)], [2, 1])
    ordered = Hypothesis.composite([const_coef(3.0), const_coef(1.0)], [1, 2])
    got = selr_composite(data, TRIWEIGHT, 0.4, g, swapped)
    want = selr_composite(data, TRIWEIGHT, 0.4, g, ordered)
    assert got.statistic == want.statistic
    assert got.per_point == want.per_point
    with pytest.raises(ConfigError):  # one coefficient pinned twice
        selr_composite(data, TRIWEIGHT, 0.4, g,
                       Hypothesis.composite([const_coef(3.0), const_coef(1.0)], [1, 1]))


def test_composite_pin_from_a_scalar_coefficient_function(rng):
    # a CoefFn that returns a scalar pins every point, as in the simple null
    data = small_dataset(rng, n=60, p=2)
    g = make_identity()
    scalar = Hypothesis.composite([CoefFn(lambda u: 1.5, lambda u: 0.0)], [1])
    got = selr_composite(data, TRIWEIGHT, 0.4, g, scalar)
    want = selr_composite(data, TRIWEIGHT, 0.4, g, Hypothesis.composite([const_coef(1.5)], [1]))
    assert got.to_dict() == want.to_dict()


def test_bootstrap_refuses_an_out_of_range_pin(rng):
    # the draw's null fit is the first to read the pins, and it checks them
    # as the statistic does
    data = small_dataset(rng, n=40, p=2)
    spec = Hypothesis.composite([zero_coef()], [5])
    with pytest.raises(ConfigError):
        bootstrap_null(data, TRIWEIGHT, 0.4, make_identity(), spec, B=2)


def test_bootstrap_refuses_a_short_a0_before_any_window(monkeypatch, rng):
    # the draw's null fit is the first to read a0, and it checks it as the
    # statistic does: before any window or draw
    def fail(*args):
        raise AssertionError("work done before a0 was checked")

    monkeypatch.setattr(local_el, "_window_block", fail)
    monkeypatch.setattr(streams, "substream", fail)
    data = small_dataset(rng, n=40, p=2)
    spec = Hypothesis.simple([zero_coef()])
    with pytest.raises(ConfigError, match="a0 must supply 2 coefficient functions"):
        bootstrap_null(data, TRIWEIGHT, 0.4, make_identity(), spec, B=2)


# ---------------------------------------------------------------------------
# calibration and p-values


def test_asymptotic_pvalue_endpoints():
    assert asymptotic_pvalue(0.0, 2.0, 4.0) == 1.0
    assert asymptotic_pvalue(1e6, 2.0, 4.0) < 1e-12
    # median of chi2_df sits slightly below df
    p_at_df = asymptotic_pvalue(4.0 / 2.0, 2.0, 4.0)
    assert 0.40 < p_at_df < 0.50


def test_asymptotic_pvalue_degenerate():
    with pytest.warns(DegenerateTestWarning):
        assert np.isnan(asymptotic_pvalue(1.0, 2.0, 0.0))


def test_asymptotic_pvalue_is_scipy_stats_gamma_tail():
    # the chi-squared tail from scipy.special, value for value, including
    # below 0 (where gammaincc alone is NaN), at 0, at inf and at NaN
    stats = [-np.inf, -3.0, -1e-300, -0.0, 0.0, 1e-300, 1e-3, 0.5, 1.0, 2.5, 7.0, 30.0,
             300.0, 1e4, np.inf, np.nan]
    for r_k in (1.0, 2.5154):
        for df in (0.3, 1.0, 2.0, 4.7, 10.0, 57.5):
            for stat in stats:
                got = asymptotic_pvalue(stat, r_k, df)
                want = float(gamma.sf(r_k * stat, a=df / 2.0, scale=2.0))
                assert got == want or (np.isnan(got) and np.isnan(want)), (r_k, df, stat)


def test_result_dict_schema(rng):
    data = small_dataset(rng, n=40)
    spec = Hypothesis.simple([zero_coef()], omega=(0.0, 1.0))
    doc = selr_simple(data, TRIWEIGHT, 0.4, make_identity(), spec).to_dict()
    assert set(doc) == {
        "hypothesis", "kernel", "h", "statistic", "scaled", "df", "r_K", "c_K",
        "p_asymptotic", "p_bootstrap", "B", "n_skipped", "n_clamped", "retained_frac",
        "per_point",
    }
    assert doc["hypothesis"] == "simple_null"
    assert doc["p_bootstrap"] is None


# ---------------------------------------------------------------------------
# parametric null and dispatch


def test_bias_correct_linear_family_closed_form(rng):
    n = 80
    u = rng.random(n)
    y = 1.5 - 2.0 * u + 0.1 * rng.normal(size=n)
    data = Dataset(u, np.ones((n, 1)), y)
    family = ParametricFamily(lambda v, th: th[0] + th[1] * v, 2)
    theta, star = bias_correct(data, family, [0.0, 0.0])
    design = np.column_stack([np.ones(n), u])
    ref, *_ = np.linalg.lstsq(design, y, rcond=None)
    np.testing.assert_allclose(theta, ref, atol=1e-8)
    np.testing.assert_allclose(star.y, y - design @ ref, atol=1e-8)


def test_bias_correct_exact_and_constant(rng):
    n = 50
    u = rng.random(n)
    data = Dataset(u, np.ones((n, 1)), 3.0 - 1.0 * u)
    family = ParametricFamily(lambda v, th: th[0] + th[1] * v, 2)
    theta, star = bias_correct(data, family, [0.0, 0.0])
    np.testing.assert_allclose(theta, [3.0, -1.0], atol=1e-8)
    assert np.max(np.abs(star.y)) < 1e-8
    const = ParametricFamily(lambda v, th: th[0] + 0.0 * v, 1)
    theta_c, _ = bias_correct(data, const, [0.0])
    assert abs(theta_c[0] - data.y.mean()) < 1e-8


def test_bias_correct_refuses_theta_init_of_the_wrong_dimension(rng):
    family = ParametricFamily(lambda v, th: th[0] + th[1] * v, 2)
    with pytest.raises(ConfigError, match="theta_init has wrong dimension"):
        bias_correct(small_dataset(rng, n=30), family, [0.0])


def test_selr_test_dispatch_parametric(rng):
    data = small_dataset(rng, n=50)
    family = ParametricFamily(lambda v, th: th[0] + 0.0 * v, 1)
    spec = Hypothesis.parametric(family, [0.0], omega=(0.0, 1.0))
    res = selr_test(data, TRIWEIGHT, 0.4, make_identity(), spec)
    assert res.hypothesis == "parametric_null"
    # equivalent manual route
    _, star = bias_correct(data, family, [0.0])
    manual = selr_simple(
        star, TRIWEIGHT, 0.4, make_identity(),
        Hypothesis.simple([zero_coef()], omega=(0.0, 1.0)),
    )
    assert abs(res.statistic - manual.statistic) < 1e-10


def test_parametric_null_needs_family_and_start():
    family = ParametricFamily(lambda v, th: th[0] + 0.0 * v, 1)
    for kwargs in ({}, {"family": family}, {"theta_init": (0.0,)}):
        with pytest.raises(ConfigError, match="parametric_null needs family and theta_init"):
            Hypothesis("parametric_null", **kwargs)


def test_simple_null_needs_a0():
    """Refused where it is built, so no caller (bootstrap_null draws its
    null fit before any statistic) meets a simple null without coefficient
    functions."""
    with pytest.raises(ConfigError, match="simple_null needs coefficient functions a0"):
        Hypothesis("simple_null")


def test_selr_test_unknown_kind(rng):
    data = small_dataset(rng)
    with pytest.raises(ConfigError, match="unknown hypothesis kind"):
        selr_test(data, TRIWEIGHT, 0.4, make_identity(), Hypothesis("mystery"))


def test_all_windows_skipped_raises(rng):
    """A statistic with every window skipped is refused, not reported as 0."""
    data = small_dataset(rng, n=60)
    positive = Dataset(data.u, data.x, np.abs(data.y) + 1.0)  # no window holds 0
    with pytest.raises(NoRetainedWindows):
        selr_simple(positive, TRIWEIGHT, 0.3, make_identity(), Hypothesis.simple([zero_coef()]))


@pytest.mark.parametrize("spec", [
    Hypothesis.goodness_of_fit(),
    Hypothesis.composite([const_coef(0.0)], [1]),
    Hypothesis.simple([zero_coef()] * 2),
])
def test_hard_indicator_refused_before_any_window(monkeypatch, rng, spec):
    """A statistic that needs the profile fit refuses a G without derivative
    up front; the simple null with k0 > 1 includes the full term by default."""
    data = small_dataset(rng, n=40, p=2)
    built = []
    monkeypatch.setattr(local_el, "_window_block", lambda *args: built.append(args))
    g = make_symmetric_indicator([0.0, 0.8, 2.0])
    with pytest.raises(DerivativeUnavailable) as exc:
        selr_test(data, TRIWEIGHT, 0.4, g, spec)
    assert isinstance(exc.value, ConfigError)
    assert built == []


def test_hard_indicator_simple_null_without_full_term(rng):
    data = small_dataset(rng, n=60)
    g = make_symmetric_indicator([0.0, 0.8, 2.0])
    res = selr_test(data, TRIWEIGHT, 0.4, g, Hypothesis.simple([zero_coef()]),
                    include_full_term=False)
    assert np.isfinite(res.statistic) and res.df > 0


def test_simple_solves_null_terms_a_block_at_a_time(monkeypatch, rng):
    """At n = 800 one selr_simple call hands the batched dual solver one
    window block at a time, at most max(1, _BLOCK_VALUES // n) windows, and
    still builds each window once."""
    data = small_dataset(rng, n=800)
    build = local_el._window_block
    built = count_windows(monkeypatch)
    batches = []
    solve = selr._log_ratios

    def recording_solve(wins, *args):
        batches.append(wins)
        return solve(wins, *args)

    monkeypatch.setattr(selr, "_log_ratios", recording_solve)
    selr_simple(data, TRIWEIGHT, 0.3, make_identity(), Hypothesis.simple([zero_coef()]))
    assert len(batches) > 1
    assert max(len(wins) for wins in batches) <= max(1, local_el._BLOCK_VALUES // data.n)
    windows = build(data, TRIWEIGHT, 0.3, data.u)
    assert sum(len(win.active) for wins in batches for win in wins) == sum(
        len(win.active) for win in windows)
    assert len(built) == data.n
    assert set(built.values()) == {1}


# ---------------------------------------------------------------------------
# bootstrap


def test_bootstrap_deterministic_and_p_range(rng):
    data = small_dataset(rng, n=45, hetero=1.0)
    spec = Hypothesis.simple([zero_coef()], omega=(0.0, 1.0))
    s1, p1 = bootstrap_null(data, TRIWEIGHT, 0.45, make_identity(), spec, B=20, seed=3)
    s2, p2 = bootstrap_null(data, TRIWEIGHT, 0.45, make_identity(), spec, B=20, seed=3)
    np.testing.assert_allclose(s1, s2)
    assert p1 == p2
    assert 1 / 21 <= p1 <= 1.0


def test_bootstrap_extreme_observed(rng):
    # row 0 of the statistics is the observed one, the rest the replicates'
    data = small_dataset(rng, n=45)
    spec = Hypothesis.simple([zero_coef()], omega=(0.0, 1.0))
    sample, _ = bootstrap_null(data, TRIWEIGHT, 0.45, make_identity(), spec, B=9, seed=1)
    assert len(sample) == 9 and 0.0 < sample.min() and sample.max() < 1e9
    kept, p = selr._bootstrap(np.r_[1e9, sample])
    assert p == 0.1  # (1 + 0) / (9 + 1)
    np.testing.assert_array_equal(kept, sample)
    _, p = selr._bootstrap(np.r_[0.0, sample])
    assert p == 1.0


def test_bootstrap_schemes_run(rng):
    data = small_dataset(rng, n=45, hetero=1.0)
    spec = Hypothesis.simple([zero_coef()], omega=(0.0, 1.0))
    for scheme in ("gaussian", "wild", "resample"):
        sample, p = bootstrap_null(
            data, TRIWEIGHT, 0.45, make_identity(), spec, B=8, scheme=scheme, seed=2
        )
        assert len(sample) == 8 and np.all(np.isfinite(sample))


@pytest.mark.parametrize("method, B, scheme", [
    ("bootstrap_null", 2, "jackknife"),
    ("bootstrap_null", 0, "gaussian"),
    ("select_bandwidth", 3, "bogus"),
    ("select_bandwidth", -3, "gaussian"),
])
def test_bad_bootstrap_arguments_refused_before_any_walk(monkeypatch, rng, method, B, scheme):
    # an unknown scheme or too few replicates is refused before the observed
    # statistic, or any grid bandwidth's, walks the windows
    data = small_dataset(rng, n=45)
    spec = Hypothesis.simple([zero_coef()], omega=(0.0, 1.0))
    walks = []
    real = selr._statistics

    def spy(*args, **kwargs):
        walks.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(selr, "_statistics", spy)
    with pytest.raises(ConfigError):
        if method == "bootstrap_null":
            bootstrap_null(data, TRIWEIGHT, 0.45, make_identity(), spec, B=B, scheme=scheme)
        else:
            select_bandwidth(data, TRIWEIGHT, make_identity(), spec, [0.3, 0.45], B=B,
                             scheme=scheme)
    assert walks == []


def test_bootstrap_builds_each_window_once(monkeypatch, rng):
    """Replicates share u and x with the observed data, so one bootstrap_null
    call walks the design's windows once for the variance smoother and once
    for the observed statistic and all B replicates together: each centre is
    built twice, whatever B."""
    data = small_dataset(rng, n=60)
    built = count_windows(monkeypatch,
                          lambda dset, h, u0: (dset.u.tobytes(), dset.x.tobytes(), u0))
    spec = Hypothesis.simple([zero_coef()])
    for B in (5, 12):
        built.clear()
        sample, _ = bootstrap_null(data, TRIWEIGHT, 0.4, make_identity(), spec, B=B,
                                   scheme="gaussian", include_full_term=True)
        assert len(sample) == B
        assert len(built) == data.n
        assert set(built.values()) == {2}


def test_bootstrap_rebuilds_windows_past_the_cap(monkeypatch, rng):
    """The bootstrap keeps no window past its walk, so no cap on kept bytes
    applies: with one window per block and one replicate per stacked batch,
    each walk still builds each centre once, and the sample stays the same."""
    data = small_dataset(rng, n=60)
    spec = Hypothesis.simple([zero_coef()])
    args = (data, TRIWEIGHT, 0.4, make_identity(), spec)
    blocked, _ = bootstrap_null(*args, B=5, include_full_term=True)
    built = count_windows(monkeypatch)
    monkeypatch.setattr(local_el, "_BLOCK_VALUES", 1)
    monkeypatch.setattr(local_el, "_group_size", lambda rows: 1)
    sample, _ = bootstrap_null(*args, B=5, include_full_term=True)
    np.testing.assert_array_equal(sample, blocked)
    assert len(built) == data.n
    assert set(built.values()) == {2}


def test_bootstrap_counts_all_skipped_replicates_as_failed(monkeypatch, rng):
    """A replicate whose windows are all skipped fails instead of adding a
    statistic of 0 to the null sample."""
    data = small_dataset(rng, n=60)
    draw = selr._replicate_errors
    drawn = []

    def errors(resid, sigma2, scheme, gen):
        errs = draw(resid, sigma2, scheme, gen)
        drawn.append(errs)
        # the first two replicates put every response far above the null
        return np.abs(errs) + 10.0 if len(drawn) <= 2 else errs

    monkeypatch.setattr(selr, "_replicate_errors", errors)
    spec = Hypothesis.simple([zero_coef()])
    with pytest.warns(ReplicateFailureWarning, match="2/5"):
        sample, _ = bootstrap_null(data, TRIWEIGHT, 0.4, make_identity(), spec, B=5)
    assert len(sample) == 3
    assert np.all(sample > 0)


def bootstrap_replicates(data, h, spec, B, scheme="gaussian", seed=0):
    """The datasets of bootstrap_null's B replicates, drawn as it draws them."""
    windows = selr._windows(data, TRIWEIGHT, h)
    m = selr._null_fitted_values(data, TRIWEIGHT, h, spec, windows)
    resid = data.y - m
    sigma2 = selr._sigma2_hat(data, resid, windows) if scheme == "gaussian" else None
    return [Dataset(data.u, data.x, m + selr._replicate_errors(
        resid, sigma2, scheme, streams.substream(seed, b))) for b in range(B)]


def far_above_null(monkeypatch, B, which):
    """Make replicate ``which`` of each run of B draws put every response far
    above the null, so that a simple null skips all its windows."""
    draw = selr._replicate_errors
    drawn = []

    def errors(resid, sigma2, scheme, gen):
        errs = draw(resid, sigma2, scheme, gen)
        drawn.append(errs)
        return np.abs(errs) + 10.0 if (len(drawn) - 1) % B == which else errs

    monkeypatch.setattr(selr, "_replicate_errors", errors)


# kind: (p, hypothesis, include_full_term, G, whether a replicate far above
# the null skips every window); the goodness-of-fit and composite full fits
# absorb the shift, so no replicate of theirs skips every window
REPLICATE_KINDS = {
    "simple": (1, Hypothesis.simple([zero_coef()]), None, make_identity(), True),
    "simple_full": (2, Hypothesis.simple([zero_coef()] * 2), True, make_identity(), True),
    "gof_identity": (2, Hypothesis.goodness_of_fit(), None, make_identity(), False),
    "gof_smoothed": (2, Hypothesis.goodness_of_fit(), None, G2, False),
    "composite": (2, Hypothesis.composite([const_coef(0.5)], [1]), None, make_identity(),
                  False),
    # a bounded null family: its fit cannot absorb the shift either
    "parametric": (1, Hypothesis.parametric(ParametricFamily(
        lambda u, th: 0.1 * np.sin(th[0]) + 0.0 * u, 1), [0.0]), None, make_identity(), True),
}


@pytest.mark.filterwarnings("ignore::selrtest.errors.DegenerateTestWarning")  # identity GOF
@pytest.mark.filterwarnings("ignore::selrtest.errors.ReplicateFailureWarning")
@pytest.mark.parametrize("kind", list(REPLICATE_KINDS))
def test_bootstrap_sample_is_each_replicates_statistic(monkeypatch, rng, kind):
    """The replicate axis changes no statistic: bootstrap_null's sample is,
    bit for bit, the statistic of each replicate's own dataset.  Replicates
    are stacked four to a batch, so one batch is partial, and a replicate
    whose windows are all skipped fails alone."""
    p, spec, full, g, skips = REPLICATE_KINDS[kind]
    data = small_dataset(rng, n=40, p=p, hetero=1.0)
    B, h = 6, 0.4
    far_above_null(monkeypatch, B, 2)
    monkeypatch.setattr(local_el, "_group_size", lambda rows: 4)
    sample, _ = bootstrap_null(data, TRIWEIGHT, h, g, spec, B=B, include_full_term=full)
    want, failed = [], []
    for b, rep in enumerate(bootstrap_replicates(data, h, spec, B)):
        try:
            want.append(selr_test(rep, TRIWEIGHT, h, g, spec, include_full_term=full).statistic)
        except NumericalError:
            failed.append(b)
    assert sample.tolist() == want
    assert failed == ([2] if skips else [])


def test_bootstrap_assembles_only_the_observed_result(monkeypatch, rng):
    """The replicates' statistics are read from the terms arrays: a result,
    with its per_point list, is built for the observed statistic alone."""
    data = small_dataset(rng, n=40)
    calls = Counter()
    assemble = selr._assemble

    def spy(*args, **kwargs):
        calls["assemble"] += 1
        return assemble(*args, **kwargs)

    monkeypatch.setattr(selr, "_assemble", spy)
    sample, _ = bootstrap_null(data, TRIWEIGHT, 0.4, make_identity(),
                               Hypothesis.simple([zero_coef()]), B=5)
    assert len(sample) == 5
    assert calls["assemble"] == 1


@pytest.mark.filterwarnings("ignore::selrtest.errors.ReplicateFailureWarning")
def test_failed_parametric_correction_fails_its_replicate_alone(monkeypatch, rng):
    """A replicate whose bias correction fails gets a NaN row and its error;
    the other replicates keep their own statistics, and a single statistic
    raises that error rather than NoRetainedWindows."""
    data = small_dataset(rng, n=50)
    spec = Hypothesis.parametric(ParametricFamily(lambda v, th: th[0] + 0.0 * v, 1), [0.0])
    Y = data.y + rng.normal(size=(3, data.n))
    correct = selr.bias_correct

    def failing(dset, family, theta_init):
        if np.array_equal(dset.y, Y[1]):
            raise NumericalError("forced correction failure")
        return correct(dset, family, theta_init)

    monkeypatch.setattr(selr, "bias_correct", failing)
    terms = selr._statistics(data, Y, TRIWEIGHT, 0.4, make_identity(), spec,
                             windows=selr._windows(data, TRIWEIGHT, 0.4))
    assert list(terms.errors) == [1] and np.isnan(terms.contribs[1]).all()
    stat, retained = terms.totals()
    assert np.isnan(stat[1]) and retained[1] == 0.0
    for r in (0, 2):
        rep = Dataset(data.u, data.x, Y[r])
        assert stat[r] == selr_test(rep, TRIWEIGHT, 0.4, make_identity(), spec).statistic
    with pytest.raises(NumericalError, match="forced correction failure"):
        selr_test(Dataset(data.u, data.x, Y[1]), TRIWEIGHT, 0.4, make_identity(), spec)


@pytest.mark.filterwarnings("ignore::selrtest.errors.ReplicateFailureWarning")
def test_select_bandwidth_sample_is_each_replicates_maximum(monkeypatch, rng):
    """The calibration sample of select_bandwidth is, bit for bit, the
    maximum over the grid of each replicate's own standardized statistic,
    and a replicate whose windows are all skipped fails alone."""
    data = small_dataset(rng, n=50, hetero=1.0)
    spec = Hypothesis.simple([zero_coef()])
    grid, B = [0.3, 0.45], 6
    far_above_null(monkeypatch, B, 2)
    monkeypatch.setattr(local_el, "_group_size", lambda rows: 4)
    samples = []
    bootstrap = selr._bootstrap

    def recording(*args):
        sample, p = bootstrap(*args)
        samples.append(sample)
        return sample, p

    monkeypatch.setattr(selr, "_bootstrap", recording)
    select_bandwidth(data, TRIWEIGHT, make_identity(), spec, grid, B=B)
    want = []
    for b, rep in enumerate(bootstrap_replicates(data, min(grid), spec, B)):
        if b == 2:
            with pytest.raises(NumericalError):
                select_bandwidth(rep, TRIWEIGHT, make_identity(), spec, grid)
            continue
        want.append(select_bandwidth(rep, TRIWEIGHT, make_identity(), spec, grid).statistic)
    assert samples[0].tolist() == want


# ---------------------------------------------------------------------------
# bandwidth selection


def test_select_bandwidth_builds_replicate_windows_once(monkeypatch, rng):
    """Without a bootstrap each (h, centre) window is built once.  With one,
    the observed statistic and the replicates share one walk per grid
    bandwidth, and the variance smoother walks the smallest bandwidth once
    more."""
    data = small_dataset(rng, n=50)
    built = count_windows(monkeypatch, lambda dset, h, u0: (h, u0))
    spec = Hypothesis.simple([zero_coef()])
    select_bandwidth(data, TRIWEIGHT, make_identity(), spec, [0.3, 0.45])
    assert len(built) == 2 * data.n
    assert set(built.values()) == {1}
    built.clear()
    sel = select_bandwidth(data, TRIWEIGHT, make_identity(), spec, [0.3, 0.45], B=4)
    assert sel.p_bootstrap is not None
    assert len(built) == 2 * data.n
    assert {h: {c for (hh, _), c in built.items() if hh == h} for h in (0.3, 0.45)} == {
        0.3: {2}, 0.45: {1}}


def spy_work(monkeypatch):
    """The names of the work done, in order: each window block built, each
    ``selr._statistics`` walk and each replicate stream drawn."""
    done = []

    def spy(module, name):
        real = getattr(module, name)

        def wrapped(*args, **kwargs):
            done.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    spy(local_el, "_window_block")
    spy(selr, "_statistics")
    spy(streams, "substream")
    return done


def test_select_bandwidth_refuses_zero_df(monkeypatch, rng):
    # goodness of fit with k0 = 1 tests (k0 - 1) p = 0 dimensions, so there
    # is no df to standardize each bandwidth's statistic by: refused before
    # the draw and the first walk
    data = small_dataset(rng, n=45)
    done = spy_work(monkeypatch)
    for B in (0, 5):
        with pytest.raises(ConfigError, match="needs positive df"):
            select_bandwidth(data, TRIWEIGHT, make_identity(), Hypothesis.goodness_of_fit(),
                             [0.3, 0.45], B=B)
    assert done == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -0.3])
def test_select_bandwidth_refuses_a_bad_grid_before_any_walk(monkeypatch, rng, bad):
    # every grid bandwidth is checked with the grid, not when its walk starts
    data = small_dataset(rng, n=45)
    done = spy_work(monkeypatch)
    with pytest.raises(ConfigError, match=f"bandwidth must be finite and > 0, not {bad}"):
        select_bandwidth(data, TRIWEIGHT, make_identity(), Hypothesis.simple([zero_coef()]),
                         [0.3, 0.45, bad], B=3)
    assert done == []


@pytest.mark.parametrize("method", ["bootstrap_null", "select_bandwidth"])
@pytest.mark.parametrize("g, spec, error", [
    (make_symmetric_indicator([0.0, 0.8, 2.0]), Hypothesis.goodness_of_fit(),
     DerivativeUnavailable),
    (make_identity(), Hypothesis.simple([zero_coef()], omega=(5.0, 6.0)), ConfigError),
], ids=["no-derivative", "empty-omega"])
def test_bootstrap_refuses_before_the_null_fit(monkeypatch, rng, method, g, spec, error):
    # the refusals a statistic makes before any window is built come before
    # the draw's null fit and variance smoother too
    data = small_dataset(rng, n=45, p=2 if spec.kind == "goodness_of_fit" else 1)
    done = spy_work(monkeypatch)
    with pytest.raises(error):
        if method == "bootstrap_null":
            bootstrap_null(data, TRIWEIGHT, 0.45, g, spec, B=3)
        else:
            select_bandwidth(data, TRIWEIGHT, g, spec, [0.3, 0.45], B=3)
    assert done == []


def test_selr_test_refuses_an_empty_testing_interval(monkeypatch, rng):
    data = small_dataset(rng, n=45)
    built = count_windows(monkeypatch)
    with pytest.raises(ConfigError, match="no observation inside the testing interval"):
        selr_test(data, TRIWEIGHT, 0.45, make_identity(),
                  Hypothesis.simple([zero_coef()], omega=(5.0, 6.0)))
    assert not built


def test_select_bandwidth_single_grid(rng):
    data = small_dataset(rng, n=50)
    spec = Hypothesis.simple([zero_coef()], omega=(0.0, 1.0))
    sel = select_bandwidth(data, TRIWEIGHT, make_identity(), spec, [0.4])
    assert sel.h == 0.4
    assert sel.p_bootstrap is None


def test_select_bandwidth_argmax_matches_direct(rng):
    n = 120
    u = rng.random(n)
    y = 1.2 * (u - 0.5) + rng.normal(size=n)  # visible linear alternative
    data = Dataset(u, np.ones((n, 1)), y)
    spec = Hypothesis.simple([zero_coef()], omega=(0.0, 1.0))
    grid = [0.2, 0.35, 0.5]
    sel = select_bandwidth(data, TRIWEIGHT, make_identity(), spec, grid)
    assert sel.h == max(sel.per_h, key=sel.per_h.get)
    assert sel.statistic == sel.per_h[sel.h]
    assert set(sel.per_h) == set(grid)
    with pytest.raises(ConfigError):
        select_bandwidth(data, TRIWEIGHT, make_identity(), spec, [])


@pytest.mark.parametrize("n_fail", [1, 2, 20])
@pytest.mark.parametrize("method", ["bootstrap_null", "select_bandwidth"])
def test_replicate_failures(monkeypatch, rng, method, n_fail):
    """Both bootstrap loops drop failed replicates, warn above 5% failures
    and raise when all B fail; the statistics are faked, the observed one
    (row 0) and all B replicates' of a walk at once, to fail on the first
    ``n_fail`` replicates."""
    data = small_dataset(rng, n=30)
    spec = Hypothesis.simple([zero_coef()])
    B = 20
    walks = []

    def fake_statistics(dset, Y, kernel, h, g, spec, include_full_term=None, **kwargs):
        # one evaluation point whose contribution is y'y
        contribs = np.array([[y @ y] for y in Y])
        walks.append(len(Y))
        errors = {r: Infeasible("forced replicate failure") for r in range(1, n_fail + 1)}
        contribs[1:n_fail + 1] = np.nan
        statuses = np.full(contribs.shape, "converged", dtype=object)
        return selr._Terms(spec.kind, 1, (0.0, 1.0), np.arange(1), contribs, statuses, errors)

    monkeypatch.setattr(selr, "_statistics", fake_statistics)

    def run():
        if method == "bootstrap_null":
            sample, p = bootstrap_null(data, TRIWEIGHT, 0.4, make_identity(), spec, B=B,
                                       scheme="wild")
            assert len(sample) == B - n_fail
            return p
        return select_bandwidth(data, TRIWEIGHT, make_identity(), spec, [0.3, 0.4], B=B,
                                scheme="wild").p_bootstrap

    if n_fail == B:
        with pytest.warns(ReplicateFailureWarning), pytest.raises(NumericalError):
            run()
    elif n_fail > 0.05 * B:
        with pytest.warns(ReplicateFailureWarning, match=f"{n_fail}/{B}"):
            assert 0 < run() <= 1
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error", ReplicateFailureWarning)
            assert 0 < run() <= 1
    # one walk per grid bandwidth takes the observed row and all B replicates
    assert walks == [B + 1] * (1 if method == "bootstrap_null" else 2)
