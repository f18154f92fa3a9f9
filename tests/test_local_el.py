"""Local empirical likelihood: weights, dual solver, profile fits."""

import numpy as np
import pytest
from scipy.optimize import brentq

from selrtest import (
    ConfigError,
    Dataset,
    Infeasible,
    fit_local,
    fit_local_constrained,
    implied_probabilities,
    kernel_by_name,
    lls_init,
    local_logel,
    local_weights,
    make_identity,
    make_smoothed_indicator,
    make_symmetric_indicator,
    moment_vectors,
    solve_lagrange,
)
from selrtest.errors import (
    DerivativeUnavailable,
    EmptyWindow,
    SingularDesign,
    ThinWindowWarning,
)
from selrtest.local_el import LocalParameter, _design, _ProfileObjective, _window

from conftest import random_dataset

TRIWEIGHT = kernel_by_name("triweight")

# frozen oracle: weights (1/3, 1/3, 1/3), scalar moments (1, 2, -1).
# alpha solves sum_i w_i g_i / (1 + alpha g_i) = 0 on the feasible
# interval (-1/2, 1); computed beforehand by bisection to 1e-14.
ORACLE_ALPHA = 0.43425854591066493
ORACLE_DUAL_VALUE = 0.13872501338281074


def scalar_dual_oracle(weights, moments):
    """Bisection (Brent) solution of the one-dimensional dual equation."""
    gmax, gmin = moments.max(), moments.min()
    lo = -1.0 / gmax + 1e-12 if gmax > 0 else -1e6
    hi = -1.0 / gmin - 1e-12 if gmin < 0 else 1e6

    def psi(alpha):
        return float(np.sum(weights * moments / (1.0 + alpha * moments)))

    return brentq(psi, lo, hi, xtol=1e-14)


# ---------------------------------------------------------------------------
# containers


def test_dataset_validation():
    d = Dataset([0.1, 0.5], [1.0, 1.0], [0.0, 1.0])
    assert d.n == 2 and d.p == 1 and d.x.shape == (2, 1)
    with pytest.raises(ConfigError):
        Dataset([0.1], [[1.0], [1.0]], [0.0, 1.0])  # length mismatch
    with pytest.raises(ConfigError):
        Dataset([0.1, 0.2], [1.0, np.nan], [0.0, 1.0])  # non-finite
    with pytest.raises(ConfigError):
        Dataset([0.1, 0.2], np.ones((2, 0)), [0.0, 1.0])  # p = 0


def test_local_parameter_roundtrip():
    beta = LocalParameter([1.0, 2.0], [3.0, 4.0])
    np.testing.assert_allclose(beta.vector, [1, 2, 3, 4])
    back = LocalParameter.from_vector(beta.vector)
    np.testing.assert_allclose(back.a, beta.a)
    np.testing.assert_allclose(back.hb, beta.hb)
    with pytest.raises(ConfigError):
        LocalParameter([1.0], [2.0, 3.0])


# ---------------------------------------------------------------------------
# weights and moments


def test_local_weights_normalized(rng):
    data = random_dataset(rng, n=80)
    lw = local_weights(data, TRIWEIGHT, 0.3, 0.5)
    assert abs(lw.w.sum() - 1.0) < 1e-12
    outside = np.abs(data.u - 0.5) > 0.3
    assert np.all(lw.w[outside] == 0.0)
    assert np.all(lw.w[lw.active] > 0.0)


def test_local_weights_empty_and_thin(rng):
    data = random_dataset(rng, n=40)
    with pytest.raises(EmptyWindow):
        local_weights(data, TRIWEIGHT, 0.05, 5.0)
    thin = Dataset([0.5, 0.51], np.ones((2, 1)), [0.0, 1.0])
    with pytest.warns(ThinWindowWarning):
        local_weights(thin, TRIWEIGHT, 0.05, 0.5)


def test_moment_vectors_kron_oracle(rng):
    data = random_dataset(rng, n=30, p=2)
    g = make_symmetric_indicator([0.0, 1.0, 2.0])
    beta = LocalParameter([0.2, -0.1], [0.5, 0.3])
    h, u0 = 0.4, 0.5
    active = np.nonzero(np.abs(data.u - u0) <= h)[0]
    got = moment_vectors(data, h, u0, beta, g, active=active)
    z = _design(data, active, u0, h)
    resid = data.y[active] - z @ beta.vector
    for row, e, zi in zip(got, resid, z):
        np.testing.assert_allclose(row, np.kron(g.evaluator(e), zi), atol=1e-12)


def test_moment_vectors_default_active_is_the_window(rng):
    # the triweight vanishes at |t| = 1, so u = 0.25 lies outside the window
    # at u0 = 0.5, h = 0.25 although |u - u0| <= h
    u = np.array([0.25, 0.4, 0.5, 0.6, 0.7])
    data = Dataset(u, np.ones((5, 1)), rng.normal(size=5))
    beta = LocalParameter([0.1], [0.2])
    active = local_weights(data, TRIWEIGHT, 0.25, 0.5).active
    assert len(active) == 4
    got = moment_vectors(data, 0.25, 0.5, beta, make_identity())
    np.testing.assert_array_equal(
        got, moment_vectors(data, 0.25, 0.5, beta, make_identity(), active=active))
    # the uniform kernel is positive at |t| = 1, so its window holds u = 0.25
    # too; the default rows (|u - u0| < h) leave it out, as documented
    uniform = local_weights(data, kernel_by_name("uniform"), 0.25, 0.5).active
    assert len(uniform) == 5
    assert len(got) == 4


# ---------------------------------------------------------------------------
# dual solver


def test_solve_lagrange_frozen_oracle():
    weights = np.full(3, 1 / 3)
    moments = np.array([[1.0], [2.0], [-1.0]])
    alpha = solve_lagrange(moments, weights)
    assert abs(alpha[0] - ORACLE_ALPHA) < 1e-10
    value = float(weights @ np.log1p(moments @ alpha))
    assert abs(value - ORACLE_DUAL_VALUE) < 1e-10


def test_solve_lagrange_scalar_bisection_sweep(rng):
    for _ in range(100):
        m = int(rng.integers(5, 40))
        weights = rng.random(m) + 0.05
        weights /= weights.sum()
        moments = rng.normal(size=m)
        if moments.max() <= 0 or moments.min() >= 0:
            moments[0], moments[1] = abs(moments[0]) + 0.1, -abs(moments[1]) - 0.1
        alpha = solve_lagrange(moments[:, None], weights)
        assert abs(alpha[0] - scalar_dual_oracle(weights, moments)) < 1e-10


def test_solve_lagrange_multivariate_stationarity(rng):
    for _ in range(25):
        m, d = int(rng.integers(8, 30)), int(rng.integers(1, 4))
        weights = rng.random(m) + 0.05
        weights /= weights.sum()
        moments = rng.normal(size=(m, d))
        alpha = solve_lagrange(moments, weights)
        denom = 1.0 + moments @ alpha
        assert denom.min() > 0  # dual feasibility
        resid = moments.T @ (weights / denom)
        assert np.linalg.norm(resid) <= 1e-8


def test_solve_lagrange_infeasible():
    weights = np.full(4, 0.25)
    moments = np.array([[1.0], [2.0], [0.5], [3.0]])  # all positive
    with pytest.raises(Infeasible):
        solve_lagrange(moments, weights)


def test_solve_lagrange_zero_moments():
    alpha = solve_lagrange(np.zeros((5, 2)), np.full(5, 0.2))
    np.testing.assert_allclose(alpha, 0.0)


def test_implied_probabilities_sum_to_one(rng):
    m = 20
    weights = rng.random(m) + 0.05
    weights /= weights.sum()
    moments = rng.normal(size=(m, 2))
    alpha = solve_lagrange(moments, weights)
    p = implied_probabilities(moments, weights, alpha)
    assert np.all(p > 0)
    assert abs(p.sum() - 1.0) < 1e-8
    np.testing.assert_allclose(moments.T @ p, 0.0, atol=1e-8)
    with pytest.raises(Infeasible):
        implied_probabilities(moments, weights, alpha * 1e6)


# ---------------------------------------------------------------------------
# local fits


def test_local_logel_bounded_by_entropy(rng):
    data = random_dataset(rng, n=60)
    beta = LocalParameter([0.0], [0.0])
    logel, entropy = local_logel(data, TRIWEIGHT, 0.35, 0.5, beta, make_identity())
    assert logel <= entropy + 1e-12


def test_lls_init_normal_equations_oracle(rng):
    data = random_dataset(rng, n=80, p=2)
    h, u0 = 0.35, 0.45
    beta = lls_init(data, TRIWEIGHT, h, u0)
    lw = local_weights(data, TRIWEIGHT, h, u0)
    z = _design(data, lw.active, u0, h)
    w = lw.w[lw.active]
    sw = np.sqrt(w)
    coef, *_ = np.linalg.lstsq(sw[:, None] * z, sw * data.y[lw.active], rcond=None)
    np.testing.assert_allclose(beta.vector, coef, atol=1e-8)


def test_lls_init_singular_design(rng):
    n = 40
    u = rng.random(n)
    x = np.column_stack([np.ones(n), np.ones(n)])  # collinear covariates
    with pytest.raises(SingularDesign):
        lls_init(Dataset(u, x, rng.normal(size=n)), TRIWEIGHT, 0.4, 0.5)


def test_fit_local_exact_linear_model(rng):
    n = 60
    u = np.sort(rng.random(n))
    y = 2.0 + 3.0 * u  # exact model, zero noise
    data = Dataset(u, np.ones((n, 1)), y)
    fit = fit_local(data, TRIWEIGHT, 0.3, 0.5, make_identity())
    assert abs(fit.beta.a[0] - 3.5) < 1e-6
    assert abs(fit.logel - fit.entropy) < 1e-8  # residuals vanish


def test_profile_gradient_finite_difference(rng):
    data = random_dataset(rng, n=50)
    obj = _ProfileObjective(_window(data, TRIWEIGHT, 0.4, 0.5), data.y, make_identity())
    x0 = lls_init(data, TRIWEIGHT, 0.4, 0.5).vector + 0.05
    _, grad = obj.value_grad(x0)
    step = 1e-6
    for k in range(len(x0)):
        e = np.zeros_like(x0)
        e[k] = step
        fp, _ = obj.value_grad(x0 + e)
        fm, _ = obj.value_grad(x0 - e)
        assert abs(grad[k] - (fp - fm) / (2 * step)) < 1e-5


def test_fit_local_needs_derivative(rng):
    data = random_dataset(rng, n=50)
    with pytest.raises(DerivativeUnavailable):
        fit_local(data, TRIWEIGHT, 0.4, 0.5, make_symmetric_indicator([0.0, 1.0]))


def test_fit_local_smoothed_indicator_runs(rng):
    data = random_dataset(rng, n=80)
    g = make_smoothed_indicator([0.0, 0.8, 3.0], width=0.3)
    fit = fit_local(data, TRIWEIGHT, 0.45, 0.5, g)
    assert np.isfinite(fit.logel)
    assert fit.logel <= fit.entropy + 1e-10


def test_constrained_fit_nested(rng):
    data = random_dataset(rng, n=80, p=2)
    g = make_identity()
    h, u0 = 0.45, 0.5
    full = fit_local(data, TRIWEIGHT, h, u0, g)
    constrained = fit_local_constrained(
        data, TRIWEIGHT, h, u0, g,
        fixed_value=[0.0], fixed_slope=[0.0], fixed_idx=[1],
    )
    assert constrained.logel <= full.logel + 1e-6
    assert constrained.beta.a[1] == 0.0
    assert constrained.beta.hb[1] == 0.0


def test_constrained_fit_validation(rng):
    data = random_dataset(rng, n=40, p=2)
    with pytest.raises(ConfigError):
        fit_local_constrained(
            data, TRIWEIGHT, 0.4, 0.5, make_identity(),
            fixed_value=[0.0, 0.0], fixed_slope=[0.0, 0.0], fixed_idx=[0, 1],
        )
    with pytest.raises(ConfigError):
        fit_local_constrained(
            data, TRIWEIGHT, 0.4, 0.5, make_identity(),
            fixed_value=[0.0], fixed_slope=[0.0], fixed_idx=[5],
        )
