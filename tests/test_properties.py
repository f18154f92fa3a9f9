"""Property tests of the identity-G local fits.

With the identity G a window has 2p moments for 2p parameters, so the
maximum of the local log-EL is the local least-squares fit, where the dual
multiplier is 0 and the log-EL equals the window entropy.  These tests
draw small seeded designs and check the consequences of that fact, and
the bounds that nesting gives the constrained fit and the composite
statistic.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from selrtest import (
    Dataset,
    Hypothesis,
    const_coef,
    fit_local_constrained,
    kernel_by_name,
    make_identity,
    selr_composite,
    selr_gof,
    selr_simple,
    zero_coef,
)
from selrtest.errors import (
    DegenerateTestWarning,
    Infeasible,
    MaxIterations,
    NoRetainedWindows,
    SingularDesign,
    ThinWindowWarning,
)
from selrtest.local_el import _fit, _lls, _ProfileObjective, _window

TRIWEIGHT = kernel_by_name("triweight")
IDENTITY = make_identity()
# the same examples on every run, and no example database in the tree
SETTINGS = settings(max_examples=20, deadline=None, derandomize=True, database=None)


@st.composite
def designs(draw, n_min=12, n_max=50, p_min=1):
    """A seeded heteroscedastic design with p in {p_min, ..., 2}, y on a
    drawn scale."""
    n = draw(st.integers(n_min, n_max))
    p = draw(st.integers(p_min, 2))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = gen.random(n)
    x = np.column_stack([np.ones(n), gen.normal(size=(n, p - 1))])
    y = scale * (np.sin(2 * np.pi * u) + np.sqrt(1 + u**2) * gen.normal(size=n))
    return Dataset(u, x, y)


def _window_or_reject(data, h, j):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ThinWindowWarning)
        win = _window(data, TRIWEIGHT, h, float(data.u[j]))
    try:
        _lls(win, data.y)
    except SingularDesign:
        assume(False)
    return win


@SETTINGS
@given(designs(), st.floats(0.15, 0.6), st.integers(0, 2**16))
def test_closed_form_logel_is_entropy(data, h, j):
    win = _window_or_reject(data, h, j % data.n)
    fit = _fit(win, data.y, IDENTITY)
    assert fit.outer_iters == 0
    assert abs(fit.logel - fit.entropy) <= 1e-12


@SETTINGS
@given(designs(), st.floats(0.15, 0.6), st.integers(0, 2**16),
       st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
def test_profile_search_never_beats_closed_form(data, h, j, shift):
    win = _window_or_reject(data, h, j % data.n)
    fit = _fit(win, data.y, IDENTITY)
    obj = _ProfileObjective(win, data.y, IDENTITY)
    beta = fit.beta.vector
    x0 = beta + np.asarray(shift[: len(beta)]) * 0.5 * (1.0 + np.abs(beta))
    obj.penalty_ref = x0.copy()
    res = minimize(obj.value_grad, x0, jac=True, method="BFGS", options={"maxiter": 200})
    assert -res.fun <= fit.logel + 1e-10


def _terms(res):
    return {pt["u0"]: pt["contribution"] for pt in res.per_point}


@SETTINGS
@given(designs(n_min=30), st.floats(0.3, 0.6), st.integers(0, 2**32 - 1))
def test_simple_full_term_is_exactly_zero(data, h, seed):
    spec = Hypothesis.simple([zero_coef()] * data.p)
    default = selr_simple(data, TRIWEIGHT, h, IDENTITY, spec)
    full = selr_simple(data, TRIWEIGHT, h, IDENTITY, spec, include_full_term=True)
    # the full term only adds the skips of windows without an LLS fit
    assume(full.n_infeasible_points == default.n_infeasible_points)
    np.testing.assert_allclose(full.statistic, default.statistic, rtol=1e-12, atol=0)
    perm = np.random.default_rng(seed).permutation(data.n)
    shuffled = Dataset(data.u[perm], data.x[perm], data.y[perm])
    again = selr_simple(shuffled, TRIWEIGHT, h, IDENTITY, spec, include_full_term=True)
    before, after = _terms(full), _terms(again)
    kept = [u0 for u0 in before if before[u0] is not None and after[u0] is not None]
    np.testing.assert_allclose([after[u0] for u0 in kept], [before[u0] for u0 in kept],
                               rtol=1e-12, atol=1e-14)
    if len(kept) == len(before):
        np.testing.assert_allclose(again.statistic, full.statistic, rtol=1e-12, atol=0)


@pytest.mark.xfail(strict=True, reason="the dual solver's acceptance of a near-boundary "
                   "window depends on the row order")
def test_simple_skip_decisions_are_permutation_invariant():
    # found by test_simple_full_term_is_exactly_zero: the window at
    # u0 = 0.0165 holds one positive residual of kernel weight 1.3e-11, and
    # the scalar dual solver accepts it in one row order only
    gen = np.random.default_rng(0)
    u = gen.random(30)
    y = np.sin(2 * np.pi * u) + np.sqrt(1 + u**2) * gen.normal(size=30)
    data = Dataset(u, np.ones((30, 1)), y)
    perm = np.random.default_rng(0).permutation(30)
    shuffled = Dataset(u[perm], data.x[perm], y[perm])
    spec = Hypothesis.simple([zero_coef()])
    skipped = [selr_simple(d, TRIWEIGHT, 0.40625, IDENTITY, spec).n_infeasible_points
               for d in (data, shuffled)]
    assert skipped[0] == skipped[1]


@SETTINGS
@given(designs(n_min=30), st.floats(0.3, 0.6))
def test_identity_gof_terms_vanish(data, h):
    with pytest.warns(DegenerateTestWarning):
        res = selr_gof(data, TRIWEIGHT, h, IDENTITY, Hypothesis.goodness_of_fit())
    terms = [pt["contribution"] for pt in res.per_point if pt["contribution"] is not None]
    assert terms
    assert max(abs(t) for t in terms) <= 1e-12
    assert res.df == 0.0


@SETTINGS
@given(designs(n_min=20, p_min=2), st.floats(0.2, 0.6), st.integers(0, 2**16),
       st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_constrained_logel_bounded_by_entropy(data, h, j, value, slope):
    win = _window_or_reject(data, h, j % data.n)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ThinWindowWarning)
            fit = fit_local_constrained(data, TRIWEIGHT, h, win.u0, IDENTITY, [value],
                                        [slope], [1])
    except (Infeasible, MaxIterations):
        assume(False)
    assert fit.logel <= fit.entropy + 1e-12


@SETTINGS
@given(designs(n_min=30, p_min=2), st.floats(0.3, 0.6), st.floats(-1.0, 1.0))
def test_composite_between_zero_and_simple(data, h, value):
    # the composite null pins a2 = value only; the simple null pins a2 =
    # value and a1 = 0, so its constrained set lies inside the composite's
    pinned = const_coef(value)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ThinWindowWarning)
            comp = selr_composite(data, TRIWEIGHT, h, IDENTITY,
                                  Hypothesis.composite([pinned], [1]))
            simple = selr_simple(data, TRIWEIGHT, h, IDENTITY,
                                 Hypothesis.simple([zero_coef(), pinned]))
    except NoRetainedWindows:
        assume(False)
    kept = [pt["contribution"] is not None for pt in comp.per_point]
    assume(kept == [pt["contribution"] is not None for pt in simple.per_point])
    assert comp.statistic >= -1e-8
    assert comp.statistic <= simple.statistic + 1e-6
