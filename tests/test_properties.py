"""Property tests of the windows and the identity-G local fits.

Windows are built a block of centres at a time; the first tests hold every
window, least-squares fit, smoothed value and variance estimate bit for bit
to the one-window code they replaced, kept here as the oracle.

With the identity G a window has 2p moments for 2p parameters, so the
maximum of the local log-EL is the local least-squares fit, where the dual
multiplier is 0 and the log-EL equals the window entropy.  The other tests
draw small seeded designs and check the consequences of that fact, and
the bounds that nesting gives the constrained fit and the composite
statistic.
"""

import warnings
from unittest import mock

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
from selrtest import local_el, selr
from selrtest.errors import (
    DegenerateTestWarning,
    EmptyWindow,
    Infeasible,
    MaxIterations,
    NoRetainedWindows,
    SingularDesign,
    ThinWindowWarning,
)
from selrtest.kernels import tabulated_kernel
from selrtest.local_el import (
    _fit,
    _lls,
    _local_linear_fitted,
    _ProfileObjective,
    _stacked_lls,
    _window,
    _window_block,
    _windows,
)

TRIWEIGHT = kernel_by_name("triweight")
IDENTITY = make_identity()
# the same examples on every run, and no example database in the tree
SETTINGS = settings(max_examples=20, deadline=None, derandomize=True, database=None)
ORACLE_SETTINGS = settings(SETTINGS, max_examples=150)
KERNELS = [kernel_by_name(family) for family in
           ("uniform", "epanechnikov", "biweight", "triweight")] + [
    # K(0) = 0, so a window centred at an observation can be empty
    tabulated_kernel([-1.0, -0.5, 0.0, 0.5, 1.0], [0.0, 1.0, 0.0, 1.0, 0.0]),
]


# ---------------------------------------------------------------------------
# windows, least squares and smoothers against the one-window code


def _oracle_window(data, kernel, h, u0):
    """(active, w, z) of the window at u0, built the one-window way."""
    raw = np.atleast_1d(kernel((data.u - u0) / h))
    total = raw.sum()
    if total <= 0:
        raise EmptyWindow(f"no observation within [{u0 - h}, {u0 + h}]")
    active = np.nonzero(raw > 0)[0]
    if len(active) < 2 * data.p + 1:
        warnings.warn(
            f"window at u0={u0:g} holds {len(active)} < {2 * data.p + 1} points",
            ThinWindowWarning,
            stacklevel=3,
        )
    w = raw[active] / total
    t = (data.u[active] - u0) / h
    x = data.x[active]
    return active, w, np.hstack([x, t[:, None] * x])


def _oracle_lls(active, w, z, y):
    """The one-window local least-squares fit."""
    zw = z * w[:, None]
    gram = zw.T @ z
    rhs = zw.T @ y[active]
    sv = np.linalg.svd(gram, compute_uv=False)
    if sv[0] <= 0 or sv[-1] / sv[0] < 1e-12:
        raise SingularDesign("weighted design is rank deficient")
    return np.linalg.solve(gram, rhs)


def _oracle_or_none(data, kernel, h, u0):
    try:
        return _oracle_window(data, kernel, h, u0)
    except EmptyWindow:
        return None


def _same_window(win, want, u0, h):
    if want is None:
        return win is None
    return (win is not None and win.u0 == u0 and win.h == h
            and all(np.array_equal(a, b) and a.dtype == b.dtype
                    for a, b in zip((win.active, win.w, win.z), want)))


def _thin_count(record):
    return sum(issubclass(r.category, ThinWindowWarning) for r in record)


@st.composite
def window_cases(draw):
    """A seeded design with p in 1..3, a kernel, a bandwidth from a few
    empty or thin windows to all-wide ones, centres on and off the data, and
    a batch budget in moment rows of one centre, a few centres or the whole
    design."""
    n = draw(st.integers(3, 80))
    p = draw(st.integers(1, 3))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = gen.random(n)
    x = np.column_stack([np.ones(n), gen.normal(size=(n, p - 1))])
    y = np.sin(2 * np.pi * u) + gen.normal(size=n)
    kernel = draw(st.sampled_from(KERNELS))
    h = 10.0 ** draw(st.floats(-2.7, 0.0))
    off = gen.uniform(-0.3, 1.3, size=draw(st.integers(0, 10)))
    budget = draw(st.sampled_from([1, 3 * n, 2**15]))
    return Dataset(u, x, y), kernel, h, np.concatenate([u, off]), budget


@ORACLE_SETTINGS
@given(window_cases())
def test_block_windows_equal_one_window_builds(case):
    data, kernel, h, centres, budget = case
    with warnings.catch_warnings(record=True) as want_warned:
        warnings.simplefilter("always")
        want = [_oracle_or_none(data, kernel, h, u0) for u0 in centres.tolist()]
    with warnings.catch_warnings(record=True) as got_warned:
        warnings.simplefilter("always")
        size = max(1, budget // data.n)
        got = [win for at in range(0, len(centres), size)
               for win in _window_block(data, kernel, h, centres[at:at + size])]
    assert _thin_count(got_warned) == _thin_count(want_warned)
    assert all(_same_window(win, w, u0, h) for win, w, u0 in zip(got, want, centres))
    # the walk visits the observations in increasing u, None where empty
    with warnings.catch_warnings(), mock.patch.object(local_el, "_BATCH_ROWS", budget):
        warnings.simplefilter("ignore", ThinWindowWarning)
        blocks = list(selr._walk(data, np.arange(data.n), _windows(data, kernel, h)))
    # a block holds one window per index; unless it holds one window, its
    # centres' support counts sum to at most the budget and its dense kernel
    # array stays within its bound; the blocks follow one another in increasing u
    support = [int(np.sum(np.abs(data.u - data.u[block][:, None]) <= h)) for block, _ in blocks]
    assert all(len(block) == len(wins) for block, wins in blocks)
    assert all(len(block) == 1 or (rows <= budget and len(block) * data.n
                                   <= local_el._DENSE_VALUES)
               for (block, _), rows in zip(blocks, support))
    walk = [(j, win) for block, wins in blocks for j, win in zip(block, wins)]
    assert [j for j, _ in walk] == np.argsort(data.u).tolist()
    assert all(_same_window(win, want[j], data.u[j], h) for j, win in walk)
    # elsewhere an empty window raises
    empty = [u0 for u0, w in zip(centres.tolist(), want) if w is None]
    for u0 in empty[:3]:
        with pytest.raises(EmptyWindow):
            _window(data, kernel, h, u0)


@ORACLE_SETTINGS
@given(window_cases())
def test_stacked_lls_and_smoothers_equal_one_window_solves(case):
    data, kernel, h, _, budget = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ThinWindowWarning)
        want = [_oracle_or_none(data, kernel, h, u0) for u0 in data.u.tolist()]
        wins = _window_block(data, kernel, h, data.u)
    fits = []
    for win, w in zip(wins, want):
        if w is None:
            continue
        try:
            fits.append((win, _oracle_lls(*w, data.y)))
        except SingularDesign:
            fits.append((win, np.full(2 * data.p, np.nan)))
            with pytest.raises(SingularDesign, match=f"u0={win.u0:g} is rank deficient"):
                _lls(win, data.y)
    solved = [(win, beta) for win, beta in fits if not np.isnan(beta).any()]
    if fits:
        # a rank-deficient design gives a NaN row and leaves the others as they are
        np.testing.assert_array_equal(_stacked_lls([win for win, _ in fits], data.y[None])[0],
                                      np.array([beta for _, beta in fits]))
    # the smoother and the variance estimate, through blocks of the budget
    with warnings.catch_warnings(), mock.patch.object(local_el, "_BATCH_ROWS", budget):
        warnings.simplefilter("ignore", ThinWindowWarning)
        windows = _windows(data, kernel, h)
        if any(w is None for w in want):
            with pytest.raises(EmptyWindow):
                selr._sigma2_hat(data, data.y, windows)
            return
        sq = data.y**2
        sigma2 = []
        for active, w, _ in want:
            dense = np.zeros(data.n)
            dense[active] = w
            sigma2.append(float(dense @ sq))
        np.testing.assert_array_equal(selr._sigma2_hat(data, data.y, windows),
                                      np.maximum(sigma2, 1e-12))
        if len(solved) < len(want):
            with pytest.raises(SingularDesign):
                _local_linear_fitted(data, windows)
            return
        fitted = _local_linear_fitted(data, windows)
    np.testing.assert_array_equal(
        fitted, [data.x[i] @ beta[:data.p] for i, (_, beta) in enumerate(solved)])


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


def _t3_design(seed):
    """n = 120, p = 2: a varying coefficient on a normal covariate, t_3 errors."""
    gen = np.random.default_rng(seed)
    u = gen.random(120)
    x = np.column_stack([np.ones(120), gen.normal(size=120)])
    return Dataset(u, x, np.sin(2 * np.pi * u) + (1 + u) * x[:, 1] + gen.standard_t(3, 120))


def _assert_scale_invariant(statistic):
    """``statistic(data, h)`` keeps its value within 1e-12 relative, and its
    skipped windows, when y becomes 2^k y (k = 5, 20), on three seeded t_3
    designs at h = 0.12 and 0.3."""
    def skips(res):
        return [pt["contribution"] is None for pt in res.per_point]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in range(3):
            data = _t3_design(seed)
            for h in (0.12, 0.3):
                base = statistic(data, h)
                for k in (5, 20):
                    scaled = statistic(Dataset(data.u, data.x, 2.0**k * data.y), h)
                    assert skips(scaled) == skips(base)
                    np.testing.assert_allclose(scaled.statistic, base.statistic,
                                               rtol=1e-12, atol=0)


ZERO2 = Hypothesis.simple([zero_coef()] * 2)


@pytest.mark.parametrize("statistic", [
    lambda data, h: selr_simple(data, TRIWEIGHT, h, IDENTITY, ZERO2),
    lambda data, h: selr_simple(data, TRIWEIGHT, h, IDENTITY, ZERO2, include_full_term=True),
    lambda data, h: selr_gof(data, TRIWEIGHT, h, IDENTITY, Hypothesis.goodness_of_fit()),
], ids=["simple", "simple_full_term", "identity_gof"])
def test_statistics_are_invariant_to_the_scale_of_y(statistic):
    _assert_scale_invariant(statistic)


@pytest.mark.xfail(strict=True, reason="the composite fit's BFGS handoff has thresholds "
                   "in units of beta (_OUTER_GTOL, the 1e8 penalty, the 1e-12 ascent "
                   "check), so its statistic depends on the scale of y")
def test_composite_statistic_is_invariant_to_the_scale_of_y():
    _assert_scale_invariant(lambda data, h: selr_composite(
        data, TRIWEIGHT, h, IDENTITY, Hypothesis.composite([zero_coef()], [1])))
