"""Local empirical likelihood: weights, dual solver, profile fits."""

import ast
import pathlib

import numpy as np
import pytest
from scipy.optimize import brentq, linprog

from selrtest import (
    ConfigError,
    Dataset,
    Infeasible,
    fit_local,
    fit_local_constrained,
    kernel_by_name,
    lls_init,
    local_weights,
    make_identity,
    make_smoothed_indicator,
    make_symmetric_indicator,
    parse_g_spec,
    solve_lagrange,
)
from selrtest import local_el
from selrtest.errors import (
    DerivativeUnavailable,
    EmptyWindow,
    MaxIterations,
    SingularDesign,
    ThinWindowWarning,
)
from selrtest.local_el import (
    LocalParameter,
    _BATCH_MARGIN,
    _Block,
    _constrained_fits,
    _design,
    _fit,
    _lls,
    _LocalWindow,
    _log_ratio,
    _log_ratios,
    _moments,
    _pins,
    _ProfileObjective,
    _segment_sums,
    _window,
)

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
    with pytest.raises(ConfigError, match="u, y must be 1-d and x 2-d"):
        Dataset([[0.1], [0.2]], [1.0, 1.0], [0.0, 1.0])  # a 2-d u


def test_local_parameter_roundtrip():
    beta = LocalParameter([1.0, 2.0], [3.0, 4.0])
    np.testing.assert_allclose(beta.vector, [1, 2, 3, 4])
    back = LocalParameter.from_vector(beta.vector)
    np.testing.assert_allclose(back.a, beta.a)
    np.testing.assert_allclose(back.hb, beta.hb)
    with pytest.raises(ConfigError):
        LocalParameter([1.0], [2.0, 3.0])
    with pytest.raises(ConfigError, match="local parameter entries must be finite"):
        LocalParameter([1.0, np.nan], [2.0, 3.0])


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
    z = _design(data, active, u0, h)
    resid = data.y[active] - z @ beta.vector
    got = _moments(g, resid, z)
    for row, gi, zi in zip(got, g.batch(resid), z):
        np.testing.assert_allclose(row, np.kron(gi, zi), atol=1e-12)


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
    p = weights / (1.0 + moments @ alpha)  # the tilted masses at the dual optimum
    assert np.all(p > 0)
    assert abs(p.sum() - 1.0) < 1e-8
    np.testing.assert_allclose(moments.T @ p, 0.0, atol=1e-8)


def scalar_log_ratio(win, g, y, beta):
    """The per-window oracle of the batched solver: None where it skips."""
    try:
        return _log_ratio(win, g, y, beta)[0]
    except (Infeasible, MaxIterations):
        return None


def block(wins):
    """A :class:`_Block` of the windows ``wins``, None where empty: the
    windows' arrays stacked, as a window block holds them."""
    kept = [win for win in wins if win is not None]
    stacked = _Block(*(np.concatenate([getattr(win, name) for win in kept])
                       for name in ("active", "w", "z")))
    stacked.extend(wins)
    return stacked


def assert_batch_matches_scalar(wins, g, y, beta, size=6):
    # in blocks of ``size`` windows, as a walk hands a block to the batch
    got = [None if np.isnan(v) else v for at in range(0, len(wins), size)
           for v in _log_ratios(block(wins[at:at + size]), g, y[None], beta)[0].tolist()]
    want = [scalar_log_ratio(win, g, y, beta) for win in wins]
    assert [v is None for v in got] == [v is None for v in want]
    for a, b in zip(got, want):
        if b is not None:
            assert a == pytest.approx(b, rel=1e-12, abs=0)
    return got


@pytest.mark.filterwarnings("ignore::selrtest.errors.ThinWindowWarning")
@pytest.mark.parametrize("spec", ["identity", "smoothed:0.8,2.0:0.3"])
@pytest.mark.parametrize("p", [1, 2])
def test_log_ratios_match_scalar_solver(rng, p, spec):
    """The batched null-term dual gives each window the scalar solver's
    value (within 1e-12 relative) and skips the same windows."""
    data = random_dataset(rng, n=80, p=p)
    g = parse_g_spec(spec)
    skipped = solved = 0
    for h, shift in [(0.3, 0.0), (0.1, 0.8), (0.06, 0.0)]:
        wins = [_window(data, TRIWEIGHT, h, float(u0)) for u0 in data.u]
        for beta in (np.zeros(2 * p), 0.2 * rng.normal(size=2 * p)):
            got = assert_batch_matches_scalar(wins, g, data.y + shift, beta)
            skipped += sum(v is None for v in got)
            solved += sum(v is not None for v in got)
    assert skipped > 0 and solved > 0


def test_segment_sums_equal_one_reduceat_per_row(rng):
    """The segment sums of all rows in one reduceat along the rows' axis are
    bit for bit those of one 1-d reduceat per row."""
    for _ in range(200):
        d, n_seg = int(rng.integers(1, 9)), int(rng.integers(1, 40))
        counts = rng.integers(1, 301, n_seg)
        starts = np.cumsum(counts) - counts
        rows = rng.normal(size=(d, counts.sum())) * 10.0 ** rng.integers(-3, 4)
        v = rng.random(counts.sum())
        want = np.array([np.add.reduceat(row * v, starts) for row in rows])
        assert np.array_equal(_segment_sums(rows, v, starts), want)


def hand_window(start, t, w):
    """A p = 1 window on observations start, start + 1, ... with local times
    t and weights proportional to w."""
    t = np.asarray(t)
    return _LocalWindow(0.0, 1.0, start + np.arange(len(t)), np.asarray(w) / np.sum(w),
                        np.column_stack([np.ones_like(t), t]))


def edge_windows():
    """A block of hand-built windows and their responses: all-zero moments,
    one-signed residuals, three points, a near-boundary optimum, a singular
    Hessian and a missing window."""
    t5 = [-0.6, -0.2, 0.1, 0.5, 0.8]
    # The only positive residual (622.76) sits on a point of weight 2.1e-12.
    # At the optimum 1 + alpha'G is about 1e-10 there, where rounding keeps
    # the scalar solver short of its tolerance (MaxIterations).  The window
    # was found by search as one where the batch's stopping rule does hold
    # at that rounding floor, so only the margin rule hands it off.
    t_edge = np.array([-0.73, -0.21, -0.74, 0.45, 0.58, -0.36, 0.76, 0.04, -0.31])
    r_edge = [-0.79, -0.8, -0.06, -1.06, -0.63, -1.44, -1.76, -0.4, 622.76]
    w_edge = (1 - t_edge[:-1] ** 2) ** 3
    w_edge = np.append(w_edge / w_edge.sum() * (1 - 2.1e-12), 2.1e-12)
    wins = block([
        hand_window(0, t5, np.ones(5)),  # y = 0: every moment row is zero
        hand_window(5, t5, [1, 2, 3, 2, 1]),  # every residual positive
        hand_window(10, [-0.5, 0.1, 0.7], [1, 3, 1]),  # three points
        hand_window(13, t_edge, w_edge),
        hand_window(22, np.zeros(4), [1, 2, 2, 1]),  # every t = 0: singular Hessian
        None,
    ])
    y = np.concatenate([np.zeros(5), [0.3, 1.2, 0.5, 2.0, 0.1], [0.4, -0.9, 0.6], r_edge,
                        [0.5, -1.0, 0.3, -0.2]])
    return wins, y


def test_log_ratios_edge_windows():
    """The windows of :func:`edge_windows` side by side in one batch."""
    g = make_identity()
    wins, y = edge_windows()
    with pytest.raises(MaxIterations):
        _log_ratio(wins[3], g, y, np.zeros(2))
    got = assert_batch_matches_scalar(wins[:5], g, y, np.zeros(2))
    assert got[0] == 0.0
    assert got[1] is None  # Infeasible
    assert got[2] is not None and got[2] > 0
    assert got[3] is None  # MaxIterations
    assert got[4] is not None and got[4] > 0
    one_batch = [None if np.isnan(v) else v
                 for v in _log_ratios(wins, g, y[None], np.zeros(2))[0].tolist()]
    assert one_batch[:5] == got and one_batch[5] is None


def hull_contains_zero(moments):
    """LP certificate for 0 in the convex hull of the rows of ``moments``:
    the hull LP the dual solver ran before its own iterate certified
    :class:`Infeasible`, kept as the oracle of that certificate."""
    m, d = moments.shape
    a_eq = np.vstack([moments.T, np.ones(m)])
    b_eq = np.concatenate([np.zeros(d), [1.0]])
    res = linprog(np.zeros(m), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    return res.status == 0


def frozen_solve_lagrange(moments, weights, gtol=local_el._DUAL_GTOL,
                          max_iter=local_el._DUAL_MAX_ITER):
    """The scalar dual solver as it was before it carried the dual value
    between steps and stopped at an exact fixed point: the bit-for-bit
    oracle of :func:`solve_lagrange`.  Do not edit."""
    moments = np.asarray(moments, dtype=float)
    weights = np.asarray(weights, dtype=float)
    m, d = moments.shape
    alpha = np.zeros(d)
    if not np.any(moments):
        return alpha

    wsum = weights.sum()
    denom = np.ones(m)
    gtol_eff = gtol * max(1.0, float(np.abs(moments).max()))
    for _ in range(max_iter):
        wd = weights / denom
        grad = moments.T @ wd
        if np.linalg.norm(grad) <= gtol_eff and abs(wd.sum() - wsum) <= 1e-8:
            return alpha
        hess = (moments * (wd / denom)[:, None]).T @ moments
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        if not np.all(np.isfinite(step)):
            break
        f0 = float(weights @ np.log(denom))
        c = 1.0
        while c > 1e-14:
            cand = alpha + c * step
            dc = 1.0 + moments @ cand
            if dc.min() > 1e-12:
                fc = float(weights @ np.log(dc))
                if fc >= f0 - 1e-14:
                    break
            c *= 0.5
        else:
            break
        alpha, denom = cand, dc
    if not hull_contains_zero(moments):
        raise Infeasible("0 is not in the convex hull of the moment vectors")
    wd = weights / denom
    if (
        np.linalg.norm(moments.T @ wd) <= 1e6 * gtol_eff
        and abs(wd.sum() - wsum) <= 1e-8
    ):
        return alpha
    raise MaxIterations("dual Newton did not converge")


def assert_solver_matches_frozen(moments, weights):
    """solve_lagrange gives the oracle's alpha bit for bit, or raises the
    same exception type; returns the outcome's name."""
    try:
        want = frozen_solve_lagrange(moments, weights)
    except (Infeasible, MaxIterations) as exc:
        with pytest.raises(type(exc)):
            solve_lagrange(moments, weights)
        return type(exc).__name__
    assert np.array_equal(solve_lagrange(moments, weights), want)
    return "solved"


# A near-boundary window: the only positive residual (374.2) sits on a point
# of weight 9e-10.  Newton reaches an exact fixed point (the accepted step
# leaves alpha and the dual value unchanged) at step 16, and every later
# step repeats it; the post-loop check then accepts the optimum.
T_FIXED = [0.55, -0.33, -0.63, 0.36, -0.09, 0.54, -0.48, -0.32]
R_FIXED = [-1.1, -0.03, -0.04, -1.99, -0.23, -0.26, -0.96, 374.2]


def fixed_point_window():
    """Moment rows and weights of the window of ``T_FIXED``, ``R_FIXED``."""
    t = np.array(T_FIXED)
    w = (1 - t[:-1] ** 2) ** 3
    w = np.append(w / w.sum() * (1 - 9e-10), 9e-10)
    return _moments(make_identity(), np.array(R_FIXED), hand_window(0, t, w).z), w


# A window reduced from a bootstrap handoff (design 0 of the benchmark's
# bootstrap workload, seed 0) by dropping points while its Newton path kept
# cycling.  The point at t = -0.998 has weight 8.7e-9, and at the optimum
# 1 + alpha'G is about 1e-7 there.  From step 18 alpha repeats with period 3,
# so every later step replays the cycle; the post-loop check accepts the
# iterate of step 100.
T_CYCLE = [-0.745, -0.583, -0.063, 0.459, -0.895, -0.835, -0.914, 0.0, -0.523, -0.059,
           -0.712, -0.567, 0.378, 0.393, -0.455, -0.998, 0.189]
R_CYCLE = [-1.05, 0.61, -0.4, 1.68, 1.81, -1.07, -0.69, -1.2, -0.99, -0.29, -3.18, -1.14,
           0.83, 0.29, -1.24, 2.44, 1.07]


def cycle_window():
    """Moment rows and weights of the window of ``T_CYCLE``, ``R_CYCLE``."""
    t = np.array(T_CYCLE)
    win = hand_window(0, t, (1 - t**2) ** 3)
    return _moments(make_identity(), np.array(R_CYCLE), win.z), win.w


def random_windows(rng):
    """Moment rows and weights of random windows: p = 1 and 2, identity and
    smoothed G, both signs of the hull test."""
    for spec in ("identity", "smoothed:0.8,2.0:0.3"):
        g = parse_g_spec(spec)
        for _ in range(40):
            m, p = int(rng.integers(4, 30)), int(rng.integers(1, 3))
            t = rng.uniform(-1, 1, m)
            x = np.column_stack([np.ones(m), rng.normal(size=(m, p - 1))])
            z = np.hstack([x, t[:, None] * x])
            resid = rng.normal(size=m) + rng.choice([0.0, 1.5])
            w = (1 - t**2) ** 3 + 1e-12
            yield _moments(g, resid, z), w / w.sum()


def edge_window_moments():
    """Moment rows and weights of the five windows of :func:`edge_windows`."""
    wins, y = edge_windows()
    return [(_moments(make_identity(), y[win.active], win.z), win.w) for win in wins[:5]]


def test_solve_lagrange_bit_for_bit_frozen_loop(rng):
    """Random windows, the windows of :func:`edge_windows` and the fixed-point
    and cycle windows get the frozen solver's alpha to the last bit."""
    corpus = [*random_windows(rng), *edge_window_moments(), fixed_point_window(),
              cycle_window()]
    outcomes = [assert_solver_matches_frozen(moments, w) for moments, w in corpus]
    assert {"solved", "Infeasible", "MaxIterations"} <= set(outcomes)


def test_solve_lagrange_stops_at_an_exact_fixed_point(monkeypatch):
    """The fixed-point window takes 16 Newton steps (one np.linalg.solve
    each), not the 100 of the frozen loop, and is still accepted."""
    moments, w = fixed_point_window()
    steps = []
    solve = np.linalg.solve

    def counting(a, b):
        steps.append(1)
        return solve(a, b)

    monkeypatch.setattr(local_el.np.linalg, "solve", counting)
    frozen = frozen_solve_lagrange(moments, w)
    assert len(steps) == local_el._DUAL_MAX_ITER
    del steps[:]
    alpha = solve_lagrange(moments, w)
    assert len(steps) == 16
    assert np.array_equal(alpha, frozen)
    assert (1.0 + moments @ alpha).min() < _BATCH_MARGIN  # a near-boundary optimum


def test_solve_lagrange_ends_an_exact_cycle_at_once(monkeypatch):
    """The cycle window's alpha repeats with period 3 from step 18, so the
    solver stops after 21 Newton steps and returns the frozen loop's alpha of
    step 100."""
    moments, w = cycle_window()
    at = {k: frozen_solve_lagrange(moments, w, max_iter=k) for k in (18, 19, 20, 21, 100)}
    assert np.array_equal(at[18], at[21])
    assert not np.array_equal(at[18], at[19]) and not np.array_equal(at[18], at[20])
    steps = []
    solve = np.linalg.solve

    def counting(a, b):
        steps.append(1)
        return solve(a, b)

    monkeypatch.setattr(local_el.np.linalg, "solve", counting)
    alpha = solve_lagrange(moments, w)
    assert len(steps) == 21 < local_el._DUAL_MAX_ITER
    assert np.array_equal(alpha, at[100])


def test_solve_lagrange_infeasible_exactly_where_the_lp_puts_zero_outside(rng):
    """On the random, edge, fixed-point and cycle windows, every window the
    solver calls Infeasible is one the hull LP puts outside the hull, and
    every window it solves or calls MaxIterations one the LP puts inside."""
    corpus = [*random_windows(rng), *edge_window_moments(), fixed_point_window(),
              cycle_window()]
    outcomes = []
    for moments, w in corpus:
        try:
            solve_lagrange(moments, w)
            outcome = "solved"
        except (Infeasible, MaxIterations) as exc:
            outcome = type(exc).__name__
        outcomes.append(outcome)
        if np.any(moments):
            assert hull_contains_zero(moments) == (outcome != "Infeasible")
    assert {"solved", "Infeasible", "MaxIterations"} <= set(outcomes)


# ---------------------------------------------------------------------------
# the batched dual's step rule


def halving_batch_dual(gt, w, counts, alpha=None, seen=None):
    """The batched dual Newton as it was before its step lengths came from
    the feasibility bound: every window's step is halved, one halving of the
    whole batch at a time, until it is feasible and not worse, and the batch
    is compacted through boolean masks.  The bit-for-bit oracle of
    :func:`local_el._batch_dual`; only the counts kept in the dict ``seen``
    (windows infeasible at c = 1, the most halvings one step took, step
    underflows and non-finite Newton steps) are new."""
    seen = {} if seen is None else seen
    for key in ("short", "halvings", "underflow", "nonfinite"):
        seen.setdefault(key, 0)
    d, n_win = gt.shape[0], len(counts)
    values, alphas = np.zeros(n_win), np.zeros((n_win, d))
    certified = np.zeros(n_win, dtype=bool)
    live = np.arange(n_win)
    starts = np.cumsum(counts) - counts
    wsum = np.add.reduceat(w, starts)
    gtol = local_el._DUAL_GTOL * np.maximum(
        1.0, np.maximum.reduceat(np.abs(gt).max(axis=0), starts))
    if alpha is None:
        a = np.zeros((n_win, d))
        x = np.zeros(len(w))
        f = np.zeros(n_win)
    else:
        a = np.array(alpha, dtype=float)
        x = np.einsum("km,km->m", gt, np.repeat(a.T, counts, axis=1))
        cold = np.minimum.reduceat(x, starts) <= 1e-12 - 1.0
        a[cold] = 0.0
        x[np.repeat(cold, counts)] = 0.0
        f = np.add.reduceat(w * np.log1p(x), starts)
    failed = np.zeros(n_win, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(local_el._BATCH_MAX_ITER + 1):
            wd = w / (1.0 + x)
            grad = _segment_sums(gt, wd, starts)
            done = (np.sqrt(np.einsum("ke,ke->e", grad, grad)) <= gtol) & (
                np.abs(np.add.reduceat(wd, starts) - wsum) <= 1e-8)
            leave = done | failed | (it == local_el._BATCH_MAX_ITER)
            if leave.any():
                ok = done & (np.minimum.reduceat(x, starts) >= _BATCH_MARGIN - 1.0)
                if ok.any():
                    idx = live[ok]
                    values[idx], alphas[idx], certified[idx] = f[ok], a[ok], True
                keep = ~leave
                rows = np.repeat(keep, counts)
                gt, w, x, wd = gt[:, rows], w[rows], x[rows], wd[rows]
                counts, live, f, a, wsum, gtol, grad = (
                    counts[keep], live[keep], f[keep], a[keep], wsum[keep], gtol[keep],
                    grad[:, keep])
                if len(live) == 0:
                    break
                starts = np.cumsum(counts) - counts
            wd /= 1.0 + x
            step = local_el._newton_steps(gt, wd, grad, starts)
            failed = ~np.isfinite(step).all(axis=0)
            seen["nonfinite"] += int(failed.sum())
            step[:, failed] = 0.0
            gs = np.einsum("km,km->m", gt, np.repeat(step, counts, axis=1))
            seen["short"] += int((~(np.minimum.reduceat(x + gs, starts) > 1e-12 - 1.0)).sum())
            c = np.ones(len(live))
            xc = x + gs
            while True:
                terms = np.log1p(xc)
                terms *= w
                fc = np.add.reduceat(terms, starts)
                worse = ~((np.minimum.reduceat(xc, starts) > 1e-12 - 1.0) & (fc >= f - 1e-14))
                worse &= c > 0
                if not worse.any():
                    break
                c[worse] *= 0.5
                underflow = c <= 1e-14
                c[underflow] = 0.0
                failed |= underflow
                xc = np.repeat(c, counts)
                xc *= gs
                xc += x
            seen["underflow"] += int((c == 0).sum())
            seen["halvings"] = max(seen["halvings"], int(-np.log2(c[c > 0].min())))
            x, f = xc, fc
            a += c[:, None] * step.T
    return values, alphas, certified


def lopsided_window(rng, m, weight, sign=1.0):
    """Moment rows (2, m) and weights of a window whose first Newton step
    from 0 is about 1 / (2 sqrt(``weight``)) long on its last row: every
    other row has a second component sqrt(``weight``), the last row, of
    weight ``weight``, has -1 there, so the Hessian is nearly singular
    along it.  A weight of 1e-26 takes about 42 halvings, 1e-32 underflows."""
    delta = np.sqrt(weight)
    gt = np.vstack([np.append(sign * rng.standard_t(2, m - 1), 0.0),
                    np.append(np.full(m - 1, delta), -1.0)])
    w = rng.random(m - 1)
    return gt, np.append(w / w.sum() * (1.0 - weight), weight)


def random_stack(rng, d, n_win):
    """Thin, heavy-tailed windows: moment rows (d, M) and weights, a
    window at a time; G_i = r_i z_i for d = 2 and the smoothed k0 = 2 bank
    of p = 2 for d = 8, from t_2 residuals shifted and scaled so that some
    windows are infeasible, and a quarter of the windows with kernel
    weights down to 1e-12."""
    g = make_smoothed_indicator([0.0, 0.8, 2.0], 0.3)
    gts, ws = [], []
    for _ in range(n_win):
        m = int(rng.integers(2 * d, 5 * d))
        t = rng.uniform(-1, 1, m)
        x = np.ones((m, 1)) if d == 2 else np.column_stack([np.ones(m), rng.normal(size=m)])
        z = np.hstack([x, t[:, None] * x])
        resid = 0.3 + rng.standard_t(2, m) * (1 + 2 * rng.random(m)) + rng.choice([0.0, 1.5])
        moments = _moments(make_identity() if d == 2 else g, resid, z)
        kern = (1 - t**2) ** 3 * 10.0 ** (rng.choice([0, -6, -12], m) * (rng.random() < 0.25))
        gts.append(moments.T)
        ws.append(kern / kern.sum())
    return gts, ws


def stacked(gts, ws):
    """The windows of ``gts`` and ``ws`` side by side, as the batch takes them."""
    return np.hstack(gts), np.concatenate(ws), np.array([len(w) for w in ws])


def dual_cases(rng, d):
    """Windows for the batch: random thin, heavy-tailed ones, and for d = 2
    two lopsided windows (one taking more than 40 halvings, one whose step
    underflows) and one whose Hessian is singular (a non-finite step)."""
    gts, ws = random_stack(rng, d, 60)
    if d == 2:
        for weight in (1e-26, 1e-32):
            gt, w = lopsided_window(rng, 9, weight)
            gts.append(gt)
            ws.append(w)
        gts.append(np.vstack([rng.normal(size=6), np.zeros(6)]))
        ws.append(np.full(6, 1 / 6))
    return gts, ws


def warm_starts(rng, gt, w, counts):
    """Starts for the batch: the cold optimum moved by noise, so some are
    near the boundary and some infeasible (those restart from 0)."""
    _, alpha, _ = halving_batch_dual(gt, w, counts)
    scale = 10.0 ** rng.integers(-6, 1, (len(counts), 1))
    return alpha + scale * rng.normal(size=alpha.shape)


@pytest.mark.parametrize("d", [2, 8])
def test_batch_dual_matches_the_halving_loop(rng, d):
    """The step lengths from the feasibility bound, with compaction by index,
    give every window the halving loop's value, multiplier and certificate
    bit for bit, cold and warm-started, and the cases cover windows
    infeasible at a full step, more than 40 halvings in one step, a step
    underflow and a non-finite step."""
    seen = {}
    for _ in range(3):
        gt, w, counts = stacked(*dual_cases(rng, d))
        for alpha in (None, warm_starts(rng, gt, w, counts)):
            want = halving_batch_dual(gt, w, counts, alpha, seen)
            got = local_el._batch_dual(gt, w, counts, alpha)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
            assert want[2].any() and not want[2].all()
    assert seen["short"] > 0 and seen["nonfinite"] > 0
    if d == 2:
        assert seen["halvings"] > 40 and seen["underflow"] > 0


def test_step_lengths_match_the_halving_loop(rng):
    """Each window's step length, x + c gs and value are those of halving
    the whole batch one step at a time, with NaN and infinite entries of gs
    among them (no feasible step, or a row that stays feasible)."""
    for _ in range(50):
        counts = rng.integers(1, 12, 30)
        starts = np.cumsum(counts) - counts
        x = np.expm1(rng.uniform(-27, 1, counts.sum()))  # 1 + x from 2e-12 to e
        gs = rng.standard_t(1, counts.sum()) * 10.0 ** rng.integers(-3, 14, counts.sum())
        odd = rng.random(counts.sum())
        gs[odd < 0.01] = np.nan
        gs[(0.01 <= odd) & (odd < 0.02)] = -np.inf
        gs[(0.02 <= odd) & (odd < 0.03)] = np.inf
        w = rng.random(counts.sum())
        f = np.add.reduceat(w * np.log1p(x), starts) + rng.choice([0.0, 1e-3], len(counts))
        c = np.ones(len(counts))
        xc = x + gs
        with np.errstate(divide="ignore", invalid="ignore"):
            while True:
                fc = np.add.reduceat(np.log1p(xc) * w, starts)
                worse = ~((np.minimum.reduceat(xc, starts) > 1e-12 - 1.0)
                          & (fc >= f - 1e-14)) & (c > 0)
                if not worse.any():
                    break
                c[worse] *= 0.5
                c[c <= 1e-14] = 0.0
                xc = np.repeat(c, counts) * gs + x
            got = local_el._step_lengths(x, gs, w, f, counts, starts)
        for a, b in zip(got, (c, xc, fc)):
            assert np.array_equal(a, b, equal_nan=True)


@pytest.mark.parametrize("d", [2, 8])
def test_batch_dual_window_alone_equals_in_the_stack(rng, d):
    """A window solved alone gets the value, multiplier and certificate it
    gets among the others, which leave the batch at other steps."""
    gts, ws = dual_cases(rng, d)
    gt, w, counts = stacked(gts, ws)
    for alpha in (None, warm_starts(rng, gt, w, counts)):
        together = local_el._batch_dual(gt, w, counts, alpha)
        for e, (gte, we) in enumerate(zip(gts, ws)):
            alone = local_el._batch_dual(gte, we, counts[e:e + 1],
                                         None if alpha is None else alpha[e:e + 1])
            for a, b in zip(alone, together):
                assert np.array_equal(a[0], b[e])


# ---------------------------------------------------------------------------
# local fits


def test_local_logel_bounded_by_entropy(rng):
    # the dual value is the window's entropy less its local log-EL
    data = random_dataset(rng, n=60)
    win = _window(data, TRIWEIGHT, 0.35, 0.5)
    assert _log_ratio(win, make_identity(), data.y, np.zeros(2))[0] >= 0


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


def test_profile_fit_solves_each_beta_once(monkeypatch, rng):
    """A smoothed-G profile fit calls solve_lagrange once per distinct beta
    BFGS evaluates: the start value, BFGS's first evaluation at the same
    start and the value reported at the optimum share one solve."""
    data = random_dataset(rng, n=80)
    g = make_smoothed_indicator([0.0, 0.8, 3.0], width=0.3)
    solves, evaluated = [], []
    solve, minimize = local_el.solve_lagrange, local_el.minimize

    def counting_solve(moments, weights):
        solves.append(1)
        return solve(moments, weights)

    def recording_minimize(fun, x0, **kwargs):
        def recorded(x):
            evaluated.append(np.array(x).tobytes())
            return fun(x)
        return minimize(recorded, x0, **kwargs)

    monkeypatch.setattr(local_el, "solve_lagrange", counting_solve)
    monkeypatch.setattr(local_el, "minimize", recording_minimize)
    fit = fit_local(data, TRIWEIGHT, 0.45, 0.5, g)
    start = lls_init(data, TRIWEIGHT, 0.45, 0.5).vector
    assert evaluated[0] == start.tobytes()  # _fit evaluated it before BFGS
    assert fit.beta.vector.tobytes() in evaluated and len(set(evaluated)) > 3
    assert len(solves) == len(set(evaluated)) == fit.inner_iters


def test_solve_lagrange_never_calls_linprog(monkeypatch):
    """``local_el.linprog`` is kept only for the benchmark's tracer: no
    package module calls it, and solve_lagrange certifies Infeasible on its
    own, here on a window whose moments are all positive."""
    def refuse(*args, **kwargs):
        raise AssertionError("solve_lagrange ran the hull LP")

    monkeypatch.setattr(local_el, "linprog", refuse)
    moments = np.array([[1.0], [2.0], [0.5], [3.0]])  # 0 is outside the hull
    with pytest.raises(Infeasible):
        solve_lagrange(moments, np.full(4, 0.25))
    calls = [node for path in pathlib.Path(local_el.__file__).parent.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and "linprog" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert calls == []


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
    data = random_dataset(rng, n=40, p=3)
    with pytest.raises(ConfigError):  # one coefficient pinned twice
        fit_local_constrained(
            data, TRIWEIGHT, 0.4, 0.5, make_identity(),
            fixed_value=[0.0, 1.0], fixed_slope=[0.0, 0.0], fixed_idx=[1, 1],
        )
    with pytest.raises(ConfigError, match="fixed_value / fixed_slope must match fixed_idx"):
        fit_local_constrained(
            data, TRIWEIGHT, 0.4, 0.5, make_identity(),
            fixed_value=[0.0, 1.0], fixed_slope=[0.0], fixed_idx=[1, 2],
        )


def test_constrained_fit_pins_in_the_order_given(rng):
    # value k pins coefficient fixed_idx[k]: pins given as [2, 1] are the
    # pins given as [1, 2] with their values swapped
    data = random_dataset(rng, n=150, p=3)
    h, g = 0.4, make_identity()
    swapped = fit_local_constrained(data, TRIWEIGHT, h, 0.5, g, [3.0, 1.0], [0.5, 0.0], [2, 1])
    ordered = fit_local_constrained(data, TRIWEIGHT, h, 0.5, g, [1.0, 3.0], [0.0, 0.5], [1, 2])
    np.testing.assert_array_equal(swapped.beta.vector, ordered.beta.vector)
    assert swapped.logel == ordered.logel
    np.testing.assert_array_equal(swapped.beta.a[1:], [1.0, 3.0])
    np.testing.assert_array_equal(swapped.beta.hb[1:], [0.0, h * 0.5])


def spy_handoffs(monkeypatch):
    """The windows handed to BFGS, by id, as the constrained fits run (a
    call of :func:`_fit` with free coordinates is a handoff), and the
    arrays each call of :func:`_batch_profile` returns, in call order."""
    handed, batches = set(), []
    fit, batch = local_el._fit, local_el._batch_profile

    def fit_spy(win, y, g, init=None, free_idx=None, fixed_vec=None):
        if free_idx is not None:
            handed.add(id(win))
        return fit(win, y, g, init, free_idx, fixed_vec)

    def batch_spy(*args):
        batches.append(batch(*args))
        return batches[-1]

    monkeypatch.setattr(local_el, "_fit", fit_spy)
    monkeypatch.setattr(local_el, "_batch_profile", batch_spy)
    return handed, batches


def bfgs_constrained(win, y, g, fixed_value, fixed_slope, fixed_idx, init):
    """The per-window oracle of the batched profile fit, BFGS from the 2p
    vector ``init`` with the pins of :func:`_pins` set: None where it skips."""
    fixed, free_idx = _pins(win.z.shape[1] // 2, win.h, fixed_idx, [fixed_value], [fixed_slope])
    try:
        return _fit(win, y, g, init, free_idx, fixed[0])
    except (Infeasible, MaxIterations, SingularDesign):
        return None


def constrained_fits(wins, Y, g, pins, fixed_idx, starts):
    """:func:`_constrained_fits` with window e pinned by the (fixed_value,
    fixed_slope) pair ``pins[e]``."""
    values, slopes = zip(*pins)
    fixed, free_idx = _pins(wins[0].z.shape[1] // 2, wins[0].h, fixed_idx, values, slopes)
    return _constrained_fits(block(wins), Y, g, fixed, free_idx, starts)


@pytest.mark.filterwarnings("ignore::selrtest.errors.ThinWindowWarning")
@pytest.mark.parametrize("p, fixed_idx", [(2, [1]), (3, [2]), (3, [0, 2])])
def test_constrained_batch_matches_bfgs(monkeypatch, rng, p, fixed_idx):
    """The batched profile fit, with BFGS for the windows it hands off,
    gives every window the BFGS constrained log-EL (within 1e-9 relative)
    and skips the same windows.  The pins are the true coefficients
    a_k(u) = 0.3 (k + 1) + s_k u, nonzero slopes included."""
    slopes = np.array([0.5, -1.0, 0.8])[:p]
    data = random_dataset(rng, n=100, p=p, hetero=1.0,
                          coef=[lambda u, k=k: 0.3 * (k + 1) + slopes[k] * u for k in range(p)])
    g = make_identity()
    free = np.ones(2 * p, dtype=bool)
    free[fixed_idx] = free[p + np.asarray(fixed_idx)] = False
    handed, batches = spy_handoffs(monkeypatch)
    certified, n_handed, skipped, steps = 0, 0, 0, []
    for h in (0.2, 0.35, 0.6):
        items = []
        for j in range(0, data.n, 2):
            u0 = float(data.u[j])
            win = _window(data, TRIWEIGHT, h, u0)
            try:
                init = _lls(win, data.y)
            except SingularDesign:
                continue
            fixed_value = 0.3 * (np.asarray(fixed_idx) + 1) + slopes[fixed_idx] * u0
            items.append((win, (fixed_value, slopes[fixed_idx]), init))
        for at in range(0, len(items), 4):  # in batches of four windows
            wins, pins, inits = zip(*items[at:at + 4])
            logels, statuses = constrained_fits(wins, data.y[None], g, pins, fixed_idx,
                                                np.array([inits]))
            # every window is live: one batch, its items in window order
            [(values, betas, _, batch_steps, _)] = batches
            batches.clear()
            for e, (win, pin, init) in enumerate(zip(wins, pins, inits)):
                logel, status = logels[0, e], statuses[0, e]
                want = bfgs_constrained(win, data.y, g, *pin, fixed_idx, init)
                assert np.isnan(values[e]) == (id(win) in handed)
                if id(win) not in handed:
                    certified += 1
                    steps.append(batch_steps[e])
                    assert status == "converged"
                    assert logel == win.entropy - values[e]
                    np.testing.assert_array_equal(betas[e][~free], np.concatenate(
                        [pin[0], h * pin[1]]))
                assert np.isnan(logel) == (status is None) == (want is None)
                if want is None:
                    skipped += 1
                else:
                    assert logel == pytest.approx(want.logel, rel=1e-9, abs=0)
            n_handed += len(handed)
            handed.clear()  # ids of freed windows may be reused
    assert certified > 4 * n_handed
    assert max(steps) > 0
    if p == 3 and len(fixed_idx) == 1:
        assert skipped > 0


def test_constrained_batch_edge_windows(monkeypatch, rng):
    """Windows the batch hands off: a dual-infeasible start, a singular
    local design and a near-boundary optimum; BFGS decides each."""
    g = make_identity()
    handed, batches = spy_handoffs(monkeypatch)
    data = random_dataset(rng, n=80, p=2)
    win = _window(data, TRIWEIGHT, 0.4, 0.5)
    init = _lls(win, data.y)
    # with a2 pinned at 50 every moment r_i x2_i is negative: 0 is outside
    # the hull at the start, and BFGS skips the window
    [[logel]], [[status]] = constrained_fits([win], data.y[None], g, [([50.0], [0.0])], [1],
                                             init[None, None])
    assert np.isnan(logel) and status is None
    assert id(win) in handed
    with pytest.raises(Infeasible):
        fit_local_constrained(data, TRIWEIGHT, 0.4, 0.5, g, [50.0], [0.0], [1],
                              LocalParameter.from_vector(init))

    # x2 vanishes around u0 = 0.5: singular local design
    n = 100
    u = np.linspace(0.005, 0.995, n)
    x2 = np.cos(7.0 * u)
    x2[(u > 0.4) & (u < 0.6)] = 0.0
    singular = Dataset(u, np.column_stack([np.ones(n), x2]), rng.normal(size=n))
    win = _window(singular, TRIWEIGHT, 0.08, 0.5)
    init = LocalParameter([0.1, 0.2], [0.0, 0.0])
    for fixed_idx in ([0], [1]):
        handed.clear()
        [[logel]], [[status]] = constrained_fits([win], singular.y[None], g, [([0.0], [0.0])],
                                                 fixed_idx, init.vector[None, None])
        assert handed == {id(win)}
        want = bfgs_constrained(win, singular.y, g, [0.0], [0.0], fixed_idx, init.vector)
        got = fit_local_constrained(singular, TRIWEIGHT, 0.08, 0.5, g, [0.0], [0.0],
                                    fixed_idx, init)
        assert logel == got.logel == want.logel
        assert status == got.status == want.status
    # without a start the LLS start is singular (NaN), so no fit runs: BFGS raises
    handed.clear()
    batches.clear()
    start = local_el._stacked_lls([win], singular.y[None])[:1]
    assert np.isnan(start).all()
    [[logel]], [[status]] = constrained_fits([win], singular.y[None], g, [([0.0], [0.0])], [1],
                                             start)
    assert np.isnan(logel) and status is None
    assert not handed and not batches
    with pytest.raises(SingularDesign):
        fit_local_constrained(singular, TRIWEIGHT, 0.08, 0.5, g, [0.0], [0.0], [1])

    # found by search: the start is certified, but the constrained optimum
    # has min(1 + alpha'G) below the batch's margin, so the batch stalls
    # and hands the window to BFGS
    data = random_dataset(np.random.default_rng(2), n=60, p=2, hetero=1.0)
    u0 = float(data.u[40])
    win = _window(data, TRIWEIGHT, 0.3, u0)
    init = _lls(win, data.y)
    handed.clear()
    [[logel]], [[status]] = constrained_fits([win], data.y[None], g, [([0.0], [0.0])], [1],
                                             init[None, None])
    assert handed == {id(win)}
    want = bfgs_constrained(win, data.y, g, [0.0], [0.0], [1], init)
    resid = data.y[win.active] - win.z @ want.beta.vector
    assert (1.0 + _moments(g, resid, win.z) @ want.alpha).min() < _BATCH_MARGIN
    got = fit_local_constrained(data, TRIWEIGHT, 0.3, u0, g, [0.0], [0.0], [1])
    assert logel == got.logel == want.logel
    assert status == got.status == want.status == "converged"
