"""Local empirical likelihood at a point u0.

For a window around u0 the observations get kernel weights w_i, the local
linear residuals feed the estimating function, and the profile likelihood
is computed through the concave Lagrange dual

    f(alpha) = sum_i w_i log(1 + alpha' G_i),

maximized over {alpha : 1 + alpha' G_i > 0 for all i}.  The local log
empirical likelihood is l(beta, u0) = entropy - f(alpha_hat), with
entropy = sum_i w_i log w_i over the active window.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DerivativeUnavailable,
    EmptyWindow,
    Infeasible,
    MaxIterations,
    SingularDesign,
    ThinWindowWarning,
)
from .estfun import EstimatingFunction
from .kernels import Kernel

__all__ = [
    "Dataset",
    "LocalParameter",
    "LocalWeights",
    "LocalELFit",
    "local_weights",
    "solve_lagrange",
    "lls_init",
    "fit_local",
    "fit_local_constrained",
]

_DUAL_GTOL = 1e-12
_DUAL_MAX_ITER = 100
_OUTER_GTOL = 1e-7
_BLOCK_VALUES = 2**13  # kernel values one window block holds (centres x n)
_BATCH_MAX_ITER = 20  # Newton steps before the batch hands a window off
_BATCH_MARGIN = 1e-6  # smallest 1 + alpha'G at an optimum the batch certifies
_PROFILE_MAX_ITER = 50  # Newton steps before the profile batch hands a window off
_PROFILE_DECREMENT = 1e-18  # Newton decrement at which a batched profile fit is done
_PROFILE_MIN_STEP = 1e-3  # shortest damped step before a batched profile fit stalls


@dataclass(frozen=True)
class Dataset:
    """Observations (u_i, x_i, y_i), i = 1..n, with p covariates."""

    u: np.ndarray
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        u = np.atleast_1d(np.asarray(self.u, dtype=float))
        x = np.asarray(self.x, dtype=float)
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if x.ndim == 1:
            x = x[:, None]
        if not (u.ndim == 1 and y.ndim == 1 and x.ndim == 2):
            raise ConfigError("u, y must be 1-d and x 2-d")
        if not (len(u) == len(y) == x.shape[0]) or len(u) < 1:
            raise ConfigError("u, x, y must share a common length n >= 1")
        if x.shape[1] < 1:
            raise ConfigError("need p >= 1 covariates")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ConfigError("all entries must be finite")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return len(self.u)

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class LocalParameter:
    """Local linear coefficients: values a = A(u0) and scaled slopes hb = h A'(u0)."""

    a: np.ndarray
    hb: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        hb = np.atleast_1d(np.asarray(self.hb, dtype=float))
        if a.shape != hb.shape or a.ndim != 1:
            raise ConfigError("a and hb must be 1-d of equal length")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(hb))):
            raise ConfigError("local parameter entries must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "hb", hb)

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate([self.a, self.hb])

    @classmethod
    def from_vector(cls, vec) -> "LocalParameter":
        vec = np.asarray(vec, dtype=float)
        p = len(vec) // 2
        return cls(vec[:p], vec[p:])


@dataclass(frozen=True)
class LocalWeights:
    u0: float
    h: float
    w: np.ndarray
    active: np.ndarray


@dataclass(frozen=True)
class LocalELFit:
    u0: float
    beta: LocalParameter
    alpha: np.ndarray
    logel: float
    entropy: float
    status: str
    inner_iters: int
    outer_iters: int


@dataclass(frozen=True)
class _LocalWindow:
    """One kernel window: what every local term at u0 needs except y.

    ``active`` indexes the observations with positive kernel weight, ``w``
    holds their normalized weights and ``z`` the local design rows.
    """

    u0: float
    h: float
    active: np.ndarray
    w: np.ndarray
    z: np.ndarray

    @functools.cached_property
    def entropy(self) -> float:
        """Sum of w log w, computed on first use: the null term, the
        smoother and the variance estimate never read it."""
        return float(np.sum(self.w * np.log(self.w)))


def _window_block(data: Dataset, kernel: Kernel, h: float, centres) -> list:
    """The windows centred at the points of the array ``centres``, None where
    one holds no observation.  The window at u0 has weights w_i = K_h(u_i - u0)
    / sum_m K_h(u_m - u0) on the observations of positive weight, in index
    order, and design rows z_i = (x_i, t_i x_i) with t_i = (u_i - u0)/h.
    One kernel evaluation on a dense (centres, n) array serves the block; each
    normaliser is its row sum over all n points, so a window is bit for bit the
    one its centre alone gives.  Its arrays are slices of the block's arrays."""
    if not 0 < h < math.inf:
        raise ConfigError(f"bandwidth must be finite and > 0, not {h}")
    raw = kernel((data.u - centres[:, None]) / h)
    totals = raw.sum(axis=1)
    rows, active = np.divmod(np.flatnonzero(raw > 0), data.n)
    w = raw[rows, active] / totals[rows]
    z = _design(data, active, centres[rows], h)
    bounds = np.searchsorted(rows, np.arange(len(centres) + 1)).tolist()
    wins = []
    for u0, total, start, stop in zip(centres.tolist(), totals.tolist(), bounds, bounds[1:]):
        if total > 0 and stop - start < 2 * data.p + 1:
            warnings.warn(f"window at u0={u0:g} holds {stop - start} < {2 * data.p + 1} points",
                          ThinWindowWarning, stacklevel=3)
        wins.append(_LocalWindow(u0, float(h), active[start:stop], w[start:stop], z[start:stop])
                    if total > 0 else None)
    return wins


def _window(data: Dataset, kernel: Kernel, h: float, u0: float) -> _LocalWindow:
    """The window at u0; raises :class:`EmptyWindow` where it holds no observation."""
    return _nonempty(_window_block(data, kernel, h, np.array([u0], dtype=float)), [u0])[0]


def _windows(data: Dataset, kernel: Kernel, h: float):
    """Window source of one design: ``windows(idx)`` yields (block, the windows
    at u_j for j in block, None where empty) over blocks of ``idx``."""
    size = max(1, _BLOCK_VALUES // data.n)

    def windows(idx):
        for at in range(0, len(idx), size):
            block = idx[at:at + size]
            yield block, _window_block(data, kernel, h, data.u[block])
    return windows


def _nonempty(wins, centres) -> list:
    """``wins``, the windows at ``centres``; raises :class:`EmptyWindow` at a None."""
    for u0, win in zip(centres, wins):
        if win is None:
            raise EmptyWindow(f"no observation in the window at u0={u0:g}")
    return wins


def local_weights(data: Dataset, kernel: Kernel, h: float, u0: float) -> LocalWeights:
    """Normalized kernel weights w_i = K_h(u_i - u0) / sum_m K_h(u_m - u0)."""
    win = _window(data, kernel, h, u0)
    w = np.zeros(data.n)
    w[win.active] = win.w
    return LocalWeights(u0=float(u0), h=float(h), w=w, active=win.active)


def _design(data: Dataset, idx: np.ndarray, u0: float, h: float) -> np.ndarray:
    """Local regressors z_i = (x_i, t_i x_i) with t_i = (u_i - u0)/h."""
    t = (data.u[idx] - u0) / h
    x = data.x[idx]
    return np.hstack([x, t[:, None] * x])


def _moments(g: EstimatingFunction, resid: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Rows G(resid_i) kron z_i, the G component varying slowest."""
    gvals = g.batch(resid)  # (m, k0)
    return (gvals[:, :, None] * z[:, None, :]).reshape(len(z), -1)


# scipy.optimize takes about a quarter second to import, and only the BFGS
# profile fit and the hull LP use it.  These two names import it on first
# call; callers look them up in this module, so they can be wrapped or patched.
def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first call."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first call."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _hull_contains_zero(moments: np.ndarray) -> bool:
    """LP certificate for 0 in the convex hull of the rows of ``moments``."""
    m, d = moments.shape
    a_eq = np.vstack([moments.T, np.ones(m)])
    b_eq = np.concatenate([np.zeros(d), [1.0]])
    res = linprog(np.zeros(m), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    return res.status == 0


def solve_lagrange(moments: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Maximize the concave dual by damped Newton; returns the multiplier.

    Raises :class:`Infeasible` when 0 is not in the convex hull of the moment
    vectors (by an LP, run only where the near-boundary rule fails), and
    :class:`MaxIterations` when the hull condition holds only degenerately.
    """
    moments = np.asarray(moments, dtype=float)
    weights = np.asarray(weights, dtype=float)
    m, d = moments.shape
    alpha = np.zeros(d)
    if not np.any(moments):
        return alpha

    wsum = weights.sum()
    denom = np.ones(m)
    f0 = float(weights @ np.log(denom))  # the dual value at alpha
    # the gradient scales linearly with the moments, so the stopping rule
    # must too or the solver would not be invariant under y -> c y
    gtol_eff = _DUAL_GTOL * max(1.0, float(np.abs(moments).max()))
    path, seen = [(alpha, denom)], {alpha.tobytes(): 0}
    for k in range(_DUAL_MAX_ITER):
        wd = weights / denom
        grad = moments.T @ wd
        # at an interior optimum the tilted masses keep their total:
        # sum w/(1+a'G) = sum w.  A vanishing gradient without that property
        # means the dual is unbounded (runaway alpha), not solved.
        # (math.sqrt of the dot is np.linalg.norm's own formula.)
        if math.sqrt(grad @ grad) <= gtol_eff and abs(wd.sum() - wsum) <= 1e-8:
            return alpha
        hess = (moments * (wd / denom)[:, None]).T @ moments
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        if not np.isfinite(step).all():
            break
        # halve until strictly inside the feasible region and not worse
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
            break  # step underflow: feasible region exhausted
        alpha, denom, f0 = cand, dc, fc
        # the state is alpha alone, so once it repeats every later step replays
        # the cycle: take the iterate the step cap ends on (a fixed point: P = 1)
        j = seen.setdefault(alpha.tobytes(), k + 1)
        if j <= k:
            alpha, denom = path[j + (_DUAL_MAX_ITER - j) % (k + 1 - j)]
            break
        path.append((alpha, denom))
    # near-boundary optima (a near-zero kernel weight on the only point of one
    # sign) stall at a rounding-limited gradient floor. Conserved mass makes the
    # tilted masses a convex combination with mean grad: 0 is near the hull.
    wd = weights / denom
    if np.linalg.norm(moments.T @ wd) <= 1e6 * gtol_eff and abs(wd.sum() - wsum) <= 1e-8:
        return alpha
    if not _hull_contains_zero(moments):
        raise Infeasible("0 is not in the convex hull of the moment vectors")
    raise MaxIterations(
        "dual Newton did not converge (hull condition holds only on the boundary)"
    )


def _dual(win: _LocalWindow, g: EstimatingFunction, y: np.ndarray, beta_vec: np.ndarray,
          solved=None):
    """Residuals, moment rows and dual multiplier of one window at a fixed beta.

    ``solved``, where given, maps each beta already solved (by its bytes) to
    its multiplier, or to the type and arguments of the exception its solve
    raised; a beta found there is not solved again, and a new one is added.
    """
    resid = y[win.active] - win.z @ beta_vec
    moments = _moments(g, resid, win.z)
    if solved is None:
        return resid, moments, solve_lagrange(moments, win.w)
    key = beta_vec.tobytes()
    if key not in solved:
        try:
            solved[key] = solve_lagrange(moments, win.w)
        except (Infeasible, MaxIterations) as exc:
            # not the exception itself: its traceback holds this frame, and
            # so ``solved``, in a reference cycle that keeps both alive
            solved[key] = type(exc), exc.args
    alpha = solved[key]
    if isinstance(alpha, tuple):
        raise alpha[0](*alpha[1])
    return resid, moments, alpha


def _log_ratio(win: _LocalWindow, g: EstimatingFunction, y: np.ndarray, beta_vec: np.ndarray,
               solved=None):
    """Dual value sum_i w_i log(1 + alpha' G_i) at a fixed beta, which is the
    window's entropy minus its local log-EL, and the multiplier alpha;
    ``solved`` is as in :func:`_dual`."""
    _, moments, alpha = _dual(win, g, y, beta_vec, solved)
    return float(win.w @ np.log1p(moments @ alpha)), alpha


def _group_size(rows: int) -> int:
    """Replicates one stacked batch of a window block takes, the block having
    ``rows`` moment rows per replicate: as many as keep the batch within
    4 * ``_BLOCK_VALUES`` rows, and at least one."""
    return max(1, 4 * _BLOCK_VALUES // rows)


def _stacks(wins, Y, live):
    """Stacked batches of the (replicate, window) items of one window block.

    ``live`` (R, E) marks the items to take: window e of ``wins``, not None,
    under the responses ``Y[r]``.  The replicates go :func:`_group_size` at
    a time; for each group this yields the items' replicate and window
    indices in replicate-major order, then their local designs, weights,
    responses and row counts, stacked item after item.  The windows' arrays
    are stacked once per block, one copy per replicate of a group, and a
    group's responses come from one ``Y[:, active]``.
    """
    kept = [e for e, win in enumerate(wins) if win is not None]
    if not kept:
        return
    stacked = [wins[e] for e in kept]
    counts = np.array([len(win.active) for win in stacked])
    active = np.concatenate([win.active for win in stacked])
    size = min(_group_size(len(active)), len(Y))
    z = np.concatenate([win.z for win in stacked] * size)
    w = np.concatenate([win.w for win in stacked] * size)
    kept = np.array(kept)
    for at in range(0, len(Y), size):
        mask = live[at:at + size, kept]
        rs, es = np.nonzero(mask)
        rows = len(mask) * len(active)
        y = Y[at:at + size].take(active, axis=1).ravel()
        if len(rs) == mask.size:  # every item: the stacked arrays as they are
            yield rs + at, kept[es], z[:rows], w[:rows], y, counts[es]
        elif len(rs):
            take = np.flatnonzero(np.repeat(mask.ravel(), np.tile(counts, len(mask))))
            yield (rs + at, kept[es], z.take(take, axis=0), w.take(take), y.take(take),
                   counts[es])


def _log_ratios(wins, g, Y, beta):
    """The value of :func:`_log_ratio` in each window of ``wins`` under each
    row of the responses ``Y`` (R, n): values (R, E), NaN where that raises
    :class:`Infeasible` or :class:`MaxIterations` or where the window is
    None.  ``beta`` is the beta of every window, or holds one per replicate
    and window (R, E, 2p).

    The items go through :func:`_batch_dual` a group of replicates at a
    time (see :func:`_stacks`); the ones it does not certify are handed to
    :func:`_log_ratio`, so the scalar solver decides their fate.
    """
    values = np.full((len(Y), len(wins)), np.nan)
    live = np.broadcast_to([win is not None for win in wins], values.shape)
    for rs, es, z, w, y, counts in _stacks(wins, Y, live):
        b = beta if beta.ndim == 1 else beta[rs, es]
        value, _, certified = _batch_dual(_stacked_moments(g, y, z, b, counts), w, counts)
        values[rs, es] = np.where(certified, value, np.nan)
        for k in np.flatnonzero(~certified).tolist():
            r, e = rs[k], es[k]
            try:
                values[r, e], _ = _log_ratio(wins[e], g, Y[r], b if b.ndim == 1 else b[k])
            except (Infeasible, MaxIterations):
                pass
    return values


def _stacked_moments(g, y, z, beta, counts) -> np.ndarray:
    """Moment rows of stacked windows in a (d, M) array, G_i in column i.

    Window e owns ``counts[e]`` consecutive rows of the responses ``y`` and
    local design ``z``; its residuals are taken at ``beta``, or at its own
    row ``beta[e]`` when ``beta`` is 2-d.
    """
    fitted = z @ beta if beta.ndim == 1 else _rowdot(z, np.repeat(beta, counts, axis=0))
    moments = _moments(g, y - fitted, z)
    return np.ascontiguousarray(moments.T)


def _rowdot(a, b) -> np.ndarray:
    """Row-wise inner products of two (M, k) arrays."""
    return np.einsum("mk,mk->m", a, b)


def _batch_dual(gt, w, counts, alpha=None):
    """Damped Newton on the dual of every window at once.

    Window e owns ``counts[e]`` consecutive columns of ``gt`` (d, M) and
    entries of ``w``, and every per-window sum is a ``reduceat`` over its
    segment.  The search starts from ``alpha`` (E, d), or from 0 as the
    scalar solver does; a window whose start is not strictly feasible
    starts from 0.  Each step has the scalar solver's length (see
    :func:`_step_lengths`).  A window is certified when the scalar
    solver's own stopping rule holds there within ``_BATCH_MAX_ITER`` steps
    and every 1 + alpha'G_i is at least ``_BATCH_MARGIN``; the others
    (singular or non-finite step, step underflow, iteration cap,
    near-boundary optimum) are not.  Returns the dual values (E,), the
    multipliers (E, d) and the certified mask (E,).
    """
    d, n_win = gt.shape[0], len(counts)
    values, alphas = np.zeros(n_win), np.zeros((n_win, d))
    certified = np.zeros(n_win, dtype=bool)
    live = np.arange(n_win)
    starts = np.cumsum(counts) - counts
    wsum = np.add.reduceat(w, starts)
    gtol = _DUAL_GTOL * np.maximum(1.0, np.maximum.reduceat(np.abs(gt).max(axis=0), starts))
    if alpha is None:
        a = np.zeros((n_win, d))
        x = np.zeros(len(w))  # alpha'G_i, kept up to date along the steps
        f = np.zeros(n_win)  # dual value sum_i w_i log(1 + x_i) of each window
    else:
        a = np.array(alpha, dtype=float)
        x = np.einsum("km,km->m", gt, np.repeat(a.T, counts, axis=1))
        cold = np.minimum.reduceat(x, starts) <= 1e-12 - 1.0
        a[cold] = 0.0
        x[np.repeat(cold, counts)] = 0.0
        f = np.add.reduceat(w * np.log1p(x), starts)
    failed = np.zeros(n_win, dtype=bool)
    # a trial step past the feasible region makes log1p NaN or -inf, and
    # the line search rejects it
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(_BATCH_MAX_ITER + 1):
            wd = w / (1.0 + x)
            grad = _segment_sums(gt, wd, starts)
            # the scalar solver's stopping rule: small gradient, conserved mass
            done = (np.sqrt(np.einsum("ke,ke->e", grad, grad)) <= gtol) & (
                np.abs(np.add.reduceat(wd, starts) - wsum) <= 1e-8)
            leave = done | failed | (it == _BATCH_MAX_ITER)
            if leave.any():
                ok = done & (np.minimum.reduceat(x, starts) >= _BATCH_MARGIN - 1.0)
                if ok.any():
                    idx = live[ok]
                    values[idx], alphas[idx], certified[idx] = f[ok], a[ok], True
                keep = ~leave
                rows = np.flatnonzero(np.repeat(keep, counts))
                # one array at a time, so at most one old copy is alive
                gt = gt.take(rows, axis=1)
                w = w.take(rows)
                x = x.take(rows)
                wd = wd.take(rows)
                counts, live, f, a, wsum, gtol, grad = (
                    counts[keep], live[keep], f[keep], a[keep], wsum[keep], gtol[keep],
                    grad[:, keep])
                if len(live) == 0:
                    break
                starts = np.cumsum(counts) - counts
            wd /= 1.0 + x  # now w_i / (1 + x_i)^2, the Hessian's row weights
            step = _newton_steps(gt, wd, grad, starts)
            del wd
            failed = ~np.isfinite(step).all(axis=0)
            step[:, failed] = 0.0
            # 1 + alpha'G is linear along the step, so a step length only rescales gs
            gs = np.einsum("km,km->m", gt, np.repeat(step, counts, axis=1))
            c, x, f = _step_lengths(x, gs, w, f, counts, starts)
            failed |= c == 0.0
            a += c[:, None] * step.T
    return values, alphas, certified


def _step_lengths(x, gs, w, f, counts, starts):
    """The line search of :func:`_batch_dual`: each window's step length c,
    with x + c gs and the dual values sum_i w_i log(1 + x_i + c gs_i) there.
    As in the scalar solver, c is the first of 1, 1/2, 1/4, ... at which
    every 1 + x_i + c gs_i exceeds 1e-12 and the value is not worse than
    ``f`` by more than 1e-14, and 0 where c falls to 1e-14 first (the step
    underflows and the window stays where it was).

    The halvings that cannot restore feasibility are not tried.  The
    current point x is feasible, c gs_i is exact for a power of two c and
    rounding is monotone, so a row feasible at c stays feasible at every
    smaller c.  A window infeasible at c = 1 has a bound b, the least
    (x_i - (1e-12 - 1)) / -gs_i over its infeasible rows, and no c of 2b or
    more is feasible there (the rounding of b is far inside that factor);
    it starts at c = 2^-k with k = floor(-log2 b), and halves while the
    feasibility test fails on its rows.  Then only the windows whose value
    comes out worse are halved further.  Each c is the one plain halving
    reaches, and each x + c gs is computed as plain halving computes it.
    """
    edge = 1e-12 - 1.0
    c = np.ones(len(counts))
    xc = x + gs  # 1.0 * gs + x
    short = ~(np.minimum.reduceat(xc, starts) > edge)
    if short.any():
        rows = np.flatnonzero(np.repeat(short, counts))
        xs, gss, n_s = x[rows], gs[rows], counts[short]
        s_s = np.cumsum(n_s) - n_s
        # inf on a feasible row (a division by 0); a NaN or 0 bound leaves no
        # feasible c, and k = 47 is the first k with 2^-k <= 1e-14, the underflow
        b = np.minimum.reduceat((xs - edge) / np.where(xc[rows] > edge, 0.0, -gss), s_s)
        k = np.where(b > 0, np.floor(-np.log2(b)), 47).clip(0, 47).astype(int)
        while True:
            cs = np.ldexp(1.0, -k)
            cs[cs <= 1e-14] = 0.0
            xcs = np.repeat(cs, n_s) * gss + xs
            halve = ~(np.minimum.reduceat(xcs, s_s) > edge) & (cs > 0)
            if not halve.any():
                break
            k[halve] += 1
        c[short] = cs
        xc[rows] = xcs
    terms = np.log1p(xc)
    terms *= w
    fc = np.add.reduceat(terms, starts)
    del terms
    worse = ~(fc >= f - 1e-14) & (c > 0)
    while worse.any():  # rare: a feasible step that lowers the value
        c[worse] *= 0.5
        c[c <= 1e-14] = 0.0
        rows = np.flatnonzero(np.repeat(worse, counts))
        n_s = counts[worse]
        s_s = np.cumsum(n_s) - n_s
        xcs = np.repeat(c[worse], n_s) * gs[rows] + x[rows]
        xc[rows] = xcs
        fc[worse] = fcs = np.add.reduceat(np.log1p(xcs) * w[rows], s_s)
        ok = (np.minimum.reduceat(xcs, s_s) > edge) & (fcs >= f[worse] - 1e-14)
        worse[worse] = ~ok & (c[worse] > 0)
    return c, xc, fc


def _segment_sums(rows, v, starts) -> np.ndarray:
    """Sum of rows[k] * v over each segment beginning at ``starts``, (d, E)."""
    return np.add.reduceat(rows * v, starts, axis=1)


def _newton_steps(gt, v, grad, starts) -> np.ndarray:
    """Newton step H^-1 grad of every window, (d, E), with H the sum of
    v_i G_i G_i' over the window's rows; NaN where H is singular."""
    d, n_win = grad.shape
    hess = np.empty((n_win, d, d))
    for i in range(d):
        hess[:, i, i:] = hess[:, i:, i] = _segment_sums(gt[i:], gt[i] * v, starts).T
    return _solve_or_nan(hess, grad.T[:, :, None])[:, :, 0].T.copy()


def _solve_or_nan(a, b) -> np.ndarray:
    """Solutions x of the stacked systems a[e] x[e] = b[e]; NaN where a[e]
    is singular."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        singular = np.linalg.det(a) == 0
        a = a.copy()
        a[singular] = np.eye(a.shape[-1])
        x = np.linalg.solve(a, b)
        x[singular] = np.nan
        return x


def _lls(win: _LocalWindow, y: np.ndarray) -> np.ndarray:
    """Local weighted least squares of y on the window's design."""
    return _full_rank([win], _stacked_lls([win], y[None])[0])[0]


def _stacked_lls(wins, Y: np.ndarray) -> np.ndarray:
    """:func:`_lls` of each window of ``wins`` under each row of the
    responses ``Y`` (R, n), in an (R, E, 2p) array, NaN rows where the
    window's design is rank deficient.  Each window has its own zw'z and
    one SVD; each replicate has its own zw'y, a matrix-vector product as
    one replicate alone takes it (a product of zw' with several columns of
    Y rounds otherwise), and its own solve of each system (LAPACK per
    matrix, one right-hand side each)."""
    zws = [win.z * win.w[:, None] for win in wins]
    gram = np.array([zw.T @ win.z for zw, win in zip(zws, wins)])
    rhs = np.array([[zw.T @ y[win.active] for zw, win in zip(zws, wins)] for y in Y])
    sv = np.linalg.svd(gram, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        singular = (sv[:, 0] <= 0) | (sv[:, -1] / sv[:, 0] < 1e-12)
    beta = np.full(rhs.shape, np.nan)
    beta[:, ~singular] = np.linalg.solve(gram[~singular], rhs[:, ~singular, :, None])[..., 0]
    return beta


def _full_rank(wins, beta) -> np.ndarray:
    """``beta``, the :func:`_stacked_lls` rows of ``wins``; raises
    :class:`SingularDesign` at the first NaN row."""
    singular = np.flatnonzero(np.isnan(beta[:, 0]))
    if len(singular):
        raise SingularDesign(f"weighted design at u0={wins[singular[0]].u0:g} is rank deficient")
    return beta


def lls_init(data: Dataset, kernel: Kernel, h: float, u0: float) -> LocalParameter:
    """Warm start: local weighted least squares of y on the local design."""
    return LocalParameter.from_vector(_lls(_window(data, kernel, h, u0), data.y))


def _local_linear_fitted(data: Dataset, windows) -> np.ndarray:
    """Local linear smoother: fitted value x_i' A_hat(u_i) at every observation,
    with ``windows`` the window source of ``data`` (see :func:`_windows`)."""
    fitted = np.empty(data.n)
    for block, wins in windows(np.arange(data.n)):
        fitted[block] = _fitted_block(data, block, wins)
    return fitted


def _fitted_block(data: Dataset, block, wins) -> np.ndarray:
    """:func:`_local_linear_fitted` at the observations ``block``, with ``wins``
    their windows."""
    beta = _full_rank(wins, _stacked_lls(_nonempty(wins, data.u[block]), data.y[None])[0])
    # a stack of (1, p) @ (p, 1) products takes the dot x_i' a_i row by row
    return np.matmul(data.x[block, None, :], beta[:, :data.p, None])[:, 0, 0]


def _fit_arrays(shape):
    """Log-EL and status arrays of ``shape`` to fill; NaN and None mark a
    skipped item."""
    return np.full(shape, np.nan), np.full(shape, None, dtype=object)


def _entropies(wins) -> np.ndarray:
    """The entropy of each window of ``wins``, NaN where it is None."""
    return np.array([math.nan if win is None else win.entropy for win in wins])


def _lls_fits(wins, Y, g, dim):
    """The identity-G full fit of :func:`_fit` in each window of ``wins``
    under each row of the responses ``Y``: its log-EL (R, E), beta (R, E,
    ``dim``) and status (R, E), NaN, a NaN row and None where the window is
    None or that raises.

    The LLS fits come from one :func:`_stacked_lls`, and the dual values
    there from one :func:`_log_ratios`, which hands the items it cannot
    certify to the scalar solver as :func:`_fit` would.
    """
    beta = np.full((len(Y), len(wins), dim), np.nan)
    live = [e for e, win in enumerate(wins) if win is not None]
    if live:
        beta[:, live] = _stacked_lls([wins[e] for e in live], Y)
    solved = ~np.isnan(beta[0, :, 0])  # the design alone decides: alike in every replicate
    values = _log_ratios([win if ok else None for win, ok in zip(wins, solved)], g, Y, beta)
    logel = _entropies(wins) - values
    beta[np.isnan(logel)] = np.nan
    return logel, beta, np.where(np.isnan(logel), None, "converged")


class _ProfileObjective:
    """Negative local log-EL of one window as a function of the free parameters.

    Each distinct beta is solved once: ``solved`` keeps the multiplier, or
    the exception, of every beta evaluated (see :func:`_dual`), so the
    start value, BFGS's first evaluation there and the value reported at
    the optimum share one solve.
    """

    def __init__(self, win, y, g, free_idx=None, fixed_vec=None):
        self.win = win
        self.y = y
        self.g = g
        self.dim = win.z.shape[1]
        self.free_idx = np.arange(self.dim) if free_idx is None else np.asarray(free_idx)
        self.fixed_vec = np.zeros(self.dim) if fixed_vec is None else fixed_vec
        self.solved = {}
        self.penalty_ref = None

    def embed(self, free_vec):
        beta = self.fixed_vec.copy()
        beta[self.free_idx] = free_vec
        return beta

    def value_grad(self, free_vec):
        try:
            resid, moments, alpha = _dual(self.win, self.g, self.y, self.embed(free_vec),
                                          self.solved)
        except (Infeasible, MaxIterations):
            dist = free_vec - self.penalty_ref
            return 1e8 * (1.0 + dist @ dist), 2e8 * dist
        denom = 1.0 + moments @ alpha
        neg_logel = float(self.win.w @ np.log(denom)) - self.win.entropy
        # envelope-theorem gradient: alpha is stationary, only the direct
        # dependence through the residuals contributes
        gprime = self.g.batch_derivative(resid)  # (m, k0)
        alpha_blocks = alpha.reshape(self.g.k0, self.dim)
        az = self.win.z @ alpha_blocks.T  # (m, k0)
        s = np.sum(gprime * az, axis=1)
        grad_full = -self.win.z.T @ (self.win.w * s / denom)
        return neg_logel, grad_full[self.free_idx]


def _require_derivative(g: EstimatingFunction) -> None:
    """Refuse an estimating function the profile fit cannot differentiate."""
    if not g.has_derivative:
        raise DerivativeUnavailable(
            "profile optimization needs a differentiable estimating function; "
            "use identity or smoothed_indicator"
        )


def _fit(win, y, g, init=None, free_idx=None, fixed_vec=None) -> LocalELFit:
    """Profile fit in one window from the 2p vector ``init`` (default: the
    LLS fit), moving only the coordinates ``free_idx`` (default: all) of
    ``fixed_vec``.

    With the identity G and all 2p parameters free (``free_idx`` None) the
    fit is exactly identified: 2p moments for 2p parameters.  The maximum
    is then the root of sum_i w_i r_i z_i = 0, which is the LLS fit, where
    alpha = 0 and the log-EL reaches its upper bound, the entropy.  That fit
    is returned without a search and ``init`` is ignored, the maximum being
    unique.  Its value still comes from the dual at that fit, not set to 0,
    so a window whose rounding leaves a nonzero gradient gets its true
    value; a singular local design raises :class:`SingularDesign`.
    """
    solved = None  # the search's dual solves, one per distinct beta
    if g.kind == "identity" and free_idx is None:
        beta_vec, status, outer_iters = _lls(win, y), "converged", 0
    else:
        init_vec = _lls(win, y) if init is None else init
        _require_derivative(g)
        obj = _ProfileObjective(win, y, g, free_idx=free_idx, fixed_vec=fixed_vec)
        x0 = init_vec[obj.free_idx] if free_idx is not None else init_vec
        obj.penalty_ref = x0.copy()
        f0, _ = obj.value_grad(x0)
        if f0 >= 1e8:
            raise Infeasible(f"initial parameter infeasible at u0={win.u0:g}")
        res = minimize(
            obj.value_grad,
            x0,
            jac=True,
            method="BFGS",
            options={"gtol": _OUTER_GTOL, "maxiter": 200},
        )
        xhat, fhat = res.x, res.fun
        status = "converged" if res.success else "max_iter"
        if fhat > f0 + 1e-12:
            # ascent failed to improve on the warm start; keep the start
            xhat, fhat = x0, f0
            status = "max_iter"
        beta_vec, outer_iters, solved = obj.embed(xhat), int(res.nit), obj.solved
    value, alpha = _log_ratio(win, g, y, beta_vec, solved)
    return LocalELFit(u0=win.u0, beta=LocalParameter.from_vector(beta_vec), alpha=alpha,
                      logel=win.entropy - value, entropy=win.entropy, status=status,
                      inner_iters=0 if solved is None else len(solved), outer_iters=outer_iters)


def fit_local(
    data: Dataset,
    kernel: Kernel,
    h: float,
    u0: float,
    g: EstimatingFunction,
    init: LocalParameter | None = None,
) -> LocalELFit:
    """Profile maximizer of the local log-EL over the full 2p parameters.

    For the identity G this is the local least-squares fit, found in closed
    form; ``init`` is then ignored.
    """
    return _fit(_window(data, kernel, h, u0), data.y, g, None if init is None else init.vector)


def fit_local_constrained(
    data: Dataset,
    kernel: Kernel,
    h: float,
    u0: float,
    g: EstimatingFunction,
    fixed_value: np.ndarray,
    fixed_slope: np.ndarray,
    fixed_idx,
    init: LocalParameter | None = None,
) -> LocalELFit:
    """Profile maximizer with coefficients ``fixed_idx`` pinned.

    The pinned coordinates take the values A_10(u0) = ``fixed_value`` and
    scaled slopes h * A'_10(u0) = h * ``fixed_slope``, value k pinning
    coefficient ``fixed_idx[k]``.  The search starts from ``init``
    (default: the LLS fit) with the pins set; for the identity G it is the
    batch of one of :func:`_batch_profile`, and BFGS where that hands off.
    """
    win = _window(data, kernel, h, u0)
    fixed, free_idx = _pins(data.p, win.h, fixed_idx, [np.ravel(fixed_value)],
                            [np.ravel(fixed_slope)])
    start = fixed[0].copy()
    start[free_idx] = (_lls(win, data.y) if init is None else init.vector)[free_idx]
    if g.kind == "identity":
        [(_, _, z, w, y, counts)] = _stacks([win], data.y[None], np.ones((1, 1), dtype=bool))
        [value], [beta], [alpha], [steps], [duals] = _batch_profile(
            z, w, y, counts, g, start[None], free_idx)
        if not math.isnan(value):
            return LocalELFit(u0=win.u0, beta=LocalParameter.from_vector(beta), alpha=alpha,
                              logel=win.entropy - float(value), entropy=win.entropy,
                              status="converged", inner_iters=int(duals),
                              outer_iters=int(steps))
    return _fit(win, data.y, g, start, free_idx, fixed[0])


def _pins(p, h, fixed_idx, values, slopes):
    """The pins of constrained fits at P points: a (P, 2p) array whose row
    e holds ``values[e]`` on the value coordinates of the coefficients
    ``fixed_idx``, in the order given, h * ``slopes[e]`` on their slope
    coordinates and 0 elsewhere, and the indices of the free coordinates.
    ``values`` and ``slopes`` are (P, p1)."""
    fixed_idx = np.asarray(fixed_idx, dtype=int)
    if not 1 <= len(fixed_idx) < p:
        raise ConfigError("need 1 <= p1 < p pinned coefficients")
    if fixed_idx.min() < 0 or fixed_idx.max() >= p or len(np.unique(fixed_idx)) < len(fixed_idx):
        raise ConfigError(f"fixed_idx {fixed_idx.tolist()} must be distinct indices in 0..{p - 1}")
    values, slopes = np.asarray(values, dtype=float), np.asarray(slopes, dtype=float)
    if values.shape != slopes.shape or values.shape[1:] != fixed_idx.shape:
        raise ConfigError("fixed_value / fixed_slope must match fixed_idx")
    fixed = np.zeros((len(values), 2 * p))
    fixed[:, fixed_idx] = values
    fixed[:, p + fixed_idx] = h * slopes
    free = np.ones(2 * p, dtype=bool)
    free[fixed_idx] = free[p + fixed_idx] = False
    return fixed, np.flatnonzero(free)


def _constrained_fits(wins, Y, g, fixed, free_idx, inits):
    """The constrained fit of :func:`_fit` in each window of ``wins`` under
    each row of the responses ``Y``: its log-EL (R, E) and status (R, E),
    NaN and None where the window is None, its start holds a NaN or that
    raises.  Window e has the pins ``fixed[e]`` (see :func:`_pins`), the
    free coordinates ``free_idx`` and, under replicate r, the start
    ``inits[r, e]`` (R, E, 2p) with the pins set.

    For the identity G, :func:`_batch_profile` seeks the same maximizer
    from the same start for every item at once, a group of replicates at a
    time (see :func:`_stacks`); the items it does not certify are handed
    to :func:`_fit`, so every skip decision is that function's.
    """
    logel, status = _fit_arrays((len(Y), len(wins)))
    live = ~np.isnan(inits).any(axis=2) & np.array([win is not None for win in wins])
    starts = np.where(np.isin(np.arange(fixed.shape[1]), free_idx), inits, fixed)
    if g.kind == "identity":
        entropies = _entropies(wins)
        for rs, es, z, w, y, counts in _stacks(wins, Y, live):
            value = _batch_profile(z, w, y, counts, g, starts[rs, es], free_idx)[0]
            ok = ~np.isnan(value)
            logel[rs[ok], es[ok]] = entropies[es[ok]] - value[ok]
            status[rs[ok], es[ok]] = "converged"
    for r, e in zip(*np.nonzero(live & np.isnan(logel))):
        try:
            fit = _fit(wins[e], Y[r], g, starts[r, e], free_idx, fixed[e])
        except (Infeasible, MaxIterations, SingularDesign):
            continue
        logel[r, e], status[r, e] = fit.logel, fit.status
    return logel, status


def _batch_profile(z, w, yv, counts, g, beta, free_idx):
    """Identity-G constrained profile fits of several windows at once by
    damped Newton: per window, the dual value, beta and alpha of its fit
    (NaN where it hands off), the Newton steps taken and the duals solved.

    Window e owns ``counts[e]`` consecutive rows of the stacked local
    designs ``z``, weights ``w`` and responses ``yv``; a window may appear
    more than once, under other responses.  ``beta`` (E, 2p) holds each
    window's start, pinned coordinates set; only the coordinates
    ``free_idx`` move, to minimize the dual value f(beta) = max_alpha
    sum_i w_i log(1 + alpha'G_i(beta)).  Each step is the Newton step of
    :func:`_profile_steps`, shortened to 1 / (1 + lambda) with lambda^2 =
    g'H^-1 g the Newton decrement, and halved until the dual batch
    certifies a value not worse.  Every dual is solved by
    :func:`_batch_dual`, warm-started from the window's last multiplier.
    A window is done when lambda^2 falls to ``_PROFILE_DECREMENT``, and
    every value it reports is one the dual batch certified.  A window is
    handed off where the dual batch does not certify its start, where the
    Hessian of f is not positive definite (the profile need not be convex
    away from the optimum, and a step there may reach another local
    maximum than BFGS would), and where a step stalls or
    ``_PROFILE_MAX_ITER`` steps do not finish it.
    """
    live = np.arange(len(counts))
    beta = beta.copy()
    f, alpha, keep = _batch_dual(_stacked_moments(g, yv, z, beta, counts), w, counts)
    values, betas, alphas = (np.full(len(live), np.nan), np.full_like(beta, np.nan),
                             np.full_like(alpha, np.nan))
    steps, duals = np.zeros(len(live), dtype=int), keep.astype(int)
    for it in range(_PROFILE_MAX_ITER + 1):
        if not keep.all():
            rows = np.flatnonzero(np.repeat(keep, counts))
            z, w, yv = z.take(rows, axis=0), w.take(rows), yv.take(rows)
            counts, live, beta, alpha, f = (
                counts[keep], live[keep], beta[keep], alpha[keep], f[keep])
        if len(live) == 0:
            break
        grad, step = _profile_steps(yv, z, w, beta, alpha, counts, free_idx)
        decrement = -np.einsum("eq,eq->e", grad, step)
        done = np.abs(decrement) <= _PROFILE_DECREMENT
        out = live[done]
        values[out], betas[out], alphas[out], steps[out] = f[done], beta[done], alpha[done], it
        keep = ~done & np.isfinite(step).all(axis=1) & (it < _PROFILE_MAX_ITER)
        full_step = np.zeros_like(beta)
        full_step[:, free_idx] = step
        c = np.where(keep, 1.0 / (1.0 + np.sqrt(np.abs(decrement))), 0.0)
        search = keep.copy()
        while search.any():
            rows = np.flatnonzero(np.repeat(search, counts))
            trial = beta[search] + c[search, None] * full_step[search]
            ft, at, ok = _batch_dual(
                _stacked_moments(g, yv.take(rows), z.take(rows, axis=0), trial, counts[search]),
                w.take(rows), counts[search], alpha[search])
            idx = np.nonzero(search)[0]
            duals[live[idx[ok]]] += 1
            ok &= ft <= f[search] + 1e-14
            acc = idx[ok]
            beta[acc], alpha[acc], f[acc] = trial[ok], at[ok], ft[ok]
            search[acc] = False
            c[search] *= 0.5
            stalled = search & (c < _PROFILE_MIN_STEP)
            keep &= ~stalled
            search &= ~stalled
    return values, betas, alphas, steps, duals


def _profile_steps(yv, z, w, beta, alpha, counts, free_idx):
    """Gradient (E, q) and Newton step (E, q) in the free coordinates of
    the identity-G dual value f(beta) of stacked windows, at beta and the
    windows' dual optima alpha; the step is NaN where the Hessian of f is
    not positive definite.

    With G_i = r_i z_i, dG_i/dbeta = -z_i z_i', p_i = w_i / (1 + alpha'G_i),
    v_i = p_i / (1 + alpha'G_i) and a_i = alpha'z_i, the gradient is the
    envelope gradient J'alpha with J = -sum_i p_i z_i z_i', and the Hessian
    of f is L_bb + L_ab' A^-1 L_ab with A = sum_i v_i G_i G_i' (the dual
    Hessian), L_ab = J + sum_i v_i a_i G_i z_i' and L_bb = -sum_i v_i a_i^2
    z_i z_i' (all restricted to the free coordinates).
    """
    starts = np.cumsum(counts) - counts
    resid = yv - _rowdot(z, np.repeat(beta, counts, axis=0))
    gm = resid[:, None] * z
    zf = z[:, free_idx]
    alpha_rows = np.repeat(alpha, counts, axis=0)
    p = w / (1.0 + _rowdot(gm, alpha_rows))
    v = p * p / w
    va = v * _rowdot(z, alpha_rows)

    def gram(a, b, weight):  # sum_i weight_i a_i b_i' of each window, (E, ka, kb)
        return np.stack([np.add.reduceat(a * (weight * col)[:, None], starts)
                         for col in b.T], axis=-1)

    jac = -gram(z, zf, p)
    grad = np.einsum("edq,ed->eq", jac, alpha)
    cross = jac + gram(gm, zf, va)
    with np.errstate(invalid="ignore"):
        hess = np.einsum("edq,edr->eqr", cross, _solve_or_nan(gram(gm, gm, v), cross))
        hess -= gram(zf, zf, va * va / v)
        convex = np.isfinite(hess).all(axis=(1, 2))
        # Sylvester's criterion: every leading principal minor is positive
        for k in range(1, hess.shape[1] + 1):
            convex[convex] = np.linalg.det(hess[convex, :k, :k]) > 0
        step = -_solve_or_nan(hess, grad[:, :, None])[:, :, 0]
    step[~convex] = np.nan
    return grad, step
