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
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog, minimize

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
    "moment_vectors",
    "solve_lagrange",
    "implied_probabilities",
    "local_logel",
    "lls_init",
    "fit_local",
    "fit_local_constrained",
]

_DUAL_GTOL = 1e-12
_DUAL_MAX_ITER = 100
_OUTER_GTOL = 1e-7
_KEEP_BYTES = 8 * 2**20  # windows a _WindowStore keeps for reuse
_BATCH_ROWS = 2048  # moment rows one batched dual solve holds
_BATCH_MAX_ITER = 20  # Newton steps before the batch hands a window off
_BATCH_MARGIN = 1e-6  # smallest 1 + alpha'G at an optimum the batch certifies


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


def _window(data: Dataset, kernel: Kernel, h: float, u0: float) -> _LocalWindow:
    """The window at u0: weights w_i = K_h(u_i - u0) / sum_m K_h(u_m - u0)
    on the observations with positive kernel weight, and local design rows
    z_i = (x_i, t_i x_i) with t_i = (u_i - u0)/h.
    """
    if h <= 0:
        raise ConfigError("bandwidth must be > 0")
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
    return _LocalWindow(float(u0), float(h), active, w, _design(data, active, u0, h))


def _windows(data: Dataset, kernel: Kernel, h: float):
    """Window builder of one design: j -> the window centred at u_j."""
    return lambda j: _window(data, kernel, h, float(data.u[j]))


class _WindowStore:
    """Windows of one design (u, x, kernel) for a loop that redraws only y.

    ``at(h)`` maps j to the window centred at u_j, built on first use and
    kept while the kept windows hold fewer than ``_KEEP_BYTES`` bytes; later
    windows are rebuilt on every call.  A window holds O(n h) rows, so all n
    of them would take O(n^2 h p) memory.
    """

    def __init__(self, data: Dataset, kernel: Kernel):
        self.data = data
        self.kernel = kernel
        self.kept = {}
        self.nbytes = 0

    def at(self, h: float):
        return lambda j: self._get(h, j)

    def _get(self, h, j):
        win = self.kept.get((h, j))
        if win is None:
            win = _window(self.data, self.kernel, h, float(self.data.u[j]))
            if self.nbytes < _KEEP_BYTES:
                self.kept[h, j] = win
                self.nbytes += win.active.nbytes + win.w.nbytes + win.z.nbytes
        return win


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


def moment_vectors(
    data: Dataset,
    h: float,
    u0: float,
    beta: LocalParameter,
    g: EstimatingFunction,
    active: np.ndarray | None = None,
) -> np.ndarray:
    """Moment vectors G(residual_i) kron z_i over the active window.

    The Kronecker product varies the estimating-function component slowest,
    so rows have length k0 * 2p.  The default active set is |u_i - u0| < h,
    the window of every kernel that vanishes at +-1; pass
    ``local_weights(...).active`` for a kernel that does not.
    """
    if active is None:
        active = np.nonzero(np.abs((data.u - u0) / h) < 1.0)[0]
    z = _design(data, active, u0, h)
    return _moments(g, data.y[active] - z @ beta.vector, z)


def _hull_contains_zero(moments: np.ndarray) -> bool:
    """LP certificate for 0 in the convex hull of the rows of ``moments``."""
    m, d = moments.shape
    a_eq = np.vstack([moments.T, np.ones(m)])
    b_eq = np.concatenate([np.zeros(d), [1.0]])
    res = linprog(np.zeros(m), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    return res.status == 0


def solve_lagrange(
    moments: np.ndarray,
    weights: np.ndarray,
    gtol: float = _DUAL_GTOL,
    max_iter: int = _DUAL_MAX_ITER,
) -> np.ndarray:
    """Maximize the concave dual by damped Newton; returns the multiplier.

    Raises :class:`Infeasible` when 0 is not in the convex hull of the
    moment vectors (certified by an LP once the Newton path stalls), and
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
    # the gradient scales linearly with the moments, so the stopping rule
    # must too or the solver would not be invariant under y -> c y
    gtol_eff = gtol * max(1.0, float(np.abs(moments).max()))
    for _ in range(max_iter):
        wd = weights / denom
        grad = moments.T @ wd
        # at an interior optimum the tilted masses keep their total:
        # sum w/(1+a'G) = sum w.  A vanishing gradient without that property
        # means the dual is unbounded (runaway alpha), not solved.
        if np.linalg.norm(grad) <= gtol_eff and abs(wd.sum() - wsum) <= 1e-8:
            return alpha
        hess = (moments * (wd / denom)[:, None]).T @ moments
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        if not np.all(np.isfinite(step)):
            break
        # halve until strictly inside the feasible region and not worse
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
            break  # step underflow: feasible region exhausted
        alpha, denom = cand, dc
    if not _hull_contains_zero(moments):
        raise Infeasible("0 is not in the convex hull of the moment vectors")
    # near-boundary optima (a near-zero kernel weight on the only point of
    # one sign) stall at a rounding-limited gradient floor; mass
    # conservation still separates them from a runaway unbounded dual
    wd = weights / denom
    if (
        np.linalg.norm(moments.T @ wd) <= 1e6 * gtol_eff
        and abs(wd.sum() - wsum) <= 1e-8
    ):
        return alpha
    raise MaxIterations(
        "dual Newton did not converge (hull condition holds only on the boundary)"
    )


def implied_probabilities(
    moments: np.ndarray, weights: np.ndarray, alpha: np.ndarray
) -> np.ndarray:
    """Tilted masses p_i = w_i / (1 + alpha' G_i) on the active set."""
    denom = 1.0 + np.asarray(moments) @ np.asarray(alpha)
    if denom.min() <= 0:
        raise Infeasible("alpha is not dual feasible")
    return np.asarray(weights) / denom


def _dual(win: _LocalWindow, g: EstimatingFunction, y: np.ndarray, beta_vec: np.ndarray):
    """Residuals, moment rows and dual multiplier of one window at a fixed beta."""
    resid = y[win.active] - win.z @ beta_vec
    moments = _moments(g, resid, win.z)
    return resid, moments, solve_lagrange(moments, win.w)


def _log_ratio(win: _LocalWindow, g: EstimatingFunction, y: np.ndarray, beta_vec: np.ndarray):
    """Dual value sum_i w_i log(1 + alpha' G_i) at a fixed beta, which is the
    window's entropy minus its local log-EL, and the multiplier alpha."""
    _, moments, alpha = _dual(win, g, y, beta_vec)
    return float(win.w @ np.log1p(moments @ alpha)), alpha


def _log_ratios(tagged, g, y, beta_vec):
    """For each (tag, window) pair of ``tagged``, (tag, value of
    :func:`_log_ratio`); the value is None where that raises
    :class:`Infeasible` or :class:`MaxIterations`, or where the window is None.

    ``tagged`` is consumed lazily: consecutive windows are solved together,
    at most ``_BATCH_ROWS`` moment rows at a time (a larger window alone).
    """
    tags, wins, rows = [], [], 0
    for tag, win in tagged:
        m = 0 if win is None else len(win.active)
        if wins and rows + m > _BATCH_ROWS:
            yield from zip(tags, _batch_log_ratios(wins, g, y, beta_vec))
            tags, wins, rows = [], [], 0
        tags.append(tag)
        wins.append(win)
        rows += m
    if wins:
        yield from zip(tags, _batch_log_ratios(wins, g, y, beta_vec))


def _batch_log_ratios(wins, g, y, beta_vec) -> list:
    """:func:`_log_ratios` of one chunk: one damped Newton over all windows.

    The moment rows of the windows lie side by side in a (d, M) array and
    every per-window sum is a ``reduceat`` over the window's segment.  The
    batch certifies a window when the scalar solver's own stopping rule
    holds there within ``_BATCH_MAX_ITER`` steps and every 1 + alpha'G_i
    is at least ``_BATCH_MARGIN``.  It hands every other window (singular
    or non-finite step, step underflow, iteration cap, near-boundary
    optimum) to :func:`_log_ratio`, so the scalar solver decides its fate.
    """
    out = [None] * len(wins)
    live = np.array([e for e, win in enumerate(wins) if win is not None], dtype=int)
    if len(live) == 0:
        return out
    counts = np.array([len(wins[e].active) for e in live])
    z = np.concatenate([wins[e].z for e in live])
    resid = y[np.concatenate([wins[e].active for e in live])] - z @ beta_vec
    moments = _moments(g, resid, z)
    del z, resid  # temporaries go early: the chunk's peak sets the process RSS
    gt = np.ascontiguousarray(moments.T)  # (d, M), G_i in column i
    del moments
    w = np.concatenate([wins[e].w for e in live])
    starts = np.cumsum(counts) - counts
    wsum = np.add.reduceat(w, starts)
    gtol = _DUAL_GTOL * np.maximum(1.0, np.maximum.reduceat(np.abs(gt).max(axis=0), starts))
    x = np.zeros(len(w))  # alpha'G_i, kept up to date along the steps
    f = np.zeros(len(live))  # dual value sum_i w_i log(1 + x_i) of each window
    failed = np.zeros(len(live), dtype=bool)
    handoff = []
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
                certified = done & (np.minimum.reduceat(x, starts) >= _BATCH_MARGIN - 1.0)
                for e, value in zip(live[certified], f[certified]):
                    out[e] = float(value)
                handoff.extend(live[leave & ~certified])
                keep = ~leave
                rows = np.repeat(keep, counts)
                # one array at a time, so at most one old copy is alive
                gt = gt[:, rows]
                w = w[rows]
                x = x[rows]
                wd = wd[rows]
                counts, live, f, wsum, gtol, grad = (
                    counts[keep], live[keep], f[keep], wsum[keep], gtol[keep], grad[:, keep])
                if len(live) == 0:
                    break
                starts = np.cumsum(counts) - counts
            wd /= 1.0 + x  # now w_i / (1 + x_i)^2, the Hessian's row weights
            step = _newton_steps(gt, wd, grad, starts)
            del wd
            failed = ~np.isfinite(step).all(axis=0)
            step[:, failed] = 0.0
            # 1 + alpha'G is linear along the step, so halving only rescales gs
            gs = np.einsum("km,km->m", gt, np.repeat(step, counts, axis=1))
            c = np.ones(len(live))
            xc = x + gs
            while True:
                terms = np.log1p(xc)
                terms *= w
                fc = np.add.reduceat(terms, starts)
                del terms
                # as the scalar: strictly inside the feasible region and not
                # worse; a window whose step underflowed stays where it was
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
            x, f = xc, fc
    for e in handoff:
        try:
            out[e] = _log_ratio(wins[e], g, y, beta_vec)[0]
        except (Infeasible, MaxIterations):
            pass
    return out


def _segment_sums(rows, v, starts) -> np.ndarray:
    """Sum of rows[k] * v over each segment beginning at ``starts``, (d, E)."""
    buf = np.empty_like(v)
    return np.array([np.add.reduceat(np.multiply(r, v, out=buf), starts) for r in rows])


def _newton_steps(gt, v, grad, starts) -> np.ndarray:
    """Newton step H^-1 grad of every window, (d, E), with H the sum of
    v_i G_i G_i' over the window's rows; NaN where H is singular."""
    d, n_win = grad.shape
    hess = np.empty((n_win, d, d))
    for i in range(d):
        hess[:, i, i:] = hess[:, i:, i] = _segment_sums(gt[i:], gt[i] * v, starts).T
    singular = np.zeros(n_win, dtype=bool)
    try:
        step = np.linalg.solve(hess, grad.T[:, :, None])
    except np.linalg.LinAlgError:
        singular = np.linalg.det(hess) == 0
        hess[singular] = np.eye(d)
        step = np.linalg.solve(hess, grad.T[:, :, None])
    step = step[:, :, 0].T.copy()
    step[:, singular] = np.nan
    return step


def local_logel(
    data: Dataset,
    kernel: Kernel,
    h: float,
    u0: float,
    beta: LocalParameter,
    g: EstimatingFunction,
) -> tuple[float, float]:
    """Local log empirical likelihood and window entropy at (u0, beta)."""
    win = _window(data, kernel, h, u0)
    value, _ = _log_ratio(win, g, data.y, beta.vector)
    return win.entropy - value, win.entropy


def _lls(win: _LocalWindow, y: np.ndarray) -> np.ndarray:
    """Local weighted least squares of y on the window's design."""
    zw = win.z * win.w[:, None]
    gram = zw.T @ win.z
    rhs = zw.T @ y[win.active]
    sv = np.linalg.svd(gram, compute_uv=False)
    if sv[0] <= 0 or sv[-1] / sv[0] < 1e-12:
        raise SingularDesign(f"weighted design at u0={win.u0:g} is rank deficient")
    return np.linalg.solve(gram, rhs)


def lls_init(data: Dataset, kernel: Kernel, h: float, u0: float) -> LocalParameter:
    """Warm start: local weighted least squares of y on the local design."""
    return LocalParameter.from_vector(_lls(_window(data, kernel, h, u0), data.y))


def _local_linear_fitted(data: Dataset, window_at) -> np.ndarray:
    """Local linear smoother: fitted value x_i' A_hat(u_i) at every observation,
    with ``window_at(i)`` the window centred at u_i."""
    fitted = np.empty(data.n)
    for i in range(data.n):
        fitted[i] = data.x[i] @ _lls(window_at(i), data.y)[: data.p]
    return fitted


class _ProfileObjective:
    """Negative local log-EL of one window as a function of the free parameters."""

    def __init__(self, win, y, g, free_idx=None, fixed_vec=None):
        self.win = win
        self.y = y
        self.g = g
        self.dim = win.z.shape[1]
        self.free_idx = np.arange(self.dim) if free_idx is None else np.asarray(free_idx)
        self.fixed_vec = np.zeros(self.dim) if fixed_vec is None else fixed_vec
        self.inner_iters = 0
        self.penalty_ref = None

    def embed(self, free_vec):
        beta = self.fixed_vec.copy()
        beta[self.free_idx] = free_vec
        return beta

    def value_grad(self, free_vec):
        try:
            resid, moments, alpha = _dual(self.win, self.g, self.y, self.embed(free_vec))
        except (Infeasible, MaxIterations):
            dist = free_vec - self.penalty_ref
            return 1e8 * (1.0 + dist @ dist), 2e8 * dist
        self.inner_iters += 1
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
    """Profile fit in one window from ``init`` (default: the LLS fit)."""
    init_vec = _lls(win, y) if init is None else init.vector
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
    beta_vec = obj.embed(xhat)
    value, alpha = _log_ratio(win, g, y, beta_vec)
    return LocalELFit(
        u0=win.u0,
        beta=LocalParameter.from_vector(beta_vec),
        alpha=alpha,
        logel=win.entropy - value,
        entropy=win.entropy,
        status=status,
        inner_iters=obj.inner_iters,
        outer_iters=int(res.nit),
    )


def fit_local(
    data: Dataset,
    kernel: Kernel,
    h: float,
    u0: float,
    g: EstimatingFunction,
    init: LocalParameter | None = None,
) -> LocalELFit:
    """Profile maximizer of the local log-EL over the full 2p parameters."""
    return _fit(_window(data, kernel, h, u0), data.y, g, init)


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
    scaled slopes h * A'_10(u0) = h * ``fixed_slope``.
    """
    return _fit_constrained(_window(data, kernel, h, u0), data.y, g, fixed_value,
                            fixed_slope, fixed_idx, init)


def _fit_constrained(win, y, g, fixed_value, fixed_slope, fixed_idx, init=None):
    p = win.z.shape[1] // 2
    fixed_idx = np.asarray(sorted(set(int(i) for i in fixed_idx)))
    if len(fixed_idx) == 0 or len(fixed_idx) >= p:
        raise ConfigError("need 1 <= p1 < p pinned coefficients")
    if np.any(fixed_idx < 0) or np.any(fixed_idx >= p):
        raise ConfigError("fixed_idx out of range")
    fixed_value = np.atleast_1d(np.asarray(fixed_value, dtype=float))
    fixed_slope = np.atleast_1d(np.asarray(fixed_slope, dtype=float))
    if len(fixed_value) != len(fixed_idx) or len(fixed_slope) != len(fixed_idx):
        raise ConfigError("fixed_value / fixed_slope must match fixed_idx")

    fixed_vec = np.zeros(2 * p)
    fixed_vec[fixed_idx] = fixed_value
    fixed_vec[p + fixed_idx] = win.h * fixed_slope
    free_mask = np.ones(2 * p, dtype=bool)
    free_mask[fixed_idx] = False
    free_mask[p + fixed_idx] = False
    return _fit(win, y, g, init, free_idx=np.nonzero(free_mask)[0], fixed_vec=fixed_vec)
