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


def _window(data: Dataset, kernel: Kernel, h: float, u0: float):
    """Active indices, normalized weights and local design of one window.

    The weights are w_i = K_h(u_i - u0) / sum_m K_h(u_m - u0) on the
    observations with positive kernel weight; the local design has rows
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
    return active, raw[active] / total, _design(data, active, u0, h)


def local_weights(data: Dataset, kernel: Kernel, h: float, u0: float) -> LocalWeights:
    """Normalized kernel weights w_i = K_h(u_i - u0) / sum_m K_h(u_m - u0)."""
    active, wa, _ = _window(data, kernel, h, u0)
    w = np.zeros(data.n)
    w[active] = wa
    return LocalWeights(u0=float(u0), h=float(h), w=w, active=active)


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
    so rows have length k0 * 2p.
    """
    if active is None:
        active = np.nonzero(np.abs(data.u - u0) <= h)[0]
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


def _entropy(w_active: np.ndarray) -> float:
    return float(np.sum(w_active * np.log(w_active)))


def local_logel(
    data: Dataset,
    kernel: Kernel,
    h: float,
    u0: float,
    beta: LocalParameter,
    g: EstimatingFunction,
) -> tuple[float, float]:
    """Local log empirical likelihood and window entropy at (u0, beta)."""
    active, wa, z = _window(data, kernel, h, u0)
    moments = _moments(g, data.y[active] - z @ beta.vector, z)
    alpha = solve_lagrange(moments, wa)
    ent = _entropy(wa)
    logel = ent - float(wa @ np.log1p(moments @ alpha))
    return logel, ent


def lls_init(data: Dataset, kernel: Kernel, h: float, u0: float) -> LocalParameter:
    """Warm start: local weighted least squares of y on the local design."""
    idx, wa, z = _window(data, kernel, h, u0)
    zw = z * wa[:, None]
    gram = zw.T @ z
    rhs = zw.T @ data.y[idx]
    sv = np.linalg.svd(gram, compute_uv=False)
    if sv[0] <= 0 or sv[-1] / sv[0] < 1e-12:
        raise SingularDesign(f"weighted design at u0={u0:g} is rank deficient")
    return LocalParameter.from_vector(np.linalg.solve(gram, rhs))


def _local_linear_fitted(data: Dataset, kernel: Kernel, h: float) -> np.ndarray:
    """Local linear smoother: fitted value x_i' A_hat(u_i) at every observation."""
    fitted = np.empty(data.n)
    for i in range(data.n):
        beta = lls_init(data, kernel, h, float(data.u[i]))
        fitted[i] = data.x[i] @ beta.a
    return fitted


class _ProfileObjective:
    """Negative local log-EL as a function of the stacked parameter vector."""

    def __init__(self, data, kernel, h, u0, g, free_idx=None, fixed_vec=None):
        self.idx, self.wa, self.z = _window(data, kernel, h, u0)
        self.y = data.y[self.idx]
        self.g = g
        self.entropy = _entropy(self.wa)
        self.dim = 2 * data.p
        self.free_idx = np.arange(self.dim) if free_idx is None else np.asarray(free_idx)
        self.fixed_vec = np.zeros(self.dim) if fixed_vec is None else fixed_vec
        self.inner_iters = 0
        self.penalty_ref = None

    def embed(self, free_vec):
        beta = self.fixed_vec.copy()
        beta[self.free_idx] = free_vec
        return beta

    def moments(self, beta_vec):
        resid = self.y - self.z @ beta_vec
        return _moments(self.g, resid, self.z), resid

    def value_grad(self, free_vec):
        beta_vec = self.embed(free_vec)
        moments, resid = self.moments(beta_vec)
        try:
            alpha = solve_lagrange(moments, self.wa)
        except (Infeasible, MaxIterations):
            dist = free_vec - self.penalty_ref
            return 1e8 * (1.0 + dist @ dist), 2e8 * dist
        self.inner_iters += 1
        denom = 1.0 + moments @ alpha
        neg_logel = float(self.wa @ np.log(denom)) - self.entropy
        # envelope-theorem gradient: alpha is stationary, only the direct
        # dependence through the residuals contributes
        gprime = self.g.batch_derivative(resid)  # (m, k0)
        alpha_blocks = alpha.reshape(self.g.k0, self.dim)
        az = self.z @ alpha_blocks.T  # (m, k0)
        s = np.sum(gprime * az, axis=1)
        grad_full = -self.z.T @ (self.wa * s / denom)
        return neg_logel, grad_full[self.free_idx]


def _fit(data, kernel, h, u0, g, init_vec, free_idx=None, fixed_vec=None) -> LocalELFit:
    if not g.has_derivative:
        raise DerivativeUnavailable(
            "profile optimization needs a differentiable estimating function; "
            "use identity or smoothed_indicator"
        )
    obj = _ProfileObjective(data, kernel, h, u0, g, free_idx=free_idx, fixed_vec=fixed_vec)
    x0 = init_vec[obj.free_idx] if free_idx is not None else init_vec
    obj.penalty_ref = x0.copy()
    f0, _ = obj.value_grad(x0)
    if f0 >= 1e8:
        raise Infeasible(f"initial parameter infeasible at u0={u0:g}")
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
    moments, _ = obj.moments(beta_vec)
    alpha = solve_lagrange(moments, obj.wa)
    logel = obj.entropy - float(obj.wa @ np.log1p(moments @ alpha))
    return LocalELFit(
        u0=float(u0),
        beta=LocalParameter.from_vector(beta_vec),
        alpha=alpha,
        logel=logel,
        entropy=obj.entropy,
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
    if init is None:
        init = lls_init(data, kernel, h, u0)
    return _fit(data, kernel, h, u0, g, init.vector)


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
    p = data.p
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
    fixed_vec[p + fixed_idx] = h * fixed_slope
    free_mask = np.ones(2 * p, dtype=bool)
    free_mask[fixed_idx] = False
    free_mask[p + fixed_idx] = False
    free_idx = np.nonzero(free_mask)[0]

    if init is None:
        init = lls_init(data, kernel, h, u0)
    return _fit(data, kernel, h, u0, g, init.vector, free_idx=free_idx, fixed_vec=fixed_vec)
