"""Smoothing kernels and their test-calibration constants.

A kernel is a symmetric probability density supported on [-1, 1].  The
chi-squared calibration of the likelihood-ratio statistics depends on the
kernel only through the convolution-type functional

    Kstar(s) = int K(t) K(s+t) (1 + t (s+t) / mu2) dt,   mu2 = int t^2 K(t) dt,

and the derived constants

    r_K = 2 Kstar(0) / int Kstar(s)^2 ds,
    c_K = Kstar(0)^2 / int Kstar(s)^2 ds,

with the square integral taken over the support [-2, 2] of Kstar.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ConfigError, QuadratureError

__all__ = [
    "Kernel",
    "KernelConstants",
    "kernel_by_name",
    "tabulated_kernel",
    "second_moment",
    "kstar",
    "kernel_constants",
    "KERNEL_FAMILIES",
]

_QUAD_RTOL = 1e-8
_QUAD_LIMIT = 200
# fixed fallback when adaptive quadrature does not converge
_FALLBACK_PANELS = 2048


@dataclass(frozen=True)
class Kernel:
    """Symmetric probability-density weight function on [-1, 1]."""

    family: str
    evaluator: Callable[[np.ndarray], np.ndarray]

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        inside = np.abs(t) <= 1.0
        out = np.zeros_like(t, dtype=float)
        if np.any(inside):
            out[inside] = self.evaluator(t[inside])
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class KernelConstants:
    """Calibration constants of a kernel.

    ``r_K`` scales the statistic onto the chi-squared scale and ``c_K``
    enters the degrees-of-freedom formulas; both derive exactly from
    ``kstar0`` and ``kstar_l2``.
    """

    mu2: float
    kstar0: float
    kstar_l2: float
    r_K: float
    c_K: float


KERNEL_FAMILIES: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "uniform": lambda t: np.full_like(t, 0.5),
    "epanechnikov": lambda t: 0.75 * (1.0 - t**2),
    "biweight": lambda t: (15.0 / 16.0) * (1.0 - t**2) ** 2,
    "triweight": lambda t: (35.0 / 32.0) * (1.0 - t**2) ** 3,
}


def kernel_by_name(name: str) -> Kernel:
    try:
        return Kernel(name, KERNEL_FAMILIES[name])
    except KeyError:
        raise ConfigError(
            f"unknown kernel {name!r}; choose from {sorted(KERNEL_FAMILIES)}"
        ) from None


def tabulated_kernel(t_grid, k_values) -> Kernel:
    """Build a kernel from samples (t, K(t)) on a uniform grid.

    Values are linearly interpolated; the result must satisfy the usual
    kernel invariants (nonnegative, symmetric, unit mass) or a
    :class:`ConfigError` is raised.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    k_values = np.asarray(k_values, dtype=float)
    if t_grid.ndim != 1 or t_grid.shape != k_values.shape or t_grid.size < 3:
        raise ConfigError("tabulated kernel needs two equal 1-d columns, >= 3 rows")
    if not (np.isfinite(t_grid).all() and np.isfinite(k_values).all()):
        raise ConfigError("tabulated kernel entries must be finite")
    if np.any(np.diff(t_grid) <= 0):
        raise ConfigError("tabulated kernel grid must be strictly increasing")
    if np.any(k_values < 0):
        raise ConfigError("tabulated kernel has negative values")

    def evaluator(t):
        return np.interp(t, t_grid, k_values, left=0.0, right=0.0)

    kern = Kernel("tabulated", evaluator)
    # the interpolant is linear between the grid points clipped to [-1, 1], so
    # their trapezoid sum is its exact integral there
    x = np.clip(t_grid, -1.0, 1.0)
    y = kern(x)
    mass = float(np.sum(np.diff(x) * (y[1:] + y[:-1]) / 2.0))
    if abs(mass - 1.0) > 1e-6:
        raise ConfigError(f"tabulated kernel integrates to {mass:.8f}, not 1")
    probe = np.linspace(0, 1, 101)
    if np.max(np.abs(kern(probe) - kern(-probe))) > 1e-8:
        raise ConfigError("tabulated kernel is not symmetric")
    return kern


def _adaptive(f, a, b):
    # full_output keeps quad from warning when it cannot certify the
    # tolerance: the error estimate is tested below, and that test alone
    # picks the fallback
    from scipy.integrate import quad

    val, err, *_ = quad(f, a, b, epsrel=_QUAD_RTOL, epsabs=0.0, limit=_QUAD_LIMIT,
                        full_output=1)
    if not np.isfinite(val):
        raise QuadratureError(f"quadrature diverged on [{a}, {b}]")
    if err > 10 * _QUAD_RTOL * max(1.0, abs(val)):
        # composite-midpoint fallback with a fixed panel count
        x = a + (b - a) * (np.arange(_FALLBACK_PANELS) + 0.5) / _FALLBACK_PANELS
        val = (b - a) / _FALLBACK_PANELS * float(np.sum([f(xi) for xi in x]))
    return val


def second_moment(kernel: Kernel) -> float:
    """Second moment mu2 = int t^2 K(t) dt."""
    return _adaptive(lambda t: t * t * kernel(t), -1.0, 1.0)


def kstar(kernel: Kernel, s: float, mu2: float | None = None) -> float:
    """Convolution functional Kstar(s); zero for |s| > 2, even in s."""
    s = float(s)
    if abs(s) > 2.0:
        return 0.0
    if mu2 is None:
        mu2 = second_moment(kernel)
    lo, hi = max(-1.0, -1.0 - s), min(1.0, 1.0 - s)
    if lo >= hi:
        return 0.0

    return _adaptive(lambda t: kernel(t) * kernel(s + t) * (1.0 + t * (s + t) / mu2), lo, hi)


def _quadrature_constants(kernel: Kernel) -> KernelConstants:
    """The calibration constants of a kernel by adaptive quadrature.

    ``kstar_l2`` integrates Kstar(s)^2 over [-2, 2]; ``r_K`` and ``c_K``
    follow from the exact identities, which force ``c_K == r_K * kstar0 / 2``.
    """
    mu2 = second_moment(kernel)
    if not 0.0 < mu2 < 1.0:
        raise QuadratureError(f"second moment {mu2} outside (0, 1)")
    kstar0 = kstar(kernel, 0.0, mu2)
    # symmetry: integrate the half line and double
    half = _adaptive(lambda s: kstar(kernel, s, mu2) ** 2, 0.0, 2.0)
    kstar_l2 = 2.0 * half
    r_k = 2.0 * kstar0 / kstar_l2
    c_k = r_k * kstar0 / 2.0
    return KernelConstants(mu2=mu2, kstar0=kstar0, kstar_l2=kstar_l2, r_K=r_k, c_K=c_k)


# _quadrature_constants of the named families, float for float, so that start-up
# needs no scipy.integrate.  Epanechnikov and triweight r_K and c_K are the
# correctly rounded exact values; uniform r_K and c_K and biweight c_K are one
# ulp from theirs.
_NAMED_CONSTANTS = {
    "uniform": KernelConstants(
        0.3333333333333333, 1.0, 0.7047619047619047, 2.837837837837838, 1.418918918918919),
    "epanechnikov": KernelConstants(
        0.2, 1.0285714285714285, 0.8295704295704295, 2.479768786127168, 1.2753096614368291),
    "biweight": KernelConstants(
        0.14285714285714285, 1.168831168831169, 0.9506181375112015, 2.4590971341894816,
        1.4371346888120349),
    "triweight": KernelConstants(
        0.1111111111111111, 1.3053613053613053, 1.0603112878375955, 2.4622227836949016,
        1.6070451735071618),
}


@lru_cache(maxsize=64)
def kernel_constants(kernel: Kernel) -> KernelConstants:
    """All calibration constants of a kernel: a named family's from its table,
    any other kernel's by quadrature."""
    if kernel.evaluator is KERNEL_FAMILIES.get(kernel.family):
        return _NAMED_CONSTANTS[kernel.family]
    return _quadrature_constants(kernel)
