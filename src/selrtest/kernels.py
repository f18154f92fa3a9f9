"""Smoothing kernels and their test-calibration constants.

A kernel is a symmetric probability density supported on [-1, 1].  The
chi-squared calibration of the likelihood-ratio statistics depends on the
kernel only through the convolution-type functional

    Kstar(s) = int K(t) K(s+t) (1 + t (s+t) / mu2) dt,   mu2 = int t^2 K(t) dt,

and the derived constants

    r_K = 2 Kstar(0) / int Kstar(s)^2 ds,
    c_K = Kstar(0)^2 / int Kstar(s)^2 ds,

with the square integral taken over the support [-2, 2] of Kstar.  Every
kernel built here is piecewise polynomial, so these integrals have exact rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ConfigError

__all__ = ["Kernel", "KernelConstants", "kernel_by_name", "tabulated_kernel",
           "second_moment", "kstar", "kernel_constants", "KERNEL_FAMILIES"]


@dataclass(frozen=True)
class Kernel:
    """Symmetric probability-density weight function on [-1, 1], a polynomial of
    degree at most ``degree`` on each of ``pieces`` equal pieces of it (the
    rule of :func:`kernel_constants` is exact for such an evaluator only)."""

    family: str
    evaluator: Callable[[np.ndarray], np.ndarray]
    pieces: int = 1
    degree: int = 6

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.abs(t, out=np.empty_like(t))  # |t|, then the values: one array of t's size
        inside = out <= 1.0
        out[...] = 0.0
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
_DEGREES = {"uniform": 0, "epanechnikov": 2, "biweight": 4, "triweight": 6}


def kernel_by_name(name: str) -> Kernel:
    try:
        return Kernel(name, KERNEL_FAMILIES[name], degree=_DEGREES[name])
    except KeyError:
        raise ConfigError(
            f"unknown kernel {name!r}; choose from {sorted(KERNEL_FAMILIES)}"
        ) from None


def tabulated_kernel(t_grid, k_values) -> Kernel:
    """Build a kernel from samples (t, K(t)) on a uniform grid of [-1, 1].

    The grid runs from -1 to 1 in equal steps (each point within 1e-9 of a step
    of its place); K, linear between the points, must be nonnegative, symmetric
    and of unit mass, or a :class:`ConfigError` is raised."""
    t_grid = np.asarray(t_grid, dtype=float)
    k_values = np.asarray(k_values, dtype=float)
    if t_grid.ndim != 1 or t_grid.shape != k_values.shape or t_grid.size < 3:
        raise ConfigError("tabulated kernel needs two equal 1-d columns, >= 3 rows")
    if not (np.isfinite(t_grid).all() and np.isfinite(k_values).all()):
        raise ConfigError("tabulated kernel entries must be finite")
    knots = np.linspace(-1.0, 1.0, t_grid.size)
    step = knots[1] - knots[0]
    if np.max(np.abs(t_grid - knots)) > 1e-9 * step:
        raise ConfigError("tabulated kernel grid must run from -1 to 1 in equal steps")
    if np.any(k_values < 0):
        raise ConfigError("tabulated kernel has negative values")
    # the interpolant is linear between the knots, so the trapezoid sum is its
    # exact integral, and it is even if and only if its knot values are
    mass = step * float(np.sum(k_values[1:] + k_values[:-1])) / 2.0
    if abs(mass - 1.0) > 1e-6:
        raise ConfigError(f"tabulated kernel integrates to {mass:.8f}, not 1")
    if np.max(np.abs(k_values - k_values[::-1])) > 1e-8:
        raise ConfigError("tabulated kernel is not symmetric")

    def evaluator(t):
        return np.interp(t, knots, k_values)

    return Kernel("tabulated", evaluator, pieces=t_grid.size - 1, degree=1)


def _rule(kernel, points):
    """Left ends and width of the kernel's equal pieces of [-1, 1], and the
    Gauss-Legendre nodes and weights on [0, 1], exact below degree 2 * points."""
    from numpy.polynomial.legendre import leggauss  # not needed at start-up

    x, w = leggauss(points)
    width = 2.0 / kernel.pieces
    return -1.0 + width * np.arange(kernel.pieces), width, (x + 1.0) / 2.0, w / 2.0


def second_moment(kernel: Kernel) -> float:
    """Second moment mu2 = int t^2 K(t) dt."""
    left, width, x, w = _rule(kernel, kernel.degree + 2)
    t = left[:, None] + width * x
    return width * float(np.sum(w * t * t * kernel(t)))


def _kstar_shifts(kernel, phi, mu2):
    """Kstar((k + phi) width) for k = -pieces, ..., pieces - 1 and phi in [0, 1].

    With s = (k + phi) width, t + s lies in piece j + k while t runs over the
    first 1 - phi of piece j, and in piece j + k + 1 over the rest.  At a node
    of either part, K(t) and K(t + s) over all j are vectors read at one offset
    into each piece: the integrand summed over j is their correlation at lag k
    or k + 1, plus that of t K(t) and (t + s) K(t + s) over mu2."""
    left, width, x, w = _rule(kernel, kernel.degree + 2)
    out = np.zeros(2 * kernel.pieces)
    # (part length, offsets of t and t + s into their pieces, lag - k)
    for length, a, b, lag in ((1.0 - phi, 0.0, phi, 0), (phi, 1.0 - phi, 0.0, 1)):
        for xi, wi in zip(x, w):
            t, ts = left + width * (a + length * xi), left + width * (b + length * xi)
            kt, kts = kernel(t), kernel(ts)
            corr = np.correlate(kts, kt, "full") + np.correlate(ts * kts, t * kt, "full") / mu2
            out[1 - lag:out.size - lag] += wi * length * width * corr
    return out


def kstar(kernel: Kernel, s: float, mu2: float | None = None) -> float:
    """Convolution functional Kstar(s); zero for |s| >= 2, even in s."""
    s = abs(float(s)) * kernel.pieces / 2.0  # in piece widths
    if s >= kernel.pieces:
        return 0.0
    if mu2 is None:
        mu2 = second_moment(kernel)
    return float(_kstar_shifts(kernel, s - int(s), mu2)[kernel.pieces + int(s)])


def _piecewise_constants(kernel: Kernel) -> KernelConstants:
    """The calibration constants by Gauss-Legendre rules on the kernel's pieces.

    Between the knots and the knots - s the integrands of mu2 and Kstar(s) have
    degree at most 2 degree + 2, and Kstar(s)^2 on each s-piece 4 degree + 6,
    so degree + 2 and 2 degree + 4 nodes a piece are exact up to rounding.
    ``c_K == r_K * kstar0 / 2`` by the exact identities.
    """
    mu2 = second_moment(kernel)
    if not 0.0 < mu2 < 1.0:
        raise ConfigError(f"kernel second moment {mu2} outside (0, 1)")
    kstar0 = kstar(kernel, 0.0, mu2)
    _, width, x, w = _rule(kernel, 2 * kernel.degree + 4)
    kstar_l2 = width * sum(wi * float(np.sum(_kstar_shifts(kernel, xi, mu2) ** 2))
                           for xi, wi in zip(x, w))
    r_k = 2.0 * kstar0 / kstar_l2
    return KernelConstants(mu2, kstar0, kstar_l2, r_k, r_k * kstar0 / 2.0)


# The named families' constants, each within one ulp of the exact rational (the
# rule is within about 20), so that start-up needs no rule and no named-kernel
# statistic moves with it.  Epanechnikov and triweight r_K and c_K are correctly
# rounded; uniform r_K and c_K and biweight c_K are one ulp from theirs.
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
    any other kernel's by the Gauss-Legendre rule on its pieces."""
    if kernel.evaluator is KERNEL_FAMILIES.get(kernel.family):
        return _NAMED_CONSTANTS[kernel.family]
    return _piecewise_constants(kernel)
