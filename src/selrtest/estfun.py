"""Families of estimating functions G with E[G(eps) | U] = 0.

Three built-in families are provided: the identity G(eps) = eps, a bank of
symmetric-difference indicators over a grid 0 = s_0 < s_1 < ... < s_{k0},
and a smoothed version of that bank whose indicator edges are replaced by
cubic ramps so that a continuous derivative exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError

__all__ = [
    "EstimatingFunction",
    "make_identity",
    "make_symmetric_indicator",
    "make_smoothed_indicator",
    "parse_floats",
    "parse_g_spec",
]


@dataclass(frozen=True)
class EstimatingFunction:
    """A k0-vector map of the regression error, with optional derivative.

    ``batch`` maps an (m,) residual array to an (m, k0) matrix and is what
    the statistic code calls in its inner loops.
    """

    k0: int
    kind: str
    batch: Callable[[np.ndarray], np.ndarray]
    batch_derivative: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def has_derivative(self) -> bool:
        return self.batch_derivative is not None


def make_identity() -> EstimatingFunction:
    """G(eps) = eps, the conditional-mean-zero constraint."""
    return EstimatingFunction(
        k0=1,
        kind="identity",
        batch=lambda e: np.asarray(e, dtype=float)[:, None],
        batch_derivative=lambda e: np.ones((len(e), 1)),
    )


def _check_grid(grid) -> tuple[float, ...]:
    grid = tuple(float(g) for g in grid)
    if len(grid) < 2:
        raise ConfigError("indicator grid needs at least two points")
    if grid[0] != 0.0:
        raise ConfigError("indicator grid must start at 0")
    if not all(a < b for a, b in zip(grid, grid[1:])):  # NaN is refused too
        raise ConfigError("indicator grid must be strictly increasing")
    return grid


def make_symmetric_indicator(grid) -> EstimatingFunction:
    """Hard indicator bank G_k(e) = I(e in [s_{k-1}, s_k]) - I(-e in [s_{k-1}, s_k])."""
    grid = _check_grid(grid)
    k0 = len(grid) - 1
    lower = np.array(grid[:-1])
    upper = np.array(grid[1:])

    def batch(e):
        e = np.asarray(e, dtype=float)[:, None]
        pos = (lower <= e) & (e <= upper)
        neg = (lower <= -e) & (-e <= upper)
        return pos.astype(float) - neg.astype(float)

    return EstimatingFunction(k0=k0, kind="symmetric_indicator", batch=batch)


def _smoothstep(x):
    x = np.clip(x, 0.0, 1.0)
    return x * x * (3.0 - 2.0 * x)


def _smoothstep_deriv(x):
    inside = (x > 0.0) & (x < 1.0)
    return np.where(inside, 6.0 * x * (1.0 - x), 0.0)


def make_smoothed_indicator(grid, width: float) -> EstimatingFunction:
    """Indicator bank with each edge replaced by a cubic ramp of half-width ``width``.

    Component k is b_k(e) - b_k(-e) where b_k ramps 0 -> 1 across
    [s_{k-1} - width, s_{k-1} + width] and 1 -> 0 across
    [s_k - width, s_k + width]; odd symmetry is exact by construction.
    """
    grid = _check_grid(grid)
    width = float(width)
    if not 0.0 < width < math.inf:
        raise ConfigError(f"smoothing width must be finite and > 0, not {width}")
    cells = np.diff(np.asarray(grid))
    if width > cells.min():
        raise ConfigError(
            f"smoothing width {width} exceeds smallest cell {cells.min()}"
        )
    lower = np.array(grid[:-1])
    upper = np.array(grid[1:])
    k0 = len(grid) - 1

    def bump(e):
        up = _smoothstep((e - (lower - width)) / (2.0 * width))
        down = _smoothstep((e - (upper - width)) / (2.0 * width))
        return up - down

    def bump_deriv(e):
        up = _smoothstep_deriv((e - (lower - width)) / (2.0 * width))
        down = _smoothstep_deriv((e - (upper - width)) / (2.0 * width))
        return (up - down) / (2.0 * width)

    # both signs go through the ramps in one call, on the stacked (e, -e)
    def batch(e):
        e = np.asarray(e, dtype=float)[:, None]
        b = bump(np.concatenate([e, -e]))
        return b[:len(e)] - b[len(e):]

    def batch_derivative(e):
        e = np.asarray(e, dtype=float)[:, None]
        b = bump_deriv(np.concatenate([e, -e]))
        return b[:len(e)] + b[len(e):]

    return EstimatingFunction(
        k0=k0,
        kind="smoothed_indicator",
        batch=batch,
        batch_derivative=batch_derivative,
    )


def parse_floats(text: str, name: str, count: int | None = None) -> list[float]:
    """The comma-separated numbers of ``text``, the value of ``name``: text
    that is not such a list, or not of ``count`` numbers, is a ConfigError."""
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        vals = None
    if vals is None or count not in (None, len(vals)):
        want = "comma-separated numbers" if count is None else f"{count} number" + "s" * (count > 1)
        raise ConfigError(f"bad {name} {text!r}; expected {want}")
    return vals


def parse_g_spec(spec: str) -> EstimatingFunction:
    """Parse ``identity | symmetric:<s1,...> | smoothed:<s1,...>:<width>``."""
    parts = spec.split(":")
    kind = parts[0]
    if kind == "identity":
        if len(parts) != 1:
            raise ConfigError("identity takes no arguments")
        return make_identity()
    if kind == "symmetric":
        if len(parts) != 2:
            raise ConfigError("expected symmetric:<s1,s2,...>")
        return make_symmetric_indicator([0.0] + parse_floats(parts[1], "symmetric grid"))
    if kind == "smoothed":
        if len(parts) != 3:
            raise ConfigError("expected smoothed:<s1,...>:<width>")
        return make_smoothed_indicator([0.0] + parse_floats(parts[1], "smoothed grid"),
                                       *parse_floats(parts[2], "smoothing width", 1))
    raise ConfigError(f"unknown estimating-function spec {spec!r}")
