"""Estimating-function families: symmetry, derivatives, parsing."""

import numpy as np
import pytest

from selrtest import (
    ConfigError,
    make_identity,
    make_smoothed_indicator,
    make_symmetric_indicator,
    parse_g_spec,
)
from selrtest.estfun import _smoothstep, _smoothstep_deriv, default_grid


def test_identity_values_and_derivative():
    g = make_identity()
    assert g.k0 == 1
    e = np.array([-1.5, 0.0, 2.0])
    np.testing.assert_allclose(g.batch(e), e[:, None])
    np.testing.assert_allclose(g.batch_derivative(e), np.ones((3, 1)))


def test_symmetric_indicator_values(rng):
    g = make_symmetric_indicator([0.0, 1.0, 2.5])
    assert g.k0 == 2
    e = rng.normal(scale=1.5, size=200)
    vals = g.batch(e)
    assert set(np.unique(vals)) <= {-1.0, 0.0, 1.0}
    # odd symmetry
    np.testing.assert_allclose(g.batch(-e), -vals)
    # e = 0 lies in the first cell on both sides and cancels
    np.testing.assert_allclose(g.batch(np.array([0.0])), [[0.0, 0.0]])
    # a positive error inside (0, s_max] hits exactly one positive cell
    inside = (e > 0) & (e <= 2.5)
    assert np.all(vals[inside].sum(axis=1) == 1.0)


def test_symmetric_indicator_has_no_derivative():
    g = make_symmetric_indicator([0.0, 1.0])
    assert not g.has_derivative


def test_grid_validation():
    with pytest.raises(ConfigError):
        make_symmetric_indicator([0.5, 1.0])  # must start at 0
    with pytest.raises(ConfigError):
        make_symmetric_indicator([0.0])  # too short
    with pytest.raises(ConfigError):
        make_symmetric_indicator([0.0, 1.0, 1.0])  # not increasing


def test_smoothed_indicator_odd_exact(rng):
    g = make_smoothed_indicator([0.0, 1.0, 2.0], width=0.25)
    e = rng.normal(size=300)
    np.testing.assert_allclose(g.batch(-e), -g.batch(e), atol=0.0)


def test_smoothed_matches_hard_away_from_edges(rng):
    grid = [0.0, 1.0, 2.0]
    width = 0.2
    hard = make_symmetric_indicator(grid)
    soft = make_smoothed_indicator(grid, width)
    e = rng.uniform(-2.5, 2.5, size=500)
    # keep only points farther than `width` from every edge (both signs)
    edges = np.array(grid)
    far = np.all(np.abs(np.abs(e)[:, None] - edges) > width + 1e-9, axis=1)
    np.testing.assert_allclose(soft.batch(e[far]), hard.batch(e[far]), atol=1e-12)


def test_smoothed_derivative_finite_difference(rng):
    g = make_smoothed_indicator([0.0, 1.0, 2.0], width=0.3)
    e = rng.uniform(-2.5, 2.5, size=200)
    step = 1e-6
    fd = (g.batch(e + step) - g.batch(e - step)) / (2 * step)
    np.testing.assert_allclose(g.batch_derivative(e), fd, atol=1e-5)


def test_smoothed_ramps_bit_for_bit():
    """Both signs of the residual go through the ramps in one call; each
    component is still b_k(e) - b_k(-e), and its derivative b_k'(e) +
    b_k'(-e), to the last bit, at the ramp edges, inside the ramps, at 0
    and far outside."""
    grid, width = (0.0, 0.8, 2.0, 3.1), 0.3
    g = make_smoothed_indicator(grid, width)
    lower, upper = np.array(grid[:-1]), np.array(grid[1:])

    def bump(e):
        up = _smoothstep((e - (lower - width)) / (2.0 * width))
        down = _smoothstep((e - (upper - width)) / (2.0 * width))
        return up - down

    def bump_deriv(e):
        up = _smoothstep_deriv((e - (lower - width)) / (2.0 * width))
        down = _smoothstep_deriv((e - (upper - width)) / (2.0 * width))
        return (up - down) / (2.0 * width)

    edges = np.array([s + sign * width for s in grid for sign in (-1.0, 1.0)])
    inside = np.array([s + f * width for s in grid for f in (-0.7, -0.2, 0.35, 0.9)])
    e = np.concatenate([[0.0, -0.0, 50.0, 1e6], edges, inside])
    e = np.concatenate([e, -e])
    want = bump(e[:, None]) - bump(-e[:, None])
    want_deriv = bump_deriv(e[:, None]) + bump_deriv(-e[:, None])
    assert np.array_equal(g.batch(e), want)
    assert np.array_equal(g.batch_derivative(e), want_deriv)
    # the ramps are neither flat nor zero on this grid
    assert (want_deriv != 0).any() and ((want != 0) & (np.abs(want) != 1)).any()


def test_smoothed_width_bound():
    with pytest.raises(ConfigError):
        make_smoothed_indicator([0.0, 0.5, 2.0], width=0.6)
    with pytest.raises(ConfigError):
        make_smoothed_indicator([0.0, 1.0], width=0.0)


def test_default_grid(rng):
    resid = rng.normal(size=400)
    grid = default_grid(resid)
    a = np.abs(resid)
    assert grid[0] == 0.0
    assert abs(grid[1] - np.quantile(a, 0.5)) < 1e-12
    assert grid[2] == a.max()
    with pytest.raises(ConfigError):
        default_grid(np.zeros(10))


def test_parse_g_spec():
    assert parse_g_spec("identity").kind == "identity"
    e = np.linspace(-3.0, 3.0, 241)
    for spec, want in (("symmetric:1,2.5", make_symmetric_indicator([0.0, 1.0, 2.5])),
                       ("smoothed:1,2:0.25", make_smoothed_indicator([0.0, 1.0, 2.0], 0.25))):
        g = parse_g_spec(spec)
        assert g.kind == want.kind
        np.testing.assert_array_equal(g.batch(e), want.batch(e))
    for bad in ("identity:1", "symmetric", "smoothed:1", "banana"):
        with pytest.raises(ConfigError):
            parse_g_spec(bad)
