"""Simulation harness: generators, F-type comparator, tables, matching."""

import math
from dataclasses import replace

import numpy as np
import pytest

from selrtest import (
    ConfigError,
    Dataset,
    MomentMatch,
    SimulationConfig,
    StudyRow,
    ecdf_vs_chisq,
    f_type_stat,
    generate,
    kernel_by_name,
    make_identity,
    moment_match,
    null_table,
    selr_simple,
    simulate_statistics,
    size_power_study,
)
from selrtest import montecarlo, streams
from selrtest.errors import DegenerateRSS1, SingularDesign
from selrtest.local_el import _design
from selrtest.montecarlo import _coefficient, _zero_null_spec

from conftest import count_windows
from scipy.stats import chi2, gamma

TRIWEIGHT = kernel_by_name("triweight")


def test_config_validation_and_bandwidth():
    cfg = SimulationConfig(n=200)
    assert abs(cfg.h - 200 ** (-2 / 9)) < 1e-15
    assert abs(cfg.h - 0.30808) < 1e-5
    assert abs(SimulationConfig(n=800, c0=1.5).h - 0.33959) < 1e-5
    for bad in (
        dict(n=5),
        dict(n=50, reps=0),
        dict(n=50, c0=0.0),
        dict(n=50, c1=-1.0),
        dict(n=50, alternative="cubic"),
        dict(n=50, c0=math.nan),
        dict(n=50, c1=math.nan),
        dict(n=50, c1=math.inf),
        dict(n=50, r=math.nan),
        dict(n=50, r=math.inf),
        dict(n=50, r=3.0),  # a null run at r > 0 would report its size as power
        dict(n=50, kernel="bogus"),  # refused here, not in the first replicate
    ):
        with pytest.raises(ConfigError):
            SimulationConfig(**bad)


def test_coefficient_forms():
    u = np.linspace(0, 1, 11)
    np.testing.assert_allclose(_coefficient("null", 3.0, u), 0.0)
    np.testing.assert_allclose(_coefficient("linear", 2.0, u), 2.0 * (u - 0.5))
    np.testing.assert_allclose(
        _coefficient("sine", 1.5, u), 1.5 * (2 * np.sin(2 * np.pi * u) ** 2 - 1)
    )


def test_generate_shapes_and_reproducibility():
    cfg = SimulationConfig(n=64, c1=2.0, seed=9)
    d1 = generate(cfg, streams.substream(9, 0))
    d2 = generate(cfg, streams.substream(9, 0))
    assert d1.n == 64 and d1.p == 1
    assert np.all((0 <= d1.u) & (d1.u < 1))
    np.testing.assert_array_equal(d1.y, d2.y)
    d3 = generate(cfg, streams.substream(9, 1))
    assert not np.array_equal(d1.y, d3.y)


def test_f_type_stat_normal_equations_oracle(rng):
    n = 60
    u = rng.random(n)
    y = 0.8 * (u - 0.5) + rng.normal(size=n)
    data = Dataset(u, np.ones((n, 1)), y)
    h = 0.35
    got = f_type_stat(data, TRIWEIGHT, h)
    fitted = np.empty(n)
    for i in range(n):
        w = TRIWEIGHT((u - u[i]) / h)
        idx = np.nonzero(w > 0)[0]
        z = _design(data, idx, float(u[i]), h)
        sw = np.sqrt(w[idx] / w[idx].sum())
        coef, *_ = np.linalg.lstsq(sw[:, None] * z, sw * y[idx], rcond=None)
        fitted[i] = coef[0]
    rss0 = float(y @ y)
    rss1 = float((y - fitted) @ (y - fitted))
    assert abs(got - (rss0 - rss1) / rss1) < 1e-8


def test_f_type_stat_zero_data():
    data = Dataset([0.1, 0.4, 0.5, 0.9], np.ones((4, 1)), np.zeros(4))
    assert f_type_stat(data, TRIWEIGHT, 0.6) == 0.0


def test_f_type_stat_refuses_an_interpolating_fit():
    # the local linear fit reproduces a linear a1(u) exactly, so RSS1 is 0
    u = np.linspace(0.05, 0.95, 30)
    data = Dataset(u, np.ones((30, 1)), 2.0 + 3.0 * u)
    with pytest.raises(DegenerateRSS1, match="alternative fit interpolates the data"):
        f_type_stat(data, TRIWEIGHT, 0.4)


def test_replicate_builds_each_window_once_for_both_statistics(monkeypatch):
    """One replicate's SELR and F-type statistics share its design's windows,
    and each equals the public statistic on that design bit for bit."""
    cfg = SimulationConfig(n=60, c1=2.0, reps=1, seed=5)
    built = count_windows(monkeypatch)
    selr_val, f_val = montecarlo._one_replicate((cfg, 0, 0, True))
    assert len(built) == cfg.n
    assert set(built.values()) == {1}
    data = generate(cfg, streams.substream(cfg.seed, 0))
    assert selr_val == selr_simple(data, TRIWEIGHT, cfg.h, make_identity(),
                                   _zero_null_spec()).statistic
    assert f_val == f_type_stat(data, TRIWEIGHT, cfg.h)


def test_replicate_without_f_type_does_no_smoothing(monkeypatch):
    """Without the F-type statistic (the null table's path) the walk builds
    each window once and never runs the smoother."""
    cfg = SimulationConfig(n=60, c1=2.0, reps=1, seed=5)
    selr_val, _ = montecarlo._one_replicate((cfg, 0, 0, True))
    built = count_windows(monkeypatch)

    def smoother(*args):
        raise AssertionError("the smoother ran")

    monkeypatch.setattr(montecarlo, "_fitted_block", smoother)
    got, f_val = montecarlo._one_replicate((cfg, 0, 0, False))
    assert len(built) == cfg.n
    assert set(built.values()) == {1}
    assert got == selr_val and np.isnan(f_val)


def test_replicate_f_type_survives_a_failed_selr_statistic(monkeypatch):
    """Responses all far above the null a1 = 0 skip every SELR window, so the
    SELR statistic fails; the F-type statistic is still that of the design."""
    cfg = SimulationConfig(n=60, c1=2.0, reps=1, seed=5)
    draw = montecarlo.generate

    def shifted(config, rng):
        data = draw(config, rng)
        return Dataset(data.u, data.x, np.abs(data.y) + 10.0)

    monkeypatch.setattr(montecarlo, "generate", shifted)
    selr_val, f_val = montecarlo._one_replicate((cfg, 0, 0, True))
    assert np.isnan(selr_val)
    data = shifted(cfg, streams.substream(cfg.seed, 0))
    assert f_val == f_type_stat(data, TRIWEIGHT, cfg.h)


def test_replicate_smoother_failure_leaves_selr_statistic(monkeypatch):
    """A smoother that fails in one block (of five at n = 200) makes the
    F-type statistic NaN and leaves the SELR statistic as it was."""
    cfg = SimulationConfig(n=200, c1=2.0, reps=1, seed=5)
    selr_val, f_val = montecarlo._one_replicate((cfg, 0, 0, True))
    fitted_block = montecarlo._fitted_block
    blocks = []

    def failing(data, block, wins):
        blocks.append(block)
        if len(blocks) == 2:
            raise SingularDesign("forced")
        return fitted_block(data, block, wins)

    monkeypatch.setattr(montecarlo, "_fitted_block", failing)
    got, got_f = montecarlo._one_replicate((cfg, 0, 0, True))
    assert len(blocks) == 5
    assert np.isfinite(f_val) and np.isnan(got_f)
    assert got == selr_val


def test_simulate_statistics_parallel_deterministic():
    cfg = SimulationConfig(n=40, reps=8, seed=21)
    s1, f1 = simulate_statistics(cfg, want_f=True, n_jobs=1)
    s2, f2 = simulate_statistics(cfg, want_f=True, n_jobs=2)
    np.testing.assert_array_equal(s1, s2)
    np.testing.assert_array_equal(f1, f2)
    assert np.all(np.isnan(f_) or f_ >= 0 for f_ in f1)


def test_simulate_statistics_stream_offset():
    cfg = SimulationConfig(n=40, reps=4, seed=21)
    a, _ = simulate_statistics(cfg, stream_offset=0)
    b, _ = simulate_statistics(cfg, stream_offset=1)
    # offset shifts the replicate keys: rep b of one run is rep b+1 of the other
    np.testing.assert_array_equal(a[1:], b[:-1])


def test_null_table_fields():
    cfg = SimulationConfig(n=40, c1=1.0, reps=12, seed=3)
    row = null_table(cfg)
    assert row.n == 40 and row.variance_label == "1+1u^2" and row.reps <= 12
    assert np.isfinite(row.mu) and row.sigma >= 0
    with pytest.raises(ConfigError):
        null_table(SimulationConfig(n=40, alternative="linear", r=1.0))


def test_moment_match_paper_row():
    # the reference null-table row (mu = 2.103, sigma = 1.165) must map to
    # the reference matched degrees of freedom 6.51
    sample_mu, sample_sigma = 2.103, 1.165
    mm = MomentMatch(
        r0=2 * sample_mu / sample_sigma**2, d0=2 * sample_mu**2 / sample_sigma**2
    )
    assert abs(mm.r0 - 3.0988) < 5e-4
    assert abs(mm.d0 - 6.5148) < 5e-3


def test_moment_match_from_sample(rng):
    sample = rng.gamma(3.0, 1.0, size=4000)
    mm = moment_match(sample)
    assert abs(mm.r0 - 2 * sample.mean() / sample.var(ddof=1)) < 1e-12
    assert abs(mm.d0 - 2 * sample.mean() ** 2 / sample.var(ddof=1)) < 1e-12
    with pytest.raises(ConfigError):
        moment_match([1.0])
    with pytest.raises(ConfigError):
        moment_match(np.zeros(10))


def test_ecdf_vs_chisq_manual_oracle():
    sample = np.array([0.5, 1.0, 2.0, 4.0])
    mm = MomentMatch(r0=1.0, d0=3.0)
    got = ecdf_vs_chisq(sample, mm)
    cdf = chi2.cdf(np.sort(sample), 3.0)
    n = len(sample)
    oracle = max(
        max(np.arange(1, n + 1) / n - cdf), max(cdf - np.arange(0, n) / n)
    )
    assert abs(got - oracle) < 1e-12


def test_ecdf_vs_chisq_is_scipy_stats_gamma_cdf():
    # the chi-squared CDF from scipy.special, value for value, including
    # below 0 (where gammainc alone is NaN), at 0, at inf and at NaN
    grid = [-np.inf, -3.0, -1e-300, -0.0, 0.0, 1e-300, 1e-3, 0.5, 1.0, 2.5, 7.0, 30.0,
            300.0, 1e4, np.inf, np.nan]

    def oracle(sample, mm):
        sample = np.sort(np.asarray(sample, dtype=float))
        n = len(sample)
        cdf = gamma.cdf(mm.r0 * sample, a=mm.d0 / 2.0, scale=2.0)
        return float(max((np.arange(1, n + 1) / n - cdf).max(),
                         (cdf - np.arange(0, n) / n).max()))

    for mm in (MomentMatch(1.0, 0.3), MomentMatch(0.7, 3.0), MomentMatch(2.5, 57.5)):
        for sample in [[x] for x in grid] + [grid[:-1], grid]:
            got, want = ecdf_vs_chisq(sample, mm), oracle(sample, mm)
            assert got == want or (np.isnan(got) and np.isnan(want)), (mm, sample)


def test_ecdf_vs_chisq_consistency(rng):
    sample = rng.chisquare(5.0, size=3000)
    assert ecdf_vs_chisq(sample, MomentMatch(r0=1.0, d0=5.0)) < 0.03
    with pytest.raises(ConfigError):
        ecdf_vs_chisq([], MomentMatch(1.0, 5.0))


def test_size_power_study_thresholds_and_power():
    cfg = SimulationConfig(n=40, reps=30, seed=8, alternative="linear")
    rows = size_power_study(cfg, [0.0, 3.0], thresholds=(3.0, 0.2))
    assert [row.r for row in rows] == [0.0, 3.0]
    # a strong alternative drives both tests to near-full power
    assert rows[1].power_selr > rows[0].power_selr
    assert rows[1].power_selr >= 0.9
    assert rows[1].power_f >= 0.9


@pytest.mark.parametrize("r_grid, thresholds", [
    ([0.0, math.nan], (3.0, 0.2)),
    ([0.0], (math.nan, 0.2)),
    ([0.0], (3.0, math.inf)),
    ([0.0], (3.0,)),
    ([0.0], (5.2, None)),  # an entry that is not a number
    ([0.0], 5.2),  # not a pair at all
])
def test_size_power_study_refuses_non_finite_values(r_grid, thresholds):
    cfg = SimulationConfig(n=20, reps=2, seed=1, alternative="linear")
    with pytest.raises(ConfigError):
        size_power_study(cfg, r_grid, thresholds=thresholds)


def test_size_power_study_refuses_a_null_configuration(monkeypatch):
    """A null configuration's cells at r > 0 would be null runs, their
    rejection rates sizes reported as power: the study refuses it before
    any cell runs."""
    runs = []
    monkeypatch.setattr(montecarlo, "simulate_statistics", lambda *a, **k: runs.append(a))
    with pytest.raises(ConfigError, match="alternative 'null' takes r = 0"):
        size_power_study(SimulationConfig(n=40, reps=30, seed=8), [0.0, 3.0],
                         thresholds=(3.0, 0.2))
    assert runs == []


def test_size_power_study_self_calibration():
    cfg = SimulationConfig(n=40, reps=40, seed=8, alternative="linear")
    rows = size_power_study(cfg, [0.0], level=0.1)
    # the threshold is the null quantile of an independent same-seed null
    # run, so the measured size is near the nominal level (40 replicates
    # leave sizeable binomial noise; the tight check is the acceptance size
    # criterion at 500 replicates)
    assert 0.0 <= rows[0].power_selr <= 0.3


@pytest.mark.parametrize("thresholds", [None, (2.0, 0.1)])
def test_size_power_study_stream_rule(thresholds):
    """Cell ri draws from stream offset (ri + 1) << 32 and the self-calibrated
    thresholds are the (1 - level) quantiles of the offset-0 null run, so a
    row depends only on the configuration, its r and its place in the grid."""
    cfg = SimulationConfig(n=40, reps=6, seed=5, alternative="sine")
    r_grid = [0.0, 1.5, 3.0]
    rows = size_power_study(cfg, r_grid, thresholds=thresholds, level=0.2)
    assert len(rows) == len(r_grid)
    if thresholds is None:
        null_vals = simulate_statistics(replace(cfg, alternative="null"), want_f=True)
        thresholds = [float(np.nanquantile(vals, 0.8)) for vals in null_vals]

    def rate(vals, threshold):
        return float(np.mean(vals[np.isfinite(vals)] > threshold))

    for ri, (r, row) in enumerate(zip(r_grid, rows)):
        cell = replace(cfg, alternative="sine" if r > 0 else "null", r=r)
        selr_vals, f_vals = simulate_statistics(cell, want_f=True, stream_offset=(ri + 1) << 32)
        assert row == StudyRow(n=40, h=cfg.h, c1=0.0, r=r,
                               power_selr=rate(selr_vals, thresholds[0]),
                               power_f=rate(f_vals, thresholds[1]))
