"""Acceptance gate: nine numbered criteria, one pass/fail line each.

The heavy null-distribution samples are shared across criteria through
session fixtures.  Replicate streams are keyed by (seed, replicate), so
every number below is reproducible bit-for-bit at any worker count.
"""

import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy.optimize import brentq

from selrtest import (
    Dataset,
    Hypothesis,
    Infeasible,
    MomentMatch,
    SimulationConfig,
    bootstrap_null,
    ecdf_vs_chisq,
    f_type_stat,
    fit_local,
    kernel_by_name,
    make_identity,
    make_smoothed_indicator,
    moment_match,
    sel_entropy,
    sel_full,
    selr_composite,
    selr_gof,
    selr_simple,
    simulate_statistics,
    size_power_study,
    solve_lagrange,
    streams,
    zero_coef,
)
from selrtest.kernels import _quadrature_constants
from selrtest.local_el import _design, _window

TRIWEIGHT = kernel_by_name("triweight")
N_JOBS = min(8, os.cpu_count() or 1)
SEED = 5  # frozen for the whole acceptance gate


def report(num: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    # queue for the end-of-run summary so the verdict shows even when the
    # test passes and its captured output is discarded
    conftest = sys.modules.get("conftest") or sys.modules.get("tests.conftest")
    if conftest is not None:
        conftest.record_criterion(line)
    else:
        from conftest import record_criterion

        record_criterion(line)


@pytest.fixture(scope="session")
def n200_null():
    """Null statistics at n=200, h=200^(-2/9), 500 reps, per variance level."""
    out = {}
    for c1 in (0.0, 1.0, 10.0, 100.0):
        cfg = SimulationConfig(n=200, c0=1.0, c1=c1, reps=500, seed=SEED)
        out[c1] = simulate_statistics(cfg, want_f=True, n_jobs=N_JOBS)
    return out


@pytest.fixture(scope="session")
def n800_null():
    """Null statistics at n=800, h=1.5*800^(-2/9), variance 1+u^2, 500 reps."""
    cfg = SimulationConfig(n=800, c0=1.5, c1=1.0, reps=500, seed=SEED)
    vals, _ = simulate_statistics(cfg, n_jobs=N_JOBS)
    return vals[np.isfinite(vals)]


# ---------------------------------------------------------------------------
# 1. kernel calibration constants


# Exact Epanechnikov values of the defining integrals (kernels.py docstring):
# for K = 3/4 (1 - t^2), mu2 = 1/5, Kstar(0) = 36/35 and int Kstar^2 = 4152/5005,
# so r_K = 2 Kstar(0) / int Kstar^2 = 429/173 and c_K = Kstar(0)^2 / int Kstar^2
# = 7722/6055.
EPAN_R_K = 429 / 173
EPAN_C_K = 7722 / 6055
# Printed reference pair.  It implies int Kstar^2 = 0.8178, which neither the
# defining integrals nor any variant of them tried (integral over [-1, 1] only,
# flipped correction sign, perturbed mu2, trapezoid grids) reproduces; kept
# for the report line only.
PRINTED_EPAN_R_K, PRINTED_EPAN_C_K = 2.5154, 1.2936


def test_criterion_1_kernel_constants():
    # time the defining integrals, not the named families' table or a hit in
    # the lru_cache
    compute = _quadrature_constants
    t0 = time.time()
    uni = compute(kernel_by_name("uniform"))
    epa = compute(kernel_by_name("epanechnikov"))
    elapsed = time.time() - t0

    uniform_ok = (
        abs(uni.kstar0 - 1.0) < 1e-8
        and abs(uni.c_K - uni.r_K * uni.kstar0 / 2.0) < 1e-10
    )
    epan_ok = abs(epa.r_K - EPAN_R_K) < 1e-6 and abs(epa.c_K - EPAN_C_K) < 1e-6
    ok = uniform_ok and epan_ok and elapsed < 1.0
    report(
        1,
        ok,
        f"uniform identity {'ok' if uniform_ok else 'violated'}; "
        f"epanechnikov r_K={epa.r_K:.6f} c_K={epa.c_K:.6f} vs exact "
        f"429/173={EPAN_R_K:.6f} 7722/6055={EPAN_C_K:.6f} (printed "
        f"{PRINTED_EPAN_R_K}/{PRINTED_EPAN_C_K} not reproduced by the "
        f"integrals); {elapsed:.2f}s uncached",
    )
    assert uniform_ok
    assert elapsed < 1.0
    assert epan_ok, (
        f"r_K={epa.r_K:.9f}, c_K={epa.c_K:.9f}; the defining integrals give "
        f"r_K=429/173={EPAN_R_K:.9f} and c_K=7722/6055={EPAN_C_K:.9f}"
    )


# ---------------------------------------------------------------------------
# 2. null-distribution table reproduction


def test_criterion_2_null_table(n200_null, n800_null):
    s200 = n200_null[0.0][0]
    s200 = s200[np.isfinite(s200)]
    mu_a, sd_a = float(np.mean(s200)), float(np.std(s200, ddof=1))
    mu_b, sd_b = float(np.mean(n800_null)), float(np.std(n800_null, ddof=1))
    ok_a = abs(mu_a - 2.463) <= 0.35 and abs(sd_a - 1.527) <= 0.35
    ok_b = abs(mu_b - 2.103) <= 0.30 and abs(sd_b - 1.165) <= 0.30
    report(
        2,
        ok_a and ok_b,
        f"n=200: mu={mu_a:.3f} sd={sd_a:.3f} (targets 2.463/1.527 +-0.35); "
        f"n=800: mu={mu_b:.3f} sd={sd_b:.3f} (targets 2.103/1.165 +-0.30)",
    )
    assert ok_a
    assert ok_b


# ---------------------------------------------------------------------------
# 3. chi-squared approximation via moment matching


def test_criterion_3_moment_match(n800_null):
    mm = moment_match(n800_null)
    ks = ecdf_vs_chisq(n800_null, mm)
    ok = 5.8 <= mm.d0 <= 7.2 and ks < 0.10
    report(
        3,
        ok,
        f"n=800 sample: d0={mm.d0:.3f} (reference 6.51, accepted [5.8, 7.2]); "
        f"KS distance={ks:.4f} (< 0.10)",
    )
    assert 5.8 <= mm.d0 <= 7.2
    assert ks < 0.10


# ---------------------------------------------------------------------------
# 4. heteroscedasticity adaptivity and exact scale invariance


def test_criterion_4_adaptivity():
    mus = {}
    for c1 in (0.0, 10.0, 100.0):
        cfg = SimulationConfig(n=400, c0=1.0, c1=c1, reps=200, seed=SEED)
        vals, _ = simulate_statistics(cfg, n_jobs=N_JOBS)
        mus[c1] = float(np.nanmean(vals))
    spread = (max(mus.values()) - min(mus.values())) / min(mus.values())

    spec = Hypothesis.simple([zero_coef()], omega=(0.0, 1.0))
    worst = 0.0
    for trial in range(100):
        gen = streams.substream(1000 + SEED, trial)
        n = 60
        u = gen.random(n)
        y = np.sqrt(1 + u**2) * streams.standard_normal(gen, n)
        data = Dataset(u, np.ones((n, 1)), y)
        base = selr_simple(data, TRIWEIGHT, 0.4, make_identity(), spec).statistic
        scaled = selr_simple(
            Dataset(u, data.x, 5.0 * y), TRIWEIGHT, 0.4, make_identity(), spec
        ).statistic
        worst = max(worst, abs(scaled - base) / max(1.0, abs(base)))

    ok = spread < 0.25 and worst < 1e-8
    report(
        4,
        ok,
        f"n=400 mean across c1 in {{0,10,100}}: "
        + "/".join(f"{mus[c]:.3f}" for c in (0.0, 10.0, 100.0))
        + f", relative spread {100 * spread:.1f}% (< 25%); "
        f"y -> 5y worst relative change {worst:.2e} (< 1e-8) on 100 datasets",
    )
    assert spread < 0.25
    assert worst < 1e-8


# ---------------------------------------------------------------------------
# 5. size at the reference critical values


def test_criterion_5_size(n200_null):
    sizes, fsizes = {}, {}
    for c1, (selr_vals, f_vals) in n200_null.items():
        sizes[c1] = float(np.mean(selr_vals[np.isfinite(selr_vals)] > 5.20))
        fsizes[c1] = float(np.mean(f_vals[np.isfinite(f_vals)] > 0.0705))
    selr_ok = all(abs(sz - 0.05) <= 0.03 for sz in sizes.values())
    f_inflated = fsizes[100.0] > fsizes[0.0]
    report(
        5,
        selr_ok and f_inflated,
        "SELR size at 5.20: "
        + "/".join(f"{sizes[c]:.3f}" for c in (0.0, 1.0, 10.0, 100.0))
        + " (each 0.05 +- 0.03); F-type size at 0.0705: "
        f"{fsizes[0.0]:.3f} at c1=0 vs {fsizes[100.0]:.3f} at c1=100 "
        "(inflation required)",
    )
    assert selr_ok
    assert f_inflated


# ---------------------------------------------------------------------------
# 6. power: monotone in the alternative, dominant under heteroscedasticity


def test_criterion_6_power():
    cfg_a = SimulationConfig(
        n=200, c0=1.0, c1=0.0, alternative="linear", reps=300, seed=SEED
    )
    rows_a = size_power_study(
        cfg_a, [0.0, 0.4, 0.8, 1.2], thresholds=(5.20, 0.0705), n_jobs=N_JOBS
    )
    powers = [row.power_selr for row in rows_a]
    monotone = all(b >= a - 0.05 for a, b in zip(powers, powers[1:]))

    cfg_b = SimulationConfig(
        n=200, c0=1.0, c1=100.0, alternative="linear", reps=300, seed=SEED
    )
    rows_b = size_power_study(cfg_b, [0.0, 2.0, 4.0], level=0.05, n_jobs=N_JOBS)
    dominant = any(
        row.power_selr > row.power_f for row in rows_b if row.r > 0
    )
    report(
        6,
        monotone and dominant,
        "power over r in {0,0.4,0.8,1.2}: "
        + "/".join(f"{p:.2f}" for p in powers)
        + " (non-decreasing +-0.05); c1=100 same-size comparison: SELR "
        + "/".join(f"{row.power_selr:.2f}" for row in rows_b[1:])
        + " vs F " + "/".join(f"{row.power_f:.2f}" for row in rows_b[1:]),
    )
    assert monotone
    assert dominant


# ---------------------------------------------------------------------------
# 7. solver oracles


def test_criterion_7_solver_oracles():
    gen = np.random.default_rng(777)

    # (a) scalar dual vs Brent bisection on 100 random windows
    worst_alpha = 0.0
    for _ in range(100):
        m = int(gen.integers(5, 40))
        w = gen.random(m) + 0.05
        w /= w.sum()
        g = gen.normal(size=m)
        if g.max() <= 0 or g.min() >= 0:
            g[0], g[1] = abs(g[0]) + 0.1, -abs(g[1]) - 0.1
        alpha = solve_lagrange(g[:, None], w)[0]

        def psi(a):
            return float(np.sum(w * g / (1.0 + a * g)))

        lo = (-1.0 / g.max() + 1e-12) if g.max() > 0 else -1e6
        hi = (-1.0 / g.min() - 1e-12) if g.min() < 0 else 1e6
        worst_alpha = max(worst_alpha, abs(alpha - brentq(psi, lo, hi, xtol=1e-14)))

    # (b) brute-force oracles for the assembled statistics
    n = 30
    u = gen.random(n)
    y = 0.3 * (u - 0.5) + gen.normal(size=n)
    data = Dataset(u, np.ones((n, 1)), y)
    h = 0.45

    ent = sel_entropy(data, TRIWEIGHT, h, omega=(0, 1))
    ent_oracle = 0.0
    for j in range(n):
        raw = np.where(
            np.abs((u - u[j]) / h) <= 1,
            (35 / 32) * (1 - np.clip((u - u[j]) / h, -1, 1) ** 2) ** 3,
            0.0,
        )
        w = raw / raw.sum()
        w = w[w > 0]
        ent_oracle += float(np.sum(w * np.log(w)))
    ent_err = abs(ent - ent_oracle)

    full = sel_full(data, TRIWEIGHT, h, make_identity(), omega=(0, 1))
    full_oracle = sum(
        fit_local(data, TRIWEIGHT, h, float(u0), make_identity()).logel for u0 in u
    )
    full_err = abs(full - full_oracle)

    f_stat = f_type_stat(data, TRIWEIGHT, h)
    fitted = np.empty(n)
    for i in range(n):
        raw = TRIWEIGHT((u - u[i]) / h)
        idx = np.nonzero(raw > 0)[0]
        z = _design(data, idx, float(u[i]), h)
        sw = np.sqrt(raw[idx] / raw[idx].sum())
        coef, *_ = np.linalg.lstsq(sw[:, None] * z, sw * y[idx], rcond=None)
        fitted[i] = coef[0]
    rss0, rss1 = float(y @ y), float((y - fitted) @ (y - fitted))
    f_err = abs(f_stat - (rss0 - rss1) / rss1)

    # (c) decomposition identity of the goodness-of-fit statistic
    g2 = make_smoothed_indicator([0.0, 0.8, 3.5], width=0.3)
    res = selr_gof(data, TRIWEIGHT, 0.5, g2, Hypothesis.goodness_of_fit(omega=(0, 1)))
    total = 0.0
    prev = None
    for u0 in np.sort(u):
        fit = fit_local(data, TRIWEIGHT, 0.5, float(u0), g2, init=prev)
        prev = fit.beta
        win = _window(data, TRIWEIGHT, 0.5, float(u0))
        active, wa, z = win.active, win.w, win.z
        resid = y[active] - z @ fit.beta.vector
        moments = (g2.batch(resid)[:, :, None] * z[:, None, :]).reshape(len(active), -1)
        total += float(wa @ np.log1p(moments @ fit.alpha))
    decomp_err = abs(res.statistic - total)

    ok = (
        worst_alpha < 1e-10
        and ent_err < 1e-8
        and full_err < 1e-8
        and f_err < 1e-8
        and decomp_err < 1e-8
    )
    report(
        7,
        ok,
        f"scalar dual vs bisection worst |diff|={worst_alpha:.2e} (< 1e-10); "
        f"entropy/full/F oracle errors {ent_err:.1e}/{full_err:.1e}/{f_err:.1e} "
        f"(< 1e-8); decomposition identity error {decomp_err:.1e} (< 1e-8)",
    )
    assert worst_alpha < 1e-10
    assert ent_err < 1e-8
    assert full_err < 1e-8
    assert f_err < 1e-8
    assert decomp_err < 1e-8


# ---------------------------------------------------------------------------
# 8. invariant suite


def _bootstrap_trial(trial):
    gen = streams.substream(4242, trial)
    n = 50
    u = gen.random(n)
    y = streams.standard_normal(gen, n)
    data = Dataset(u, np.ones((n, 1)), y)
    spec = Hypothesis.simple([zero_coef()], omega=(0.0, 1.0))
    try:
        _, p = bootstrap_null(
            data, kernel_by_name("triweight"), 0.4, make_identity(), spec,
            B=19, scheme="gaussian", seed=trial + 1,
        )
    except Exception:
        return np.nan
    return p


def test_criterion_8_invariants():
    gen = np.random.default_rng(888)
    spec = Hypothesis.simple([zero_coef()], omega=(0.0, 1.0))

    dual_ok = prob_ok = True
    n_solved = 0
    for _ in range(30):
        m, d = int(gen.integers(8, 30)), int(gen.integers(1, 4))
        w = gen.random(m) + 0.05
        w /= w.sum()
        moments = gen.normal(size=(m, d))
        try:
            alpha = solve_lagrange(moments, w)
        except Infeasible:
            # a random draw may legitimately have 0 outside the hull
            continue
        n_solved += 1
        denom = 1.0 + moments @ alpha
        dual_ok &= denom.min() > 0
        dual_ok &= np.linalg.norm(moments.T @ (w / denom)) <= 1e-8
        p = w / denom  # the tilted masses
        prob_ok &= bool(np.all(p > 0)) and abs(p.sum() - 1.0) < 1e-8
    dual_ok &= n_solved >= 20

    nonneg_ok = nest_ok = perm_ok = True
    for _ in range(10):
        n = 50
        u = gen.random(n)
        x = np.column_stack([np.ones(n), gen.normal(size=n)])
        y = np.sqrt(1 + u**2) * gen.normal(size=n)
        data = Dataset(u, x, y)
        simple = selr_simple(
            data, TRIWEIGHT, 0.5, make_identity(),
            Hypothesis.simple([zero_coef(), zero_coef()], omega=(0.0, 1.0)),
        )
        comp = selr_composite(
            data, TRIWEIGHT, 0.5, make_identity(),
            Hypothesis.composite([zero_coef()], [1], omega=(0.0, 1.0)),
        )
        nonneg_ok &= simple.statistic >= -1e-8 and comp.statistic >= -1e-8
        # the composite null is nested in the simple null (it pins fewer
        # coefficients), so its statistic never exceeds the simple one's
        nest_ok &= comp.statistic <= simple.statistic + 1e-6
        perm = gen.permutation(n)
        shuffled = Dataset(u[perm], x[perm], y[perm])
        again = selr_simple(
            shuffled, TRIWEIGHT, 0.5, make_identity(),
            Hypothesis.simple([zero_coef(), zero_coef()], omega=(0.0, 1.0)),
        )
        perm_ok &= abs(again.statistic - simple.statistic) <= 1e-8 * max(
            1.0, abs(simple.statistic)
        )

    with ProcessPoolExecutor(max_workers=N_JOBS) as pool:
        ps = np.array(list(pool.map(_bootstrap_trial, range(200))))
    ps = ps[np.isfinite(ps)]
    rate = float(np.mean(ps <= 0.1))
    boot_ok = abs(rate - 0.1) <= 0.07

    ok = dual_ok and prob_ok and nonneg_ok and nest_ok and perm_ok and boot_ok
    report(
        8,
        ok,
        f"dual feasibility/stationarity {'ok' if dual_ok else 'violated'}; "
        f"implied probabilities {'ok' if prob_ok else 'violated'}; "
        f"nonnegativity {'ok' if nonneg_ok else 'violated'}; "
        f"nesting {'ok' if nest_ok else 'violated'}; "
        f"permutation invariance {'ok' if perm_ok else 'violated'}; "
        f"bootstrap rejection rate {rate:.3f} at level 0.1 (+-0.07)",
    )
    assert dual_ok
    assert prob_ok
    assert nonneg_ok
    assert nest_ok
    assert perm_ok
    assert boot_ok


# ---------------------------------------------------------------------------
# 9. estimator consistency


def test_criterion_9_consistency():
    def median_error(n):
        h = n ** (-2.0 / 9.0)
        errs = []
        for rep in range(50):
            gen = streams.substream(123, rep)
            u = gen.random(n)
            y = np.sin(2 * np.pi * u) + streams.standard_normal(gen, n)
            data = Dataset(u, np.ones((n, 1)), y)
            err = 0.0
            for u0 in (0.25, 0.5, 0.75):
                fit = fit_local(data, TRIWEIGHT, h, u0, make_identity())
                err += abs(fit.beta.a[0] - np.sin(2 * np.pi * u0))
            errs.append(err / 3.0)
        return float(np.median(errs))

    e200, e800 = median_error(200), median_error(800)
    ok = e800 < e200
    report(
        9,
        ok,
        f"median interior estimation error {e200:.4f} at n=200 -> "
        f"{e800:.4f} at n=800 (strict decrease required)",
    )
    assert ok
