"""Check that two selrtest source trees give bit-identical statistics.

Usage: python tools/same_outputs.py PARENT_SRC [CHANGE_SRC]

PARENT_SRC and CHANGE_SRC are ``src`` directories (CHANGE_SRC defaults to
this checkout's).  Each side runs in its own child process with that
directory first on ``sys.path`` and BLAS on one thread, and computes 127
outputs, 103 of them on the benchmark's seed-0 inputs
(``perfbench/workloads.py``'s ``draw_dataset``):

- on each of the 8 cli_tests designs: the simple null at n = 200 and
  n = 800, the simple null with the full term (p = 1 and p = 2), the
  composite null, the identity and smoothed-G goodness-of-fit and
  ``sel_full``;
- composite and identity goodness-of-fit bootstrap samples (B = 20) on
  designs 0-1;
- on design 0, the smoothed-G (``smoothed:0.8,2.0:0.3``) composite null,
  simple null at p = 2 (k0 = 2, so with the full term) and ``sel_full``,
  and the identity-G linear parametric null;
  the bootstrap samples of the smoothed-G goodness-of-fit (B = 5), the
  simple null with the full term at p = 2, a linear parametric null and
  the wild and resample schemes (B = 20 each), the simple null at
  n = 800 (B = 10), and ``select_bandwidth`` on the grid (0.2, 0.3) with
  its bootstrap sample (B = 10);
- on design 0's p = 2 CSV (written with ``dataio.write_csv``), the JSON
  reports of the CLI's ``test --fix 1=1.5 --bootstrap 5``,
  ``calibrate --bootstrap 5`` and ``bandwidth --grid 0.2,0.3
  --bootstrap 4``, each with ``--seed 0`` and without
  ``metadata.created``, with the exit code;
- on design 0 at every 10th point, the one-window fits: the identity-G
  ``fit_local_constrained`` with a2 pinned at 1.5, at h = 0.3 and at
  h = 0.15 (where the batch hands the window at point 10 to BFGS), and
  the smoothed-G ``fit_local`` from a ``LocalParameter`` start 0.1 above
  the LLS values; each fit by its log-EL, beta, alpha, status and
  iteration counts;
- the 8 bootstrap workload calls (B = 199) with their p-values;
- the 8 Monte Carlo passes (40 replicates, SELR and F-type statistics);
- a Monte Carlo pass of the SELR statistic alone (40 replicates, the
  ``null_table`` path) and an n = 800 pass of both statistics with
  c0 = 1.5 (5 replicates), whose windows take more than 8 MiB together;

and 24 on a stress set of thin windows and heavy tails, where the batched
dual shortens more of its steps (14 % against 8 % in the bootstrap
workload's designs) and hands far more windows to the scalar solver
(45 % against 0.2 %): 6 designs of n = 60 with x = (1, N(0, 1)) and
y = 0.3 + t_2 (1 + 2u), each at h = 0.06 and 0.1, give the simple null
(a1 = a2 = 0) and its bootstrap sample (B = 6).

A test result is compared by its whole ``to_dict()`` report: statistic,
scaled statistic, df, p-value, retained fraction, constants, hypothesis,
skip and clamp counts and full ``per_point``.  Outputs are compared with
``==``, NaN equal to NaN.
Prints the count of equal outputs and every key that differs; exits 1 on
any difference.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 0
H = 0.3
DESIGNS = 8
STRESS_DESIGNS = 6
STRESS_TAG = 99  # the stress designs' stream, apart from the workloads' tags 1-3


def _fits(fit_at, points) -> list:
    """The one-window fit ``fit_at(u0)`` at each point, or the error it raises."""
    out = []
    for u0 in points:
        try:
            fit = fit_at(u0)
        except Exception as exc:  # a skipped window: compared by its error
            out.append((type(exc).__name__, str(exc)))
            continue
        out.append((fit.logel, fit.beta.vector.tolist(), fit.alpha.tolist(), fit.status,
                    fit.inner_iters, fit.outer_iters))
    return out


def compute() -> dict:
    """The outputs of the selrtest first on ``sys.path``, by key."""
    import warnings

    import numpy as np

    sys.path.insert(1, str(ROOT / "perfbench"))
    from workloads import FULL, Bootstrap, CliTests, MonteCarlo, _rng, draw_dataset

    from selrtest import Dataset, cli, dataio, local_el, montecarlo, selr
    from selrtest.estfun import make_identity, parse_g_spec
    from selrtest.kernels import kernel_by_name

    warnings.simplefilter("ignore")
    kernel, g = kernel_by_name("triweight"), make_identity()
    smoothed = parse_g_spec("smoothed:0.8,2.0:0.3")
    zero = selr.Hypothesis.simple([selr.zero_coef()])
    zero2 = selr.Hypothesis.simple([selr.zero_coef()] * 2)
    composite = selr.Hypothesis.composite([selr.const_coef(1.5)], [1])
    gof = selr.Hypothesis.goodness_of_fit()
    linear = selr.Hypothesis.parametric(
        selr.ParametricFamily(lambda u, th: th[0] + th[1] * u, 2), [0.0, 0.0])
    out = {}
    for s in range(DESIGNS):
        # the order of cli_tests' draws: p1_small, p1_large, p2_small
        rng = _rng(SEED, CliTests.tag, s)
        p1 = draw_dataset(rng, FULL.n_small, 1)
        p1_large = draw_dataset(rng, FULL.n_large, 1)
        p2 = draw_dataset(rng, FULL.n_small, 2)
        tests = {
            "simple_n200": (p1, zero, None, g),
            "simple_n800": (p1_large, zero, None, g),
            "simple_full_p1": (p1, zero, True, g),
            "simple_full_p2": (p2, zero2, True, g),
            "composite": (p2, composite, None, g),
            "gof_identity": (p2, gof, None, g),
            "gof_smoothed": (p2, gof, None, smoothed),
        }
        for name, (data, spec, full, gg) in tests.items():
            res = selr.selr_test(data, kernel, H, gg, spec, include_full_term=full)
            out[f"{name}/{s}"] = res.to_dict()
        out[f"sel_full/{s}"] = selr.sel_full(p2, kernel, H, g)
        if s < 2:
            for name, spec in (("composite", composite), ("gof_identity", gof)):
                sample, p = selr.bootstrap_null(p2, kernel, H, g, spec, B=20, seed=SEED)
                out[f"bootstrap_{name}/{s}"] = (sample.tolist(), p)
        if s == 0:
            for name, spec in (("composite_smoothed", composite), ("simple_smoothed_p2", zero2)):
                out[f"{name}/{s}"] = selr.selr_test(p2, kernel, H, smoothed, spec).to_dict()
            out[f"sel_full_smoothed/{s}"] = selr.sel_full(p2, kernel, H, smoothed)
            out[f"parametric/{s}"] = selr.selr_test(p1, kernel, H, g, linear).to_dict()
            boots = {
                "gof_smoothed": (p2, gof, smoothed, None, 5, "gaussian"),
                "simple_full_p2": (p2, zero2, g, True, 20, "gaussian"),
                "parametric": (p1, linear, g, None, 20, "gaussian"),
                "wild": (p1, zero, g, None, 20, "wild"),
                "resample": (p1, zero, g, None, 20, "resample"),
                "n800": (p1_large, zero, g, None, 10, "gaussian"),
            }
            for name, (data, spec, gg, full, b, scheme) in boots.items():
                sample, p = selr.bootstrap_null(data, kernel, H, gg, spec, B=b, scheme=scheme,
                                                seed=SEED, include_full_term=full)
                out[f"bootstrap_{name}/{s}"] = (sample.tolist(), p)
            samples = []
            bootstrap = selr._bootstrap

            def recording(*args):  # the calibration sample select_bandwidth draws
                sample, p = bootstrap(*args)
                samples.append(sample.tolist())
                return sample, p

            selr._bootstrap = recording
            sel = selr.select_bandwidth(p1, kernel, g, zero, (0.2, 0.3), B=10, seed=SEED)
            selr._bootstrap = bootstrap
            out[f"select_bandwidth/{s}"] = (sel.h, sel.statistic, sorted(sel.per_h.items()),
                                            sel.p_bootstrap, samples)
            points = p2.u[::10].tolist()
            for h in (H, 0.15):
                out[f"fit_local_constrained/{s}/{h}"] = _fits(
                    lambda u0: local_el.fit_local_constrained(p2, kernel, h, u0, g, [1.5],
                                                              [0.0], [1]), points)

            def smoothed_fit(u0):
                start = local_el.lls_init(p2, kernel, H, u0)
                init = local_el.LocalParameter(start.a + 0.1, start.hb)
                return local_el.fit_local(p2, kernel, H, u0, smoothed, init)

            out[f"fit_local_smoothed/{s}"] = _fits(smoothed_fit, points)
            runs = {
                "test_fix": ["test", "--h", str(H), "--fix", "1=1.5", "--bootstrap", "5"],
                "calibrate": ["calibrate", "--h", str(H), "--bootstrap", "5"],
                "bandwidth": ["bandwidth", "--grid", "0.2,0.3", "--bootstrap", "4"],
            }
            with tempfile.TemporaryDirectory() as tmp:
                path, report = os.path.join(tmp, "p2.csv"), os.path.join(tmp, "report.json")
                dataio.write_csv(p2, path)
                for name, argv in runs.items():
                    code = cli.main(argv + ["--input", path, "--seed", str(SEED),
                                            "--output", report])
                    doc = None
                    if code == 0:
                        with open(report) as fh:
                            doc = json.load(fh)
                        del doc["metadata"]["created"]
                        os.remove(report)
                    out[f"cli_{name}/{s}"] = (code, doc)
    for s in range(DESIGNS):
        data = draw_dataset(_rng(SEED, Bootstrap.tag, s), FULL.n_small, 1)
        sample, p = selr.bootstrap_null(data, kernel, H, g, zero, B=FULL.boot_b, seed=SEED)
        out[f"bootstrap/{s}"] = (sample.tolist(), p)
    config = montecarlo.SimulationConfig(n=FULL.mc_n, c1=2.0, alternative="null",
                                         reps=FULL.mc_reps, seed=SEED, kernel="triweight")
    for s in range(DESIGNS):
        selr_vals, f_vals = montecarlo.simulate_statistics(
            config, want_f=True, stream_offset=s * FULL.mc_reps, n_jobs=1)
        out[f"{MonteCarlo.name}/{s}"] = (np.asarray(selr_vals).tolist(),
                                         np.asarray(f_vals).tolist())
    passes = {
        "selr_only": (config, False),
        "n800": (replace(config, n=FULL.n_large, c0=1.5, reps=5), True),
    }
    for name, (cfg, want_f) in passes.items():
        selr_vals, f_vals = montecarlo.simulate_statistics(
            cfg, want_f=want_f, stream_offset=DESIGNS * FULL.mc_reps, n_jobs=1)
        out[f"{MonteCarlo.name}_{name}"] = (np.asarray(selr_vals).tolist(),
                                            np.asarray(f_vals).tolist())
    for s in range(STRESS_DESIGNS):
        rng = np.random.default_rng([SEED, STRESS_TAG, s])
        n = 60
        u = rng.random(n)
        x = np.column_stack([np.ones(n), rng.standard_normal(n)])
        data = Dataset(u, x, 0.3 + rng.standard_t(2, n) * (1.0 + 2.0 * u))
        for h in (0.06, 0.1):
            out[f"stress/{s}/{h}"] = selr.selr_test(data, kernel, h, g, zero2).to_dict()
            sample, p = selr.bootstrap_null(data, kernel, h, g, zero2, B=6, seed=SEED)
            out[f"stress_bootstrap/{s}/{h}"] = (sample.tolist(), p)
    return out


def same(a, b) -> bool:
    """``a == b`` through tuples, lists and dicts, NaN equal to NaN."""
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return type(a) is type(b) and a == b


def run_side(src: Path, path: str) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    subprocess.run([sys.executable, __file__, "--child", str(src), path], env=env, check=True)
    with open(path, "rb") as fh:
        return pickle.load(fh)


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--child":
        sys.path.insert(0, argv[1])
        with open(argv[2], "wb") as fh:
            pickle.dump(compute(), fh)
        return 0
    if not 1 <= len(argv) <= 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    change = Path(argv[1]).resolve() if len(argv) == 2 else ROOT / "src"
    with tempfile.TemporaryDirectory() as tmp:
        want = run_side(parent, os.path.join(tmp, "parent.pkl"))
        got = run_side(change, os.path.join(tmp, "change.pkl"))
    keys = want.keys() | got.keys()
    differ = sorted(k for k in keys if k not in want or k not in got or not same(want[k], got[k]))
    print(f"{len(keys) - len(differ)} of {len(keys)} outputs equal")
    for key in differ:
        print(f"differs: {key}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
