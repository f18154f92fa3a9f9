"""Inputs, passes and output checks of the three benchmark workloads.

Inputs follow the paper's nuisance setting: u ~ U(0, 1), Var(eps | u) =
1 + 2 u^2, triweight kernel, h = 0.3.  They are drawn with numpy's PCG64
from the benchmark seed, so they share no stream with the package's own
Philox substreams.  Program functions are looked up on their module at
call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from selrtest import cli, dataio, estfun, kernels, montecarlo, selr
from selrtest.local_el import Dataset

H = 0.3
KERNEL = "triweight"
WARM_N = 30  # rows of the CSV behind cli_tests' warm-up call


@dataclass(frozen=True)
class Sizes:
    n_small: int  # cli_tests p=1 and p=2 datasets, bootstrap datasets
    n_large: int  # cli_tests simple_n800 dataset
    datasets: int  # distinct input sets a run cycles through, one per pass
    boot_b: int
    mc_n: int
    mc_reps: int  # replicates per montecarlo pass


FULL = Sizes(n_small=200, n_large=800, datasets=8, boot_b=199, mc_n=200, mc_reps=40)
SMOKE = Sizes(n_small=50, n_large=100, datasets=1, boot_b=5, mc_n=40, mc_reps=3)


@dataclass
class Pass:
    """Outcome of one pass over a workload's operations."""

    data_index: int
    wall: float = 0.0
    attempted: int = 0
    ok: int = 0  # statistics produced
    failed: int = 0  # operations that did not give their expected outcome
    latencies: dict = field(default_factory=dict)  # kind -> seconds, successes only
    values: dict = field(default_factory=dict)  # outputs compared with the reference
    skipped: int = 0
    points: int = 0
    problems: list = field(default_factory=list)


def _rng(seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, index])


def draw_dataset(rng: np.random.Generator, n: int, p: int) -> Dataset:
    """p=1: y = eps on x1 = 1.  p=2: y = sin(2 pi u) + 1.5 x2 + eps with
    x = (1, N(0, 1)), so the model and the pin a2 = 1.5 both hold."""
    u = rng.random(n)
    eps = np.sqrt(1.0 + 2.0 * u**2) * rng.standard_normal(n)
    if p == 1:
        return Dataset(u, np.ones((n, 1)), eps)
    x = np.column_stack([np.ones(n), rng.standard_normal(n)])
    return Dataset(u, x, np.sin(2.0 * np.pi * u) + 1.5 * x[:, 1] + eps)


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * max(abs(want), 1e-12)


class Workload:
    name = ""
    tag = 0
    # operation kinds whose median latencies enter kind_geomean_ms
    latency_kinds: tuple = ()

    def __init__(self, sizes: Sizes, seed: int, workdir: str):
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir
        # the runner swaps in a scope that tags trace spans per operation
        self.op_scope = contextlib.nullcontext
        # and a clock that leaves out time spent sampling host speed
        self.clock = time.perf_counter

    def setup(self) -> None:
        """Draw the inputs and write files, then prepare."""
        self.prepare()

    def prepare(self) -> None:
        """Build the program objects the passes use and pay the first
        kernel_constants; run again once tracing is installed."""
        kernels.kernel_constants(kernels.kernel_by_name(KERNEL))

    def run_pass(self, data_index: int) -> Pass:
        raise NotImplementedError

    def compare(self, p: Pass, ref: dict, rtol: float) -> list:
        raise NotImplementedError


# ---------------------------------------------------------------------------


# (kind, input file, extra flags); --h and --kernel are common
CLI_KINDS = (
    ("simple_n200", "p1_small", ()),
    ("simple_n800", "p1_large", ()),
    ("simple_full", "p1_small", ("--include-full-term",)),
    ("gof_smoothed", "p2_small", ("--gof", "--g", "smoothed:0.8,2.0:0.3")),
    ("composite", "p2_small", ("--fix", "1=1.5")),
    ("gof_hard", "p2_small", ("--gof", "--g", "symmetric:0.8,2.0")),
)
# The hard indicator has no derivative for the profile fit and exits 4 at
# the commit this benchmark was written against.  A fix may make it work
# (0) or refuse it up front (2); any other code is a failure.
CLI_EXIT_CODES = {"gof_hard": (0, 2, 4)}


class CliTests(Workload):
    name = "cli_tests"
    tag = 1
    latency_kinds = tuple(k for k, _, _ in CLI_KINDS if k != "gof_hard")

    def setup(self) -> None:
        self.n_rows = {}
        for s in range(self.sizes.datasets):
            rng = _rng(self.seed, self.tag, s)
            for key, n, p in (("p1_small", self.sizes.n_small, 1),
                              ("p1_large", self.sizes.n_large, 1),
                              ("p2_small", self.sizes.n_small, 2)):
                dataio.write_csv(draw_dataset(rng, n, p), self._csv(key, s))
                self.n_rows[key] = n
        super().setup()
        # The first cli.main call in a process costs about 45 ms more than
        # later ones.  A CLI user pays that on every invocation, so it
        # belongs to set-up, not to whichever kind a pass runs first.
        warm = os.path.join(self.workdir, "warm.csv")
        rng = _rng(self.seed, self.tag, self.sizes.datasets)
        dataio.write_csv(draw_dataset(rng, WARM_N, 1), warm)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["test", "--input", warm, "--h", str(H), "--kernel", KERNEL,
                      "--output", os.path.join(self.workdir, "warm.json")])

    def _csv(self, key: str, s: int) -> str:
        return os.path.join(self.workdir, f"{key}_{s}.csv")

    def run_pass(self, data_index: int) -> Pass:
        s = data_index % self.sizes.datasets
        out = Pass(data_index=s)
        report_path = os.path.join(self.workdir, "report.json")
        for kind, key, extra in CLI_KINDS:
            argv = ["test", "--input", self._csv(key, s), "--h", str(H),
                    "--kernel", KERNEL, *extra, "--output", report_path]
            if os.path.exists(report_path):
                os.remove(report_path)
            sink = io.StringIO()
            with self.op_scope(kind), contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                t0 = self.clock()
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code if isinstance(exc.code, int) else 2
                seconds = self.clock() - t0
            out.attempted += 1
            if code not in CLI_EXIT_CODES.get(kind, (0,)):
                out.failed += 1
                out.problems.append(
                    f"{kind}: exit {code}: {sink.getvalue().strip()[-300:]}")
                continue
            if code != 0:
                continue
            with open(report_path) as fh:
                report = json.load(fh)
            stat, p = report["statistic"], report["p_asymptotic"]
            if stat is None or p is None or not 0.0 < p <= 1.0:
                out.problems.append(f"{kind}: statistic {stat}, p {p}")
                continue
            out.ok += 1
            out.latencies[kind] = seconds
            out.values[kind] = stat
            out.skipped += report["n_skipped"]
            out.points += self.n_rows[key]
        return out

    def compare(self, p: Pass, ref: dict, rtol: float) -> list:
        want = ref[str(p.data_index)]
        return [f"{kind}: statistic {p.values.get(kind)} != reference {v}"
                for kind, v in want.items()
                if kind not in p.values or not _close(p.values[kind], v, rtol)]


class Bootstrap(Workload):
    """One bootstrap_null call per pass on design ``pass % datasets``, so a
    run averages over several designs and no design repeats within it."""

    name = "bootstrap"
    tag = 2
    latency_kinds = ("bootstrap",)

    def setup(self) -> None:
        self.data = [draw_dataset(_rng(self.seed, self.tag, s), self.sizes.n_small, 1)
                     for s in range(self.sizes.datasets)]
        super().setup()

    def prepare(self) -> None:
        self.kernel = kernels.kernel_by_name(KERNEL)
        self.g = estfun.make_identity()
        self.spec = selr.Hypothesis.simple([selr.zero_coef()])
        super().prepare()

    def run_pass(self, data_index: int) -> Pass:
        s = data_index % self.sizes.datasets
        b = self.sizes.boot_b
        out = Pass(data_index=s, attempted=b)
        with self.op_scope("bootstrap"):
            t0 = self.clock()
            sample, p = selr.bootstrap_null(self.data[s], self.kernel, H, self.g, self.spec,
                                            B=b, scheme="gaussian", seed=self.seed)
            out.latencies["bootstrap"] = self.clock() - t0
        out.ok = len(sample)
        out.failed = b - len(sample)
        out.values = {"p": float(p), "null_sample": [float(v) for v in sample]}
        if not 0.0 < p <= 1.0:
            out.problems.append(f"bootstrap p-value {p} outside (0, 1]")
        if not np.all(np.isfinite(sample)):
            out.problems.append("bootstrap null sample holds non-finite values")
        return out

    def compare(self, p: Pass, ref: dict, rtol: float) -> list:
        ref = ref[str(p.data_index)]
        problems = []
        if not _close(p.values["p"], ref["p"], rtol):
            problems.append(f"p-value {p.values['p']} != reference {ref['p']}")
        got, want = p.values["null_sample"], ref["null_sample"]
        if len(got) != len(want) or not all(_close(a, b, rtol) for a, b in zip(got, want)):
            problems.append("bootstrap null sample differs from the reference")
        return problems


class MonteCarlo(Workload):
    name = "montecarlo"
    tag = 3
    latency_kinds = ("montecarlo",)

    def prepare(self) -> None:
        self.config = montecarlo.SimulationConfig(
            n=self.sizes.mc_n, c1=2.0, alternative="null",
            reps=self.sizes.mc_reps, seed=self.seed, kernel=KERNEL)
        super().prepare()

    def run_pass(self, data_index: int) -> Pass:
        s = data_index % self.sizes.datasets
        reps = self.sizes.mc_reps
        out = Pass(data_index=s, attempted=2 * reps)
        with self.op_scope("montecarlo"):
            t0 = self.clock()
            selr_vals, f_vals = montecarlo.simulate_statistics(
                self.config, want_f=True, stream_offset=s * reps, n_jobs=1)
            out.latencies["montecarlo"] = self.clock() - t0
        both = np.concatenate([selr_vals, f_vals])
        out.ok = int(np.count_nonzero(np.isfinite(both)))
        out.failed = 2 * reps - out.ok
        if out.ok < 2 * reps and np.any(np.isinf(both)):
            out.problems.append("infinite statistic")
        out.values = {"selr_mean": float(np.nanmean(selr_vals)),
                      "f_mean": float(np.nanmean(f_vals))}
        if not all(math.isfinite(v) for v in out.values.values()):
            out.problems.append(f"statistic means not finite: {out.values}")
        return out

    def compare(self, p: Pass, ref: dict, rtol: float) -> list:
        want = ref[str(p.data_index)]
        return [f"{key} {p.values[key]} != reference {v}"
                for key, v in want.items() if not _close(p.values[key], v, rtol)]


WORKLOADS = {w.name: w for w in (CliTests, Bootstrap, MonteCarlo)}
