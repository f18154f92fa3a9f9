"""selrtest benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload cli_tests --seed 0 --seconds 32 --trace 0
    python3 perfbench/run.py --smoke            # every workload, tiny sizes
    python3 perfbench/run.py --record           # rewrite reference.json

Workloads (one fresh process each, BLAS pinned to one thread):

- ``cli_tests``: in-process ``selrtest.cli.main(["test", ...])`` on CSVs
  written during set-up, six kinds per pass.  The BFGS profile fit only
  runs here; n=200 and n=800 are both present because batching the dual
  Newton solve pays very differently at the two sizes.
- ``bootstrap``: ``bootstrap_null(B=199, scheme="gaussian")`` at n=200, one
  call per pass, passes cycling over the seed's designs.  Within a call the
  design is fixed and only y changes, so per-design caching pays here.
- ``montecarlo``: ``simulate_statistics(..., want_f=True)``; every replicate
  draws a fresh design, so a per-design cache cannot pay and should not cost.

With ``--trace 0`` a run times passes until ``--seconds`` are spent and
reports the end-to-end metrics of BENCHMARK.json, timings as means over the
passes.  Every time is scaled to a fixed host speed (see hostspeed.py): the
shared host's speed drifts by tens of percent within minutes, far more than
the program's own spread.  The raw pass times and the scale factor are in the
``report:`` line.  ``setup_s`` is the median over fresh child processes of
process start to ready (imports, inputs, CSV files, first kernel_constants,
and on cli_tests one warm-up CLI call), each scaled by reference tasks timed
around it.  With ``--trace 1`` a run installs the span tracer and alternates
traced and untraced passes on one input set, and reports the per-layer
metrics: work counts of one traced pass (they must repeat exactly in every
traced pass) and mean self times.

Every run checks its outputs: finite statistics, p-values in (0, 1], the
expected CLI exit codes and, for the default seed, agreement with
reference.json within RTOL.  The last stdout line is the result JSON.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP before numpy loads; probe children inherit this.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402  (the script's own directory is on sys.path)
import tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
RTOL = 1e-6  # relative tolerance against reference.json
SETUP_PROBES = 3
SETUP_REFERENCE_TASKS = 20  # host-speed reference tasks before and after each probe
MAX_TRACED_PASSES = 4  # spans stay in memory; bounds the trace run's footprint
WORKLOAD_NAMES = ("cli_tests", "bootstrap", "montecarlo")


def _median(xs):
    return statistics.median(list(xs))


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def provenance(seed: int, sizes) -> dict:
    import dataclasses

    import scipy
    import selrtest

    return {
        "seed": seed,
        "git_commit": git_commit(),
        "selrtest": selrtest.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "sizes": dataclasses.asdict(sizes),
    }


# ---------------------------------------------------------------------------
# set-up probes


def probe(workload: str, seed: int, sizes_name: str, workdir: Path) -> None:
    """Child side: set up one workload, say ready, clean up."""
    import workloads

    workdir.mkdir(parents=True)
    try:
        w = workloads.WORKLOADS[workload](getattr(workloads, sizes_name), seed, str(workdir))
        w.setup()
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def setup_samples(workload: str, seed: int, sizes_name: str, count: int) -> list:
    """Seconds from spawning a fresh process to its ready line, each scaled
    to the nominal host speed by reference tasks timed just before and
    just after it."""
    samples = []
    for _ in range(count):
        before = hostspeed.mean_time(SETUP_REFERENCE_TASKS)
        argv = [sys.executable, str(HERE / "run.py"), "--probe", "--sizes", sizes_name,
                "--workload", workload, "--seed", str(seed)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        after = hostspeed.mean_time(SETUP_REFERENCE_TASKS)
        samples.append((t1 - t0) * hostspeed.NOMINAL_S / (0.5 * (before + after)))
    return samples


# ---------------------------------------------------------------------------
# passes


def run_passes(w, seconds: float, max_passes: int | None) -> list:
    """Run passes, pass k on input set k, while the next would end within
    half a pass of ``seconds``, so the timed window is ``seconds`` on
    average.  Times are read from ``w.clock``."""
    passes = []
    start = w.clock()
    while True:
        t0 = w.clock()
        p = w.run_pass(len(passes))
        p.wall = w.clock() - t0
        passes.append(p)
        elapsed = w.clock() - start
        if max_passes is not None and len(passes) >= max_passes:
            break
        if elapsed + 0.5 * statistics.fmean(x.wall for x in passes) > seconds:
            break
    return passes


def check_passes(w, passes, reference: dict | None) -> list:
    problems = []
    for p in passes:
        problems += [f"pass {p.data_index}: {m}" for m in p.problems]
        if reference is not None:
            problems += [f"pass {p.data_index}: {m}"
                         for m in w.compare(p, reference[w.name], RTOL)]
    return problems


def end_to_end(w, passes, setup: list, speed: float) -> dict:
    """Every end-to-end metric the report prints: name -> (value, unit).

    Timings are means over the passes of the run, multiplied by ``speed``
    (the host-speed factor of the run) so they read in seconds at the
    nominal host speed.  ``setup`` is already scaled.
    """
    attempted = sum(p.attempted for p in passes)
    ok = sum(p.ok for p in passes)
    samples = {}
    for p in passes:
        for kind, seconds in p.latencies.items():
            samples.setdefault(kind, []).append(seconds)
    latency = {kind: speed * statistics.fmean(xs) for kind, xs in samples.items()}
    geomean = statistics.fmean(math.log(latency.get(k, math.nan)) for k in w.latency_kinds)
    m = {
        "setup_s": (_median(setup), "s"),
        "wall_s": (speed * statistics.fmean(p.wall for p in passes), "s"),
        "stat_per_s": (ok / (speed * sum(p.wall for p in passes)), "1/s"),
        "kind_geomean_ms": (1e3 * math.exp(geomean), "ms"),
        "ok_frac": (ok / attempted, "ratio"),
        "failed_frac": (1.0 - ok / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    points = sum(p.points for p in passes)
    if points:
        m["skipped_frac"] = (sum(p.skipped for p in passes) / points, "ratio")
    m.update({f"{kind}_ms": (1e3 * v, "ms") for kind, v in latency.items()})
    return m


# ---------------------------------------------------------------------------
# tracing

LAYER_STATS = {
    "local_el.bfgs": ("calls", "self_s", "iters", "not_converged"),
    "local_el.solve_lagrange": ("calls", "self_s", "failed", "ok_ratio"),
    "local_el.hull_lp": ("calls", "self_s"),
    "local_el.fit_local": ("calls", "self_s", "failed", "dual_solves"),
    "local_el.fit_local_constrained": ("calls", "self_s", "failed"),
    "local_el.lls_init": ("calls", "self_s"),
    "local_el.local_weights": ("calls", "self_s"),
    "selr.selr_simple": ("self_s",),
    "selr.selr_gof": ("self_s",),
    "selr.selr_composite": ("self_s",),
    "selr.selr_test": ("calls", "self_s"),
    "selr.bootstrap_null": ("self_s",),
    "estfun.batch": ("calls", "self_s"),
    "estfun.batch_derivative": ("calls", "self_s"),
    "kernels.kernel_constants": ("calls", "total_s"),
    "kernels.evaluator": ("calls", "self_s"),
    "montecarlo.f_type_stat": ("calls", "self_s"),
    "montecarlo.generate": ("calls", "self_s"),
    "montecarlo.simulate_statistics": ("self_s",),
    "streams.substream": ("calls", "self_s"),
    "dataio.ingest_csv": ("calls", "self_s"),
    "cli.main": ("calls", "self_s"),
}
# stat -> (field of the aggregate, unit)
STAT_FIELDS = {
    "calls": ("calls", "count"), "self_s": ("self_s", "s"), "total_s": ("total_s", "s"),
    "failed": ("raised", "count"), "iters": ("a", "count"), "dual_solves": ("a", "count"),
    "not_converged": ("b", "count"),
}
EMPTY = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "raised": 0, "a": 0, "b": 0}


def layer_metrics(layers: dict, warnings_count: int) -> dict:
    """Per-layer metrics of one pass: name -> (value, unit)."""
    m = {}
    for layer, stats in LAYER_STATS.items():
        agg = layers.get(layer, EMPTY)
        for stat in stats:
            if stat == "ok_ratio":
                calls = agg["calls"]
                m[f"{layer}.{stat}"] = ((calls - agg["raised"]) / calls if calls else 1.0,
                                        "ratio")
            else:
                field, unit = STAT_FIELDS[stat]
                m[f"{layer}.{stat}"] = (agg[field], unit)
    stats = [layers.get(s, EMPTY) for s in tracer.STATISTIC_SPANS]
    m["selr.windows"] = (sum(a["a"] for a in stats), "count")
    m["selr.windows_skipped"] = (sum(a["b"] for a in stats), "count")
    m["selr.warnings"] = (warnings_count, "count")
    return m


class TracedRun:
    """Tags spans with the running operation and counts its warnings."""

    def __init__(self):
        self.tracer = tracer.Tracer()
        self.pass_of_op = [tracer.SETUP]  # op 0 is the traced set-up
        self.warnings_of_op = [0]
        self.current_pass = tracer.SETUP
        self.tracer.op = 0

    @contextlib.contextmanager
    def op_scope(self, kind):
        op = len(self.pass_of_op)
        self.pass_of_op.append(self.current_pass)
        self.warnings_of_op.append(0)
        self.tracer.op = op
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                yield
            finally:
                self.warnings_of_op[op] = len(caught)
                self.tracer.op = 0

    def aggregate(self) -> dict:
        return tracer.aggregate(self.tracer.array(), self.tracer.names,
                                np.asarray(self.pass_of_op))

    def warnings_in(self, pass_index: int) -> int:
        return sum(n for p, n in zip(self.pass_of_op, self.warnings_of_op)
                   if p == pass_index)

    def save(self, path: Path, prov: dict) -> None:
        np.savez(path, spans=self.tracer.array(), names=np.asarray(self.tracer.names),
                 pass_of_op=np.asarray(self.pass_of_op),
                 provenance=np.asarray(json.dumps(prov)))


def traced_passes(w, seconds: float, smoke: bool, prov: dict, spans_path: Path):
    """Traced and untraced passes in turn, all on input set 0.

    The wrappers stay installed and are switched off for the untraced
    passes, so drift in host speed hits both kinds alike.
    """
    run = TracedRun()
    run.tracer.install()
    max_traced = 2 if smoke else MAX_TRACED_PASSES
    traced, plain = [], []
    plain_scope = w.op_scope
    try:
        w.op_scope = run.op_scope
        run.tracer.active = True
        w.prepare()  # traced set-up: program objects now carry traced callables
        start = time.perf_counter()
        while True:
            k = len(traced) + len(plain)
            run.current_pass = k
            run.tracer.active = k % 2 == 0
            t0 = time.perf_counter()
            p = w.run_pass(0)
            p.wall = time.perf_counter() - t0
            (traced if run.tracer.active else plain).append((k, p))
            if len(traced) < 2 or not plain:
                continue
            elapsed = time.perf_counter() - start
            walls = [q.wall for _, q in traced + plain]
            if len(traced) >= max_traced or elapsed + _median(walls) > seconds:
                break
    finally:
        run.tracer.active = False
        run.tracer.restore()
        w.op_scope = plain_scope
    run.save(spans_path, prov)
    per_pass = run.aggregate()
    problems = []
    setup_layers = per_pass.get(tracer.SETUP, {})
    values = []
    for k, p in traced:
        layers = per_pass.get(k, {})
        m = layer_metrics(layers, run.warnings_in(k))
        for stat in ("calls", "total_s"):
            name = f"kernels.kernel_constants.{stat}"
            field = STAT_FIELDS[stat][0]
            setup_value = setup_layers.get("kernels.kernel_constants", EMPTY)[field]
            m[name] = (m[name][0] + setup_value, m[name][1])
        m["trace.unattributed_s"] = (p.wall - layers.get("roots_s", 0.0), "s")
        values.append(m)
    counts = [{k: v for k, (v, unit) in m.items() if unit == "count"} for m in values]
    if any(c != counts[0] for c in counts[1:]):
        diff = sorted(k for k in counts[0] if any(c[k] != counts[0][k] for c in counts))
        problems.append(f"work counts differ between traced passes of one input: {diff}")
    out = {}
    for name, (v0, unit) in values[0].items():
        out[name] = (v0 if unit != "s" else statistics.fmean(m[name][0] for m in values),
                     unit)
    traced_wall = _median(p.wall for _, p in traced)
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - _median(p.wall for _, p in plain), "s")
    slack = max(out["trace.overhead_s"][0], 0.0) + 0.01 * traced_wall
    if out["trace.unattributed_s"][0] > slack:
        problems.append(
            f"layer self times leave {out['trace.unattributed_s'][0]:.4f} s of the traced "
            f"wall unattributed (allowed {slack:.4f} s)")
    passes = [p for _, p in sorted(traced + plain, key=lambda kp: kp[0])]
    return passes, out, problems


# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 bench: dict, workroot: Path) -> int:
    import workloads

    sizes_name = "SMOKE" if smoke else "FULL"
    sizes = getattr(workloads, sizes_name)
    setup = [] if trace else setup_samples(name, seed, sizes_name, 1 if smoke else SETUP_PROBES)
    hostspeed_summary = None
    prov = provenance(seed, sizes)
    workdir = workroot / f"run-{os.getpid()}-{name}"
    workdir.mkdir(parents=True)
    try:
        w = workloads.WORKLOADS[name](sizes, seed, str(workdir))
        w.setup()
        if trace:
            spans_path = workroot / f"spans-{name}-seed{seed}{'-smoke' if smoke else ''}.npz"
            passes, metrics, problems = traced_passes(w, seconds, smoke, prov, spans_path)
            wanted = bench["per_layer"]
        else:
            sampler = hostspeed.Sampler()
            w.clock = sampler.clock
            sampler.start()
            try:
                passes = run_passes(w, seconds, 1 if smoke else None)
            finally:
                sampler.stop()
            speed = sampler.factor()
            metrics, problems = end_to_end(w, passes, setup, speed), []
            hostspeed_summary = sampler.summary()
            wanted = bench["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reference = None
    if seed == DEFAULT_SEED and not smoke:
        with open(HERE / "reference.json") as fh:
            reference = json.load(fh)
    problems = check_passes(w, passes, reference) + problems
    for spec in wanted:
        metric = spec["name"]
        if metric not in metrics:
            problems.append(f"metric {metric} not measured")
        elif metrics[metric][1] != spec["unit"]:
            problems.append(f"metric {metric} unit {metrics[metric][1]} "
                            f"!= BENCHMARK.json {spec['unit']}")
        elif not math.isfinite(metrics[metric][0]):
            problems.append(f"metric {metric} is {metrics[metric][0]}")
            metrics[metric] = (None, spec["unit"])
    correct = not problems

    print(f"perfbench {name} seed={seed} trace={int(trace)} passes={len(passes)}"
          f"{' smoke' if smoke else ''}")
    for key, value in prov.items():
        print(f"  {key}: {value}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<40} {value if value is not None else math.nan:>14.6g} {unit}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print("report: " + json.dumps({
        "workload": name, "trace": int(trace), "smoke": smoke, "provenance": prov,
        "passes": len(passes), "pass_walls": [p.wall for p in passes],
        "hostspeed": hostspeed_summary, "setup_samples": setup,
        "pass_latencies": [p.latencies for p in passes], "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    result = {
        "correct": correct,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {s["name"]: {"value": metrics[s["name"]][0], "unit": s["unit"]}
                    for s in wanted if s["name"] in metrics},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def record(workroot: Path) -> int:
    """Write reference.json from the default seed, one pass per input set."""
    import workloads

    sizes = workloads.FULL
    ref = {"seed": DEFAULT_SEED, "rtol": RTOL, "provenance": provenance(DEFAULT_SEED, sizes)}
    for name in WORKLOAD_NAMES:
        workdir = workroot / f"record-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            w = workloads.WORKLOADS[name](sizes, DEFAULT_SEED, str(workdir))
            w.setup()
            ref[name] = {str(s): w.run_pass(s).values for s in range(sizes.datasets)}
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"recorded {name}", flush=True)
    with open(HERE / "reference.json", "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one pass; without --workload runs every "
                             "workload untraced and traced")
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json from the default seed")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--sizes", default="FULL", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "selrtest" / "__init__.py").is_file():
        print(f"perfbench: no selrtest sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workroot = ROOT / ".perfbench_work"

    if args.probe:
        probe(args.workload, args.seed, args.sizes, workroot / f"probe-{os.getpid()}")
        return 0
    workroot.mkdir(exist_ok=True)
    if args.record:
        return record(workroot)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload is None:
        if not args.smoke:
            parser.error("--workload is required unless --smoke or --record is given")
        codes = [run_workload(name, args.seed, args.seconds, bool(trace), True, bench,
                              workroot)
                 for name in WORKLOAD_NAMES for trace in (0, 1)]
        return max(codes)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                        args.smoke, bench, workroot)


if __name__ == "__main__":
    sys.exit(main())
