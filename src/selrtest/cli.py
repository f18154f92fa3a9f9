"""Command-line front end.

Subcommands: ``test`` (run a hypothesis test on a CSV dataset),
``simulate`` (null tables and size/power studies), ``calibrate``
(bootstrap null distribution for a dataset), ``bandwidth`` (multi-scale
bandwidth selection) and ``kernel-constants``.

Exit codes: 0 ok, 2 configuration error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import datetime
import json
import os
import secrets
import sys

import numpy as np

from .dataio import ingest_csv
from .errors import ConfigError, DataError, NumericalError, SelrError
from .estfun import parse_floats, parse_g_spec
from .kernels import kernel_by_name, kernel_constants, tabulated_kernel
from .montecarlo import SimulationConfig, null_table, size_power_study
from .selr import (
    BOOTSTRAP_SCHEMES,
    Hypothesis,
    _calibrated_test,
    _check_bootstrap,
    const_coef,
    select_bandwidth,
    selr_test,
    zero_coef,
)

__all__ = ["main", "build_parser"]

# the words a config file may give a boolean option, in any case
_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _read_config_file(path: str) -> dict:
    out = {}
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigError(f"cannot read --config {path}: {exc.strerror}") from None
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _apply_config(parser: argparse.ArgumentParser, path: str) -> None:
    """Make the values of the config file at ``path`` the defaults of every
    subcommand option they name, each checked as its flag would be.  A key
    that names no subcommand option, or one that would choose a member of a
    mutually exclusive group (which only a flag may), is refused."""
    defaults = _read_config_file(path)
    sub_action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    subparsers = sub_action.choices.values()
    known = {a.dest for sp in subparsers for a in sp._actions
             if not isinstance(a, argparse._HelpAction)}
    exclusive = {a.dest for sp in subparsers for group in sp._mutually_exclusive_groups
                 for a in group._group_actions}
    for key in defaults:
        if key not in known:
            raise ConfigError(f"{path}: unknown key {key!r}: it names no subcommand option")
        if key in exclusive:
            raise ConfigError(f"{path}: key {key!r} chooses one of mutually exclusive "
                              "options; give it as a flag")
    for sp in subparsers:
        for action in sp._actions:
            if action.dest not in defaults:
                continue
            value = defaults[action.dest]
            try:
                if action.type is not None:
                    value = action.type(value)
                elif isinstance(action.default, bool):
                    if value.lower() not in _BOOLEANS:
                        raise ValueError(f"{value!r} is not one of {', '.join(_BOOLEANS)}")
                    value = _BOOLEANS[value.lower()]
                if action.choices is not None and value not in action.choices:
                    choices = ", ".join(map(str, action.choices))
                    raise ValueError(f"{value!r} is not one of {choices}")
            except ValueError as exc:
                raise ConfigError(f"{path}: bad value for {action.dest}: {exc}") from None
            sp.set_defaults(**{action.dest: value})
            action.required = False


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="selrtest")
    parser.add_argument("--config", help="key=value defaults file; flags win")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_kernel(p):
        p.add_argument("--kernel", default="triweight")
        p.add_argument("--tabulated-kernel", help="two-column file (t, K(t))")

    kc = sub.add_parser("kernel-constants", help="print calibration constants")
    add_kernel(kc)

    def add_data(p, bootstrap):
        """The options of a subcommand that tests a null on a CSV dataset."""
        p.add_argument("--input", required=True)
        p.add_argument("--g", default="identity")
        add_kernel(p)
        p.add_argument("--null", default="zero",
                       help="zero | const:<v1,v2,...> (simple null)")
        p.add_argument("--gof", action="store_true", help="goodness-of-fit test")
        p.add_argument("--no-estimated-coefficients", action="store_true")
        p.add_argument("--fix", help="composite null: idx=value[,idx=value...] (0-based)")
        p.add_argument("--omega", help="lo,hi testing interval")
        p.add_argument("--bootstrap", type=int, default=bootstrap, metavar="B")
        p.add_argument("--scheme", default="gaussian", choices=BOOTSTRAP_SCHEMES)
        p.add_argument("--seed", type=int)
        p.add_argument("--output", help="JSON report path")

    t = sub.add_parser("test", help="run a test on a CSV dataset")

    s = sub.add_parser("simulate", help="simulation studies")
    mode = s.add_mutually_exclusive_group(required=True)
    mode.add_argument("--table1", action="store_true", help="null mean/sd table")
    mode.add_argument("--power", action="store_true", help="size/power study")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--c0", type=float, default=1.0)
    s.add_argument("--c1", type=float, default=0.0)
    s.add_argument("--reps", type=int, default=500)
    s.add_argument("--seed", type=int)
    s.add_argument("--kernel", default="triweight")
    s.add_argument("--alternative", default="linear", choices=["linear", "sine"])
    s.add_argument("--r-grid", default="0,0.4,0.8,1.2")
    s.add_argument("--threshold-selr", type=float)
    s.add_argument("--threshold-f", type=float)
    s.add_argument("--level", type=float, default=0.05)
    s.add_argument("--output", help="CSV output path")
    s.add_argument("--plot-data", help="plot-ready whitespace-column file")
    s.add_argument("--threads", type=int, default=1)

    c = sub.add_parser("calibrate", help="bootstrap null distribution")
    b = sub.add_parser("bandwidth", help="multi-scale bandwidth selection")
    for p, bootstrap in ((t, 0), (c, 199), (b, 0)):
        add_data(p, bootstrap)
    for p in (t, c):
        p.add_argument("--h", type=float, required=True)
        p.add_argument("--include-full-term", action="store_true")
    b.add_argument("--grid", required=True, help="h1,h2,...")
    return parser


def _kernel_from(args):
    path = args.tabulated_kernel
    if path:
        try:
            table = np.loadtxt(path)
        except (OSError, ValueError) as exc:
            raise DataError(f"cannot read --tabulated-kernel {path}: {exc}") from None
        if table.ndim != 2 or table.shape[1] != 2:
            raise DataError("tabulated kernel file needs two columns (t, K(t))")
        return tabulated_kernel(table[:, 0], table[:, 1])
    return kernel_by_name(args.kernel)


def _null_coefs(spec: str, p: int):
    if spec == "zero":
        return [zero_coef()] * p
    if spec.startswith("const:"):
        return [const_coef(v) for v in parse_floats(spec[len("const:"):], "--null const", p)]
    raise ConfigError(f"unknown --null spec {spec!r}")


def _hypothesis_from(args, data):
    """The null the flags of ``args`` choose.  Flags that choose two nulls,
    or that qualify a null not chosen, are refused."""
    chosen = [flag for flag, on in (("--gof", args.gof), ("--fix", args.fix),
                                    ("--null", args.null != "zero")) if on]
    if len(chosen) > 1:
        raise ConfigError(f"{' and '.join(chosen)} choose different nulls; give one")
    if args.no_estimated_coefficients and not args.gof:
        raise ConfigError("--no-estimated-coefficients applies to --gof only")
    omega = None if args.omega is None else tuple(parse_floats(args.omega, "--omega", 2))
    if args.gof:
        return Hypothesis.goodness_of_fit(
            omega=omega, no_estimated_coefficients=args.no_estimated_coefficients)
    if args.fix:
        pairs = []
        for item in args.fix.split(","):
            idx, _, val = item.partition("=")
            try:
                pairs.append((int(idx), float(val)))
            except ValueError:
                raise ConfigError(f"bad --fix entry {item!r}; expected idx=value") from None
        a10 = [const_coef(v) for _, v in pairs]
        return Hypothesis.composite(a10, [i for i, _ in pairs], omega=omega)
    return Hypothesis.simple(_null_coefs(args.null, data.p), omega=omega)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = secrets.randbelow(2**31)
    # stderr, so a report written to stdout still parses
    print(f"seed: {seed} (drawn; pass --seed {seed} to reproduce)", file=sys.stderr)
    return seed


def _check_output_dir(path: str | None, flag: str) -> None:
    """Refuse the path ``path`` of ``flag`` before any work when it names a
    directory or its directory does not exist; the file itself is opened only
    at the end, so a failed run leaves none behind."""
    if path and os.path.isdir(path):
        raise ConfigError(f"cannot write {flag} {path}: is a directory")
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError(f"cannot write {flag} {path}: no such directory")


def _open_output(path: str, flag: str, **kwargs):
    """The file ``path`` of ``flag`` opened for writing; one that cannot be
    opened is a configuration error."""
    try:
        return open(path, "w", **kwargs)
    except OSError as exc:
        raise ConfigError(f"cannot write {flag} {path}: {exc.strerror}") from None


def _write_report(report: dict, path: str | None) -> None:
    doc = dict(report, metadata={
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat()})
    # streamed: joining the text of a long per_point list first would
    # raise the peak memory of a large test
    with _open_output(path, "--output") if path else contextlib.nullcontext(sys.stdout) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_kernel_constants(args) -> int:
    kern = _kernel_from(args)
    consts = kernel_constants(kern)
    print(f"kernel: {kern.family}")
    print(f"mu2: {consts.mu2:.10g}")
    print(f"kstar0: {consts.kstar0:.10g}")
    print(f"kstar_l2: {consts.kstar_l2:.10g}")
    print(f"r_K: {consts.r_K:.10g}")
    print(f"c_K: {consts.c_K:.10g}")
    return 0


def _inputs(args, least_b: int):
    """The dataset, kernel, G and null of a data subcommand; its output path,
    bootstrap count (at least ``least_b``) and scheme and its G are checked
    before the CSV is read."""
    _check_output_dir(args.output, "--output")
    _check_bootstrap(args.bootstrap, least_b, args.scheme)
    g = parse_g_spec(args.g)
    data = ingest_csv(args.input)
    return data, _kernel_from(args), g, _hypothesis_from(args, data)


def _cmd_test(args) -> int:
    """``test`` and ``calibrate``: the statistic with its bootstrap p-value,
    drawn when B > 0, which ``calibrate`` requires (it reports the null
    sample too)."""
    calibrate = args.command == "calibrate"
    data, kern, g, spec = _inputs(args, 1 if calibrate else 0)
    B = args.bootstrap
    if args.include_full_term and spec.kind != "simple_null":
        raise ConfigError("--include-full-term applies to a simple null, not to --gof or --fix")
    include_full = True if args.include_full_term else None
    if B > 0:
        result, sample = _calibrated_test(data, kern, args.h, g, spec, B, args.scheme,
                                          _resolve_seed(args), include_full_term=include_full)
    else:
        result = selr_test(data, kern, args.h, g, spec, include_full_term=include_full)
    report = result.to_dict()
    if calibrate:
        report["null_sample"] = [float(v) for v in sample]
    _write_report(report, args.output)
    return 0


def _cmd_simulate(args) -> int:
    _check_output_dir(args.output, "--output")
    _check_output_dir(args.plot_data if args.power else None, "--plot-data")
    seed = _resolve_seed(args)
    config = SimulationConfig(
        n=args.n, c0=args.c0, c1=args.c1, reps=args.reps, seed=seed, kernel=args.kernel,
        alternative="null" if args.table1 else args.alternative,
    )
    if args.table1:
        rows = [null_table(config, n_jobs=args.threads)]
        header = ["n", "h", "variance", "mu", "sigma", "reps"]
        records = [[row.n, f"{row.h:.5f}", row.variance_label,
                    f"{row.mu:.4f}", f"{row.sigma:.4f}", row.reps] for row in rows]
    else:
        r_grid = parse_floats(args.r_grid, "--r-grid")
        if (args.threshold_selr is None) != (args.threshold_f is None):
            raise ConfigError("--threshold-selr and --threshold-f must be given together")
        thresholds = (None if args.threshold_selr is None
                      else (args.threshold_selr, args.threshold_f))
        rows = size_power_study(config, r_grid, thresholds=thresholds,
                                level=args.level, n_jobs=args.threads)
        header = ["n", "h", "c1", "r", "power_selr", "power_f"]
        records = [[row.n, f"{row.h:.5f}", row.c1, row.r,
                    f"{row.power_selr:.4f}", f"{row.power_f:.4f}"] for row in rows]
    with (_open_output(args.output, "--output", newline="") if args.output
          else contextlib.nullcontext(sys.stdout)) as out:
        csv.writer(out).writerows([header, *records])
    if args.power and args.plot_data:
        with _open_output(args.plot_data, "--plot-data") as fh:
            fh.write(f"# power curves: n={args.n} h={config.h:.5f} c1={args.c1}\n")
            fh.write("# r power_selr power_f\n")
            for row in rows:
                fh.write(f"{row.r:g} {row.power_selr:.4f} {row.power_f:.4f}\n")
    return 0


def _cmd_bandwidth(args) -> int:
    data, kern, g, spec = _inputs(args, 0)
    grid = parse_floats(args.grid, "--grid")
    B = args.bootstrap
    seed = _resolve_seed(args) if B > 0 else 0
    sel = select_bandwidth(data, kern, g, spec, grid, B=B, scheme=args.scheme, seed=seed)
    report = {
        "h_selected": sel.h,
        "statistic": sel.statistic,
        "per_h": {f"{h:g}": v for h, v in sel.per_h.items()},
        "p_bootstrap": sel.p_bootstrap,
    }
    _write_report(report, args.output)
    return 0


_COMMANDS = {
    "kernel-constants": _cmd_kernel_constants,
    "test": _cmd_test,
    "simulate": _cmd_simulate,
    "calibrate": _cmd_test,
    "bandwidth": _cmd_bandwidth,
}


def main(argv=None) -> int:
    parser = build_parser()
    # apply config-file defaults before the real parse; explicit flags win.
    # the pre-scan must not enforce required flags, so it only knows --config
    pre_parser = argparse.ArgumentParser(add_help=False)
    pre_parser.add_argument("--config")
    pre, _ = pre_parser.parse_known_args(argv)
    if pre.config:
        try:
            _apply_config(parser, pre.config)
        except ConfigError as exc:
            print(f"error[config]: {exc}", file=sys.stderr)
            return 2
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error[config]: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error[data]: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error[numerical]: {exc}", file=sys.stderr)
        return 4
    except SelrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
