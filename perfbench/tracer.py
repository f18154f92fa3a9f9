"""Span tracing of selrtest's layers, installed from outside the package.

Each traced function is replaced, in every ``selrtest`` namespace that
holds it, by a wrapper that records one span per call: (name, start, end,
parent span, operation id, raised, work a, work b).  The two work fields
carry counts read from the call's result, such as BFGS iterations or
skipped windows.  Spans stay in memory until the run ends; self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time

import numpy as np

SETUP = -1  # pass index of spans recorded during traced set-up


def _bfgs(args, kwargs, res):
    return int(res.nit), int(not res.success)


def _inner_iters(args, kwargs, fit):
    return int(fit.inner_iters), 0


def _windows(args, kwargs, result):
    """Evaluation points and skipped windows of one statistic."""
    data = args[0]
    spec = args[4] if len(args) > 4 else kwargs["spec"]
    lo, hi = spec.omega if spec.omega is not None else (data.u.min(), data.u.max())
    points = int(np.count_nonzero((data.u >= lo) & (data.u <= hi)))
    return points, int(result.n_infeasible_points)


# (module, attribute, span name, reader of the work fields)
LAYERS = (
    ("selrtest.local_el", "minimize", "local_el.bfgs", _bfgs),
    ("selrtest.local_el", "linprog", "local_el.hull_lp", None),
    ("selrtest.local_el", "solve_lagrange", "local_el.solve_lagrange", None),
    ("selrtest.local_el", "fit_local", "local_el.fit_local", _inner_iters),
    ("selrtest.local_el", "fit_local_constrained", "local_el.fit_local_constrained",
     _inner_iters),
    ("selrtest.local_el", "lls_init", "local_el.lls_init", None),
    ("selrtest.local_el", "local_weights", "local_el.local_weights", None),
    ("selrtest.selr", "selr_simple", "selr.selr_simple", _windows),
    ("selrtest.selr", "selr_gof", "selr.selr_gof", _windows),
    ("selrtest.selr", "selr_composite", "selr.selr_composite", _windows),
    ("selrtest.selr", "selr_test", "selr.selr_test", None),
    ("selrtest.selr", "bootstrap_null", "selr.bootstrap_null", None),
    ("selrtest.kernels", "kernel_constants", "kernels.kernel_constants", None),
    ("selrtest.montecarlo", "f_type_stat", "montecarlo.f_type_stat", None),
    ("selrtest.montecarlo", "generate", "montecarlo.generate", None),
    ("selrtest.montecarlo", "simulate_statistics", "montecarlo.simulate_statistics", None),
    ("selrtest.streams", "substream", "streams.substream", None),
    ("selrtest.dataio", "ingest_csv", "dataio.ingest_csv", None),
    ("selrtest.cli", "main", "cli.main", None),
)

# factories whose returned estimating function gets traced batch callables
G_FACTORIES = (
    ("selrtest.estfun", "make_identity"),
    ("selrtest.estfun", "make_smoothed_indicator"),
    ("selrtest.estfun", "parse_g_spec"),
)

STATISTIC_SPANS = ("selr.selr_simple", "selr.selr_gof", "selr.selr_composite")


class Tracer:
    """Records spans while installed and ``active``; ``op`` tags every span
    with the operation the benchmark is running."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.op = SETUP
        self.active = False  # when off, wrappers only pass the call through
        self._stack = [-1]
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, inspect=None):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            raised = 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = 0
                return result
            finally:
                t1 = clock()
                stack.pop()
                a = b = 0
                if inspect is not None and not raised:
                    a, b = inspect(args, kwargs, result)
                spans[idx] = (nid, t0, t1, parent, self.op, raised, a, b)

        traced.span_name = name
        return traced

    def _traced_g(self, factory):
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            g = factory(*args, **kwargs)
            if hasattr(g.batch, "span_name"):
                return g
            deriv = g.batch_derivative
            return dataclasses.replace(
                g,
                batch=self.wrap("estfun.batch", g.batch),
                batch_derivative=None if deriv is None
                else self.wrap("estfun.batch_derivative", deriv),
            )

        return traced_factory

    def _replace_everywhere(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "selrtest" and not modname.startswith("selrtest."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
                    self._undo.append(functools.partial(setattr, mod, key, original))

    def install(self) -> None:
        for modname, attr, name, inspect in LAYERS:
            original = getattr(sys.modules[modname], attr)
            self._replace_everywhere(original, self.wrap(name, original, inspect))
        for modname, attr in G_FACTORIES:
            original = getattr(sys.modules[modname], attr)
            self._replace_everywhere(original, self._traced_g(original))
        families = sys.modules["selrtest.kernels"].KERNEL_FAMILIES
        for family, fn in list(families.items()):
            families[family] = self.wrap("kernels.evaluator", fn)
            self._undo.append(functools.partial(families.__setitem__, family, fn))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def array(self) -> np.ndarray:
        """Spans as an (N, 8) float array in the field order of a span."""
        return np.asarray(self.spans, dtype=float).reshape(-1, 8)


def aggregate(spans: np.ndarray, names: list[str], pass_of_op: np.ndarray) -> dict:
    """Per pass, per span name: calls, self and total seconds, raised
    calls and the two work sums; plus the summed duration of root spans.

    Returns ``{pass: {"roots_s": float, name: {...}}}``.
    """
    name = spans[:, 0].astype(int)
    dur = spans[:, 2] - spans[:, 1]
    parent = spans[:, 3].astype(int)
    pas = pass_of_op[spans[:, 4].astype(int)]
    child = np.zeros(len(spans))
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    self_t = dur - child
    out: dict = {}
    for p in np.unique(pas):
        in_pass = pas == p
        layers = {"roots_s": float(dur[in_pass & ~nested].sum())}
        for nid in np.unique(name[in_pass]):
            sel = in_pass & (name == nid)
            layers[names[nid]] = {
                "calls": int(sel.sum()),
                "self_s": float(self_t[sel].sum()),
                "total_s": float(dur[sel].sum()),
                "raised": int(spans[sel, 5].sum()),
                "a": int(spans[sel, 6].sum()),
                "b": int(spans[sel, 7].sum()),
            }
        out[int(p)] = layers
    return out
