"""Shared helpers for the test suite."""

import pathlib
from collections import Counter

import numpy as np
import pytest

from selrtest import Dataset, local_el

_REPORT_FILE = pathlib.Path(__file__).parent / "_acceptance_report.txt"


def record_criterion(line: str) -> None:
    """Queue a per-criterion verdict for the end-of-run summary."""
    with _REPORT_FILE.open("a") as fh:
        fh.write(line + "\n")


def pytest_sessionstart(session):
    _REPORT_FILE.unlink(missing_ok=True)


def pytest_terminal_summary(terminalreporter):
    if _REPORT_FILE.exists():
        terminalreporter.section("acceptance criteria")
        for line in _REPORT_FILE.read_text().splitlines():
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_dataset(rng, n=60, p=1, hetero=0.0, coef=None):
    """Null-model dataset: y = sum_k coef_k(u) x_k + noise(1 + hetero u^2)."""
    u = rng.random(n)
    x = np.ones((n, p)) if p == 1 else np.column_stack(
        [np.ones(n)] + [rng.normal(size=n) for _ in range(p - 1)]
    )
    y = np.sqrt(1.0 + hetero * u**2) * rng.normal(size=n)
    if coef is not None:
        for k, fn in enumerate(coef):
            y = y + fn(u) * x[:, k]
    return Dataset(u, x, y)


def count_windows(monkeypatch, key=lambda dset, h, u0: u0):
    """Counter of the windows built, by key(dataset, h, centre), counted
    centre by centre in ``local_el._window_block``, which builds them all."""
    built = Counter()
    build = local_el._window_block

    def counting_block(dset, kernel, h, centres):
        built.update(key(dset, h, float(u0)) for u0 in np.atleast_1d(centres))
        return build(dset, kernel, h, centres)

    monkeypatch.setattr(local_el, "_window_block", counting_block)
    return built


def midpoint(f, a, b, panels=200_000):
    """Composite midpoint rule; independent quadrature oracle."""
    x = a + (b - a) * (np.arange(panels) + 0.5) / panels
    return (b - a) / panels * float(np.sum(f(x)))
