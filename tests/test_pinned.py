"""Pinned values of the assembled statistics on one seeded dataset.

Every statistic kind, the F-type comparator, the conditional-variance
smoother and a short bootstrap sample are computed on the same n=60,
p=2 dataset and compared with values recorded from an earlier build of
the package, to rtol 1e-9.  A refactor of the shared window, moment,
smoother or assembly code that moves any of these numbers fails here.
"""

import numpy as np
import pytest

from selrtest import (
    Hypothesis,
    ParametricFamily,
    bootstrap_null,
    const_coef,
    f_type_stat,
    kernel_by_name,
    make_identity,
    make_smoothed_indicator,
    selr_composite,
    selr_gof,
    selr_simple,
)
from selrtest.local_el import _windows
from selrtest.selr import CoefFn, _null_fitted_values, _sigma2_hat

from conftest import random_dataset

RTOL = 1e-9
H = 0.4
TRIWEIGHT = kernel_by_name("triweight")
SINE = CoefFn(lambda u: np.sin(2 * np.pi * u), lambda u: 2 * np.pi * np.cos(2 * np.pi * u))


def _dataset():
    rng = np.random.default_rng(60)
    return random_dataset(rng, n=60, p=2, hetero=1.0,
                          coef=[SINE.value, lambda u: np.full_like(u, 1.5)])


def _summary(res):
    return [res.statistic, res.df, res.p_asymptotic, res.n_infeasible_points, res.n_clamped]


def _vector(v):
    v = np.asarray(v)
    return [v.sum(), v.min(), v.max(), *v[::10]]


def compute() -> dict:
    data = _dataset()
    g = make_identity()
    simple = Hypothesis.simple([SINE, const_coef(1.5)])
    composite = Hypothesis.composite([const_coef(1.5)], [1])
    family = ParametricFamily(
        lambda u, th: np.column_stack([th[0] * np.sin(2 * np.pi * u), np.full_like(u, th[1])]),
        2,
    )
    parametric = Hypothesis.parametric(family, [1.0, 1.0])
    windows = _windows(data, TRIWEIGHT, H)
    m = _null_fitted_values(data, TRIWEIGHT, H, simple, windows)
    out = {
        "simple": _summary(selr_simple(data, TRIWEIGHT, H, g, simple)),
        "simple_full": _summary(
            selr_simple(data, TRIWEIGHT, H, g, simple, include_full_term=True)),
        "gof_smoothed": _summary(selr_gof(
            data, TRIWEIGHT, H, make_smoothed_indicator([0.0, 0.8, 3.5], width=0.3),
            Hypothesis.goodness_of_fit())),
        "composite": _summary(selr_composite(data, TRIWEIGHT, H, g, composite)),
        "f_type": [f_type_stat(data, TRIWEIGHT, H)],
        "sigma2": _vector(_sigma2_hat(data, data.y - m, windows)),
        "fitted_composite": _vector(
            _null_fitted_values(data, TRIWEIGHT, H, composite, windows)),
        "fitted_parametric": _vector(
            _null_fitted_values(data, TRIWEIGHT, H, parametric, windows)),
    }
    for scheme in ("gaussian", "wild"):
        sample, p = bootstrap_null(data, TRIWEIGHT, H, g, simple, B=5, scheme=scheme, seed=11)
        out[f"bootstrap_{scheme}"] = [*sample, p]
    return out


# recorded before the window, moment, smoother and assembly code was merged
PINNED = {
    'bootstrap_gaussian': [5.078583778774988, 1.3392046606338592, 4.794771399972395, 18.9514752027753, 6.15930897545061, 0.3333333333333333],
    'bootstrap_wild': [11.913426607531882, 1.4450039250864934, 2.107703959653978, 3.0960125577008393, 6.031012130731469, 0.3333333333333333],
    'composite': [2.13612951824213, 4.012539186403712, 0.26315787587530326, 0.0, 0.0],
    'f_type': [2.8009363782392716],
    'fitted_composite': [21.248488132791636, -2.705953916068063, 4.606593926096105, 4.606593926096105, 1.9536018201380938, -1.2916012357703472, 2.5081160562221183, -1.0568281210853687, 2.873290382919125],
    'fitted_parametric': [14.632429714054362, -3.137537135394826, 4.735409203176265, 4.735409203176265, 1.2360282265215992, -0.9705352691631595, 2.292316653757197, -1.1247963248427397, 2.8184012836362364],
    'gof_smoothed': [3.900914211162889, 8.025078372807425, 0.2960273161091543, 0.0, 0.0],
    'sigma2': [68.99038272559154, 0.682177648915162, 1.344372695687285, 1.1640061494301117, 1.3237316748233168, 1.1617752720915175, 1.2764550404917885, 0.6974154950137844, 1.3001845044545441],
    'simple': [6.330339618851391, 8.025078372807425, 0.0492776123753996, 0.0, 0.0],
    'simple_full': [6.330339618851099, 8.025078372807425, 0.04927761237541141, 0.0, 0.0],
}


@pytest.fixture(scope="module")
def computed():
    return compute()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_values(computed, name):
    np.testing.assert_allclose(computed[name], PINNED[name], rtol=RTOL, atol=0)
