"""The README's Library example runs as shown on a seeded (u, x, y)."""

import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).parents[1] / "README.md"


def test_readme_library_block_runs(capsys):
    block = re.search(r"## Library\n+```python\n(.*?)```", README.read_text(), re.S).group(1)
    rng = np.random.default_rng(0)
    n = 120
    u = rng.random(n)
    x = np.column_stack([np.ones(n), rng.normal(size=n)])
    y = rng.normal(size=n)  # the example's null, all coefficients zero, holds
    exec(compile(block, str(README), "exec"), {"u": u, "x": x, "y": y})
    statistic, df, p = (float(v) for v in capsys.readouterr().out.split())
    assert statistic >= 0 and df > 0 and 0 <= p <= 1
