"""CSV ingestion and emission for datasets with columns u, x1..xp, y."""

from __future__ import annotations

import csv

import numpy as np

from .errors import DataError, EmptyFile, MissingColumn, ParseError
from .local_el import Dataset

__all__ = ["ingest_csv", "write_csv"]


def ingest_csv(path: str) -> Dataset:
    """Read a dataset from a headed CSV file.

    The header must name columns ``u``, ``y`` and ``x1`` .. ``xp`` in any
    order, each once; rows containing unparseable or non-finite fields are
    rejected and reported with their line numbers.  The file is read as
    UTF-8, with or without a byte-order mark; a file that is not UTF-8 text,
    and a path that is missing or cannot be opened, are a :class:`DataError`
    too.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except FileNotFoundError:
        raise EmptyFile(f"no such file: {path}") from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None
    with fh:
        reader = _records(fh, path)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFile(f"{path} is empty") from None
        names = [c.strip() for c in header]
        for c in names:
            if names.count(c) > 1 and (c in ("u", "y") or c[:1] == "x" and c[1:].isdigit()):
                raise DataError(f"column {c!r} is named more than once in the header")
        if "u" not in names:
            raise MissingColumn("missing column 'u'")
        if "y" not in names:
            raise MissingColumn("missing column 'y'")
        x_names = sorted(
            (c for c in names if c.startswith("x") and c[1:].isdigit()),
            key=lambda c: int(c[1:]),
        )
        if not x_names:
            raise MissingColumn("missing covariate columns x1..xp")
        if [int(c[1:]) for c in x_names] != list(range(1, len(x_names) + 1)):
            raise MissingColumn(f"covariate columns must be x1..x{len(x_names)}, got {x_names}")
        col = {name: i for i, name in enumerate(names)}

        rows = []
        bad_lines = []
        for lineno, record in enumerate(reader, start=2):
            if not record or all(not f.strip() for f in record):
                continue
            if len(record) != len(names):
                bad_lines.append(lineno)
                continue
            try:
                vals = [float(record[col[c]]) for c in ["u", *x_names, "y"]]
            except ValueError:
                bad_lines.append(lineno)
                continue
            if not all(np.isfinite(v) for v in vals):
                bad_lines.append(lineno)
                continue
            rows.append(vals)
        if bad_lines:
            raise ParseError(f"rejected rows with missing/non-finite fields at lines {bad_lines}")
        if not rows:
            raise EmptyFile(f"{path} holds no data rows")
    arr = np.asarray(rows, dtype=float)
    return Dataset(arr[:, 0], arr[:, 1:-1], arr[:, -1])


def _records(fh, path: str):
    """The CSV records of the open text file ``fh``, read from ``path``;
    a byte sequence that is not UTF-8 raises :class:`DataError`."""
    try:
        yield from csv.reader(fh)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc.reason}") from None


def write_csv(data: Dataset, path: str) -> None:
    """Write a dataset with 17 significant digits, round-trippable."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["u"] + [f"x{k + 1}" for k in range(data.p)] + ["y"])
        for i in range(data.n):
            row = [data.u[i], *data.x[i], data.y[i]]
            writer.writerow([f"{v:.17g}" for v in row])
