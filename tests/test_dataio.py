"""CSV ingestion and emission."""

import numpy as np
import pytest

from selrtest import Dataset
from selrtest.dataio import ingest_csv, write_csv
from selrtest.errors import DataError, EmptyFile, MissingColumn, ParseError


def test_roundtrip(tmp_path, rng):
    data = Dataset(rng.random(25), rng.normal(size=(25, 2)), rng.normal(size=25))
    path = tmp_path / "d.csv"
    write_csv(data, str(path))
    back = ingest_csv(str(path))
    np.testing.assert_array_equal(back.u, data.u)
    np.testing.assert_array_equal(back.x, data.x)
    np.testing.assert_array_equal(back.y, data.y)


def test_header_order_free(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y,x1,u\n1.0,2.0,0.5\n3.0,4.0,0.7\n")
    data = ingest_csv(str(path))
    np.testing.assert_array_equal(data.u, [0.5, 0.7])
    np.testing.assert_array_equal(data.y, [1.0, 3.0])
    np.testing.assert_array_equal(data.x[:, 0], [2.0, 4.0])


def test_missing_columns(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("u,y\n0.5,1.0\n")
    with pytest.raises(MissingColumn):
        ingest_csv(str(path))
    path.write_text("u,x2,y\n0.5,1.0,1.0\n")
    with pytest.raises(MissingColumn):
        ingest_csv(str(path))  # covariates must be contiguous x1..xp
    path.write_text("x1,y\n1.0,1.0\n")
    with pytest.raises(MissingColumn):
        ingest_csv(str(path))
    path.write_text("u,x1\n0.5,1.0\n")
    with pytest.raises(MissingColumn, match="'y'"):
        ingest_csv(str(path))


def test_column_named_twice(tmp_path):
    # the last column of a name would win: u from column 4 here
    path = tmp_path / "d.csv"
    for header, name in (("u,x1,y,u", "u"), ("u,x1,y,y", "y"), ("u,x1,x1,y", "x1")):
        path.write_text(f"{header}\n0.5,1.0,2.0,0.7\n")
        with pytest.raises(DataError, match=f"'{name}'"):
            ingest_csv(str(path))


def test_bad_rows_reported_with_line_numbers(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("u,x1,y\n0.5,1.0,1.0\n0.6,oops,2.0\n0.7,1.0,inf\n")
    with pytest.raises(ParseError) as err:
        ingest_csv(str(path))
    assert "3" in str(err.value) and "4" in str(err.value)


def test_rows_with_the_wrong_field_count_reported(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("u,x1,y\n0.5,1.0,1.0\n0.6,1.0\n0.7,1.0,2.0,9.0\n0.8,1.0,3.0\n")
    with pytest.raises(ParseError, match=r"lines \[3, 4\]"):
        ingest_csv(str(path))


def test_empty_inputs(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("")
    with pytest.raises(EmptyFile):
        ingest_csv(str(path))
    path.write_text("u,x1,y\n")
    with pytest.raises(EmptyFile):
        ingest_csv(str(path))
    with pytest.raises(EmptyFile):
        ingest_csv(str(tmp_path / "missing.csv"))


def test_blank_lines_skipped(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("u,x1,y\n0.5,1.0,1.0\n\n0.7,2.0,3.0\n")
    assert ingest_csv(str(path)).n == 2
