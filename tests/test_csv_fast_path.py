"""CSV reading and writing against the per-cell code they replace.

``load_csv`` parses a body with numpy's C reader and leaves any file that
reader does not take as it is to ``_scan_rows``, the row scanner. Whatever
the body holds, the result must be what the scanner alone gives: the same
table bit for bit, or the same error message. ``write_csv`` must write the
bytes of the per-cell writer kept here as an oracle.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsage import dataset
from subsage.dataset import Dataset, FeatureKind, load_csv, write_csv
from subsage.errors import InputError

ODD_CELLS = [
    "nan", "-nan", "inf", "-inf", "Infinity", "1e999", "-0", "1_0", "0x10",
    " 1.5 ", "\t2", "3 ", '"4"', '"5,6"', "#7", "# c", "", " ", "1e5", ".5",
    "5.", "+1", "1d5", "١", "1 ", "\x0c8",
]

cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(ODD_CELLS),
)


@st.composite
def csv_texts(draw):
    width = draw(st.integers(1, 4))
    header = [f"x{j}" for j in range(width - 1)] + ["y"]
    lines = [",".join(header)]
    odd = draw(st.booleans())
    for _ in range(draw(st.integers(0, 6))):
        n_cells = width
        if odd and draw(st.integers(0, 9)) == 0:
            n_cells = draw(st.sampled_from([max(width - 1, 0), width + 1]))
        cell = cells if odd else st.floats(allow_nan=False, allow_infinity=False).map(repr)
        lines.append(",".join(draw(st.lists(cell, min_size=n_cells, max_size=n_cells))))
        if odd and draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", "  \t "])))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = ending.join(lines)
    if draw(st.booleans()):
        text += ending
    return text


def outcome(path: Path):
    """The loaded Dataset, or the message of the InputError."""
    try:
        return load_csv(path, response="y")
    except InputError as exc:
        return str(exc)


def assert_same(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert got.feature_names == want.feature_names
    assert got.columns.tobytes() == want.columns.tobytes()
    assert got.response.tobytes() == want.response.tobytes()


@pytest.mark.filterwarnings("error")  # loadtxt warns on a body with no rows
@settings(max_examples=400, deadline=None)
@given(csv_texts())
def test_load_csv_equals_row_scanner(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        got = outcome(path)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataset, "_parse_fast", lambda *args: None)
            want = outcome(path)
        assert_same(got, want)

        try:
            fast = dataset._parse_fast(path, "y")
        except ValueError:
            fast = None
        if fast is not None:
            header, table = dataset._scan_rows(path, "y")
            assert fast[0] == header
            assert fast[1].shape == table.shape
            assert fast[1].tobytes() == table.tobytes()


def test_clean_file_takes_fast_path(tmp_path, rng):
    data = Dataset(("a", "b"), rng.normal(size=(2, 50)), (FeatureKind.CONTINUOUS,) * 2,
                   rng.normal(size=50))
    path = tmp_path / "data.csv"
    write_csv(data, path)
    header, table = dataset._parse_fast(path, "y")
    assert header == ["a", "b", "y"]
    assert table.shape == (50, 3)
    assert_same(load_csv(path, response="y"), data)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("a,y\n1,2\n\n", "row 3 has 0 cells, expected 2"),
        ("a,y\n\n1,2\n", "row 2 has 0 cells, expected 2"),
        ("a,y\n1,2\n  \n", "row 3 has 1 cells, expected 2"),
        ("a,y\n1,2\n3\n", "row 3 has 1 cells, expected 2"),
    ],
)
def test_scanner_names_what_the_fast_path_skips(tmp_path, text, expected):
    path = tmp_path / "data.csv"
    path.write_text(text)
    assert outcome(path) == f"{path}: {expected}"


@pytest.mark.parametrize(
    "body", ["1_0,2\n", '"10",2\n', "10,2\r", "١٠,2\n", " 10 ,2\r\n"]
)
def test_text_float_reads_comes_out_the_same(tmp_path, body):
    path = tmp_path / "data.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("a,y\n" + body)
    data = load_csv(path, response="y")
    assert data.columns.tolist() == [[10.0]]
    assert data.response.tolist() == [2.0]


def test_undecodable_bytes_are_an_input_error(tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(b"a,y\n1,2\n\xff,3\n")
    with pytest.raises(InputError, match=f"{path}: not utf-8 text \\(invalid start byte\\)"):
        load_csv(path, response="y")


def oracle_write_csv(data: Dataset, path: Path, response: str = "y") -> None:
    """The per-cell writer ``write_csv`` replaced."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join([*data.feature_names, response]) + "\n")
        cols = [c.tolist() for c in data.columns]
        resp = data.response.tolist()
        for i in range(data.n_rows):
            cells = [repr(col[i]) for col in cols]
            cells.append(repr(resp[i]))
            fh.write(",".join(cells) + "\n")


@st.composite
def datasets(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    values = st.floats(allow_nan=False, allow_infinity=False)
    cols = np.array(draw(st.lists(st.lists(values, min_size=n, max_size=n),
                                  min_size=m, max_size=m)))
    y = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    return Dataset(tuple(f"x{j}" for j in range(m)), cols, (FeatureKind.CONTINUOUS,) * m, y)


@settings(max_examples=200, deadline=None)
@given(datasets(), st.integers(1, 5))
def test_write_csv_bytes_equal_per_cell_writer(data, chunk):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "WRITE_CHUNK_ROWS", chunk)
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        write_csv(data, got)
        oracle_write_csv(data, want)
        assert got.read_bytes() == want.read_bytes()
        assert_same(load_csv(got, response="y"), data)


def test_write_csv_across_default_chunks(tmp_path, rng):
    n = 2 * dataset.WRITE_CHUNK_ROWS + 5
    data = Dataset(("a",), rng.normal(size=(1, n)), (FeatureKind.CONTINUOUS,), rng.normal(size=n))
    write_csv(data, tmp_path / "got.csv")
    oracle_write_csv(data, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
