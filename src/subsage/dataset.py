"""Typed tabular data: columnar container, CSV I/O, deterministic splitting
and resampling, and empirical threshold probabilities.

Data is stored column-major because every downstream consumer (probability
annotation, conditional expectations, bootstrap counting passes) streams
single feature columns. Datasets are immutable after construction and safe
to share across threads; resampling always materializes a fresh replicate.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError


class FeatureKind(Enum):
    """Generative family of a feature column.

    The kind affects only validation and synthetic generation; tree
    traversal treats every column as a float.
    """

    CONTINUOUS = "continuous"
    ORDINAL_COUNT = "ordinal-count"
    BINARY_COUNT = "binary-count"

    def validate(self, value: float, where: str) -> None:
        if self is FeatureKind.CONTINUOUS:
            return
        if value < 0 or value != math.floor(value):
            raise InputError(
                f"{where}: {self.value} feature requires a non-negative "
                f"integer, got {value!r}"
            )
        if self is FeatureKind.BINARY_COUNT and value > 1:
            raise InputError(
                f"{where}: binary-count feature must be 0 or 1, got {value!r}"
            )


def check_seed(seed: int, name: str = "seed") -> None:
    """Reject a seed that numpy's generators do not take."""
    if seed < 0:
        raise InputError(f"{name} must be non-negative, got {seed}")


def _check_finite(table: np.ndarray, where) -> None:
    """Reject the first NaN or +-inf of a 2-D array in row-major order,
    naming it by ``where(i, j)``."""
    finite = np.isfinite(table)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise InputError(
            f"{where(i, j)}: {table[i, j]} is not finite (missing values "
            "and infinities are not supported)"
        )


@dataclass(frozen=True)
class Dataset:
    """Immutable column-typed feature matrix with a response vector.

    ``columns`` has shape (M, N): one row per feature, matching the
    column-major access pattern of the estimators.
    """

    feature_names: tuple[str, ...]
    columns: np.ndarray
    kinds: tuple[FeatureKind, ...]
    response: np.ndarray

    def __post_init__(self):
        cols = np.ascontiguousarray(np.asarray(self.columns, dtype=np.float64))
        resp = np.ascontiguousarray(np.asarray(self.response, dtype=np.float64))
        if cols.ndim != 2:
            raise InputError("columns must be a 2-D (M, N) array")
        m, n = cols.shape
        if len(self.feature_names) != m or len(self.kinds) != m:
            raise InputError("feature_names/kinds length must match column count")
        if resp.shape != (n,):
            raise InputError(
                f"response length {resp.shape} does not match {n} rows"
            )
        _check_finite(cols, lambda j, i: f"column {self.feature_names[j]!r}, row index {i}")
        _check_finite(resp[None], lambda _, i: f"response, row index {i}")
        cols.setflags(write=False)
        resp.setflags(write=False)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "response", resp)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "kinds", tuple(self.kinds))

    @property
    def n_rows(self) -> int:
        return self.columns.shape[1]

    @property
    def n_cols(self) -> int:
        return self.columns.shape[0]

    def column(self, k: int) -> np.ndarray:
        return self.columns[k]

    def feature_index(self, name: str) -> int:
        try:
            return self.feature_names.index(name)
        except ValueError:
            raise InputError(f"unknown feature name {name!r}") from None

    def take_rows(self, rows: np.ndarray) -> "Dataset":
        return Dataset(
            self.feature_names,
            self.columns[:, rows],
            self.kinds,
            self.response[rows],
        )


@dataclass(frozen=True)
class ResampleIndex:
    """A with-replacement draw of row indices, fully determined by
    (seed, iteration)."""

    indices: np.ndarray
    seed: int
    iteration: int

    @classmethod
    def draw(cls, n_rows: int, seed: int, iteration: int) -> "ResampleIndex":
        rng = np.random.default_rng([seed, iteration])
        idx = rng.integers(0, n_rows, size=n_rows)
        idx.setflags(write=False)
        return cls(indices=idx, seed=seed, iteration=iteration)


def _scan_rows(path: Path, response: str) -> tuple[list[str], np.ndarray]:
    """Header and (rows, columns) float table of a CSV, read row by row
    with ``csv.reader`` and ``float``. Anything wrong raises an
    ``InputError``; a bad row or cell is named by its 1-based file row and
    its column."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise InputError(f"{path}: empty file")
            if response not in header:
                raise InputError(f"{path}: missing response column {response!r}")
            rows: list[list[float]] = []
            for lineno, rec in enumerate(reader, start=2):
                if len(rec) != len(header):
                    raise InputError(
                        f"{path}: row {lineno} has {len(rec)} cells, "
                        f"expected {len(header)}"
                    )
                parsed = []
                for name, cell in zip(header, rec):
                    try:
                        parsed.append(float(cell))
                    except ValueError:
                        raise InputError(
                            f"{path}: parse error at row {lineno}, "
                            f"column {name!r}: {cell!r}"
                        ) from None
                rows.append(parsed)
        except csv.Error as exc:
            raise InputError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            raise _undecodable(path) from None
    if not rows:
        raise InputError(f"{path}: no data rows")
    return header, np.asarray(rows, dtype=np.float64)


def _undecodable(path: Path) -> InputError:
    """Error naming the first line of a CSV that is not UTF-8, and the byte
    offset in the file. The text layer decodes blocks ahead of the reader,
    so only a re-read of the bytes can place the error."""
    offset = 0
    for lineno, raw in enumerate(path.read_bytes().splitlines(keepends=True), start=1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            return InputError(
                f"{path}: line {lineno}: not utf-8 text "
                f"({exc.reason} at byte offset {offset + exc.start})"
            )
        offset += len(raw)
    return InputError(f"{path}: not utf-8 text")


def _parse_fast(path: Path, response: str) -> tuple[list[str], np.ndarray] | None:
    """Header and (rows, columns) float table of a CSV, or None where
    ``_scan_rows`` must decide. The header is read with ``csv.reader``, the
    body by numpy's C reader streaming lines from the open file.

    ``loadtxt`` rounds as ``float`` does, but it skips blank lines and
    rejects ``1_0``, quoted cells and non-ASCII digits. So a body is taken
    only if it parses and gives one row per line, each as wide as the
    header; ``load_csv`` sends any error to the scanner.
    """
    with path.open(newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), [])
        first = next(fh, "")
        if response not in header or not first.strip():
            return None  # the scanner names what is missing or blank
        lines = 1

        def body():
            nonlocal lines
            yield first
            for lines, line in enumerate(fh, start=2):
                yield line

        table = np.loadtxt(body(), delimiter=",", comments=None,
                           dtype=np.float64, ndmin=2)
    return (header, table) if table.shape == (lines, len(header)) else None


def load_csv(
    path: str | Path,
    response: str,
    kinds: Mapping[str, FeatureKind] | None = None,
) -> Dataset:
    """Read a numeric, comma-separated, header-first CSV into a Dataset.

    ``kinds`` maps feature names to their kind; unlisted features are
    continuous. Parse failures report the 1-based file row and the column
    name. The response column is removed from the feature set.

    The body is parsed by numpy's C reader; a file that reader does not
    take as it is goes to the row scanner, which returns the same table
    or names the first bad row and column.
    """
    path = Path(path)
    try:
        found = _parse_fast(path, response)
    except (ValueError, csv.Error):  # a UnicodeDecodeError is a ValueError
        found = None
    header, table = found or _scan_rows(path, response)
    _check_finite(table, lambda i, j: f"{path}: row {i + 2}, column {header[j]!r}")
    table = table.T
    y_pos = header.index(response)
    feat_idx = [i for i in range(len(header)) if i != y_pos]
    names = tuple(header[i] for i in feat_idx)
    kinds = dict(kinds or {})
    unknown = set(kinds) - set(names)
    if unknown:
        raise InputError(f"{path}: kinds given for unknown columns {sorted(unknown)}")
    kind_tuple = tuple(kinds.get(n, FeatureKind.CONTINUOUS) for n in names)
    for j, (name, kind) in enumerate(zip(names, kind_tuple)):
        if kind is not FeatureKind.CONTINUOUS:
            col = table[feat_idx[j]]
            for i, v in enumerate(col):
                kind.validate(v, f"{path}: row {i + 2}, column {name!r}")
    return Dataset(names, table[feat_idx], kind_tuple, table[y_pos])


WRITE_CHUNK_ROWS = 1024


def write_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a Dataset as UTF-8 CSV with shortest round-trip float formatting,
    the response last in a column named ``y``.

    Rows are formatted a block of ``WRITE_CHUNK_ROWS`` at a time, so the
    Python floats of only one block are alive at once.
    """
    path = Path(path)
    cols, resp = dataset.columns, dataset.response
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join([*dataset.feature_names, "y"]) + "\n")
        for i in range(0, dataset.n_rows, WRITE_CHUNK_ROWS):
            block = cols[:, i : i + WRITE_CHUNK_ROWS].T.tolist()
            for row, y in zip(block, resp[i : i + WRITE_CHUNK_ROWS].tolist()):
                row.append(y)
                fh.write(",".join(map(repr, row)) + "\n")


def split(
    dataset: Dataset,
    fractions: tuple[float, float, float],
    seed: int,
) -> tuple[Dataset, Dataset, Dataset]:
    """Partition rows into three disjoint datasets.

    Row ids are shuffled with a seeded generator and cut at the fraction
    boundaries; leftover rows (from flooring) go to the earliest fractions.
    """
    if not all(f > 0 for f in fractions):  # NaN is not positive either
        raise InputError("split fractions must be positive")
    if abs(sum(fractions) - 1.0) > 1e-12:
        raise InputError(f"split fractions must sum to 1, got {sum(fractions)}")
    check_seed(seed)
    n = dataset.n_rows
    sizes = [int(n * f) for f in fractions]
    for i in range(n - sum(sizes)):
        sizes[i % 3] += 1
    perm = np.random.default_rng(seed).permutation(n)
    out = []
    start = 0
    for size in sizes:
        rows = np.sort(perm[start : start + size])
        out.append(dataset.take_rows(rows))
        start += size
    return out[0], out[1], out[2]


def resample(dataset: Dataset, idx: ResampleIndex) -> Dataset:
    """Materialize the bootstrap replicate selected by ``idx``."""
    indices = np.asarray(idx.indices)
    if len(indices) != dataset.n_rows:
        raise InputError(
            f"resample index length {len(indices)} != {dataset.n_rows} rows"
        )
    if indices.min(initial=0) < 0 or indices.max(initial=0) >= dataset.n_rows:
        raise InputError("resample index out of range")
    return dataset.take_rows(indices)


def empirical_prob_below(column: np.ndarray | Sequence[float], t: float) -> float:
    """Fraction of values strictly below ``t``.

    Strict ``<`` matches the repo-wide split convention (values equal to a
    threshold route right).
    """
    col = np.asarray(column, dtype=np.float64)
    if col.size == 0:
        raise InputError("empirical_prob_below: empty column")
    return float(np.count_nonzero(col < t)) / col.size


def concat_rows(a: Dataset, b: Dataset) -> Dataset:
    """Stack two datasets with identical schemas row-wise."""
    if a.feature_names != b.feature_names or a.kinds != b.kinds:
        raise InputError("concat_rows: schemas differ")
    return Dataset(
        a.feature_names,
        np.concatenate([a.columns, b.columns], axis=1),
        a.kinds,
        np.concatenate([a.response, b.response]),
    )
