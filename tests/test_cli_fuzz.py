"""Corrupted model, dump and CSV files through the command line.

Each valid file is cut short at seeded offsets or has a few bytes replaced
by seeded random bytes. Every ``rank``, ``subsage`` and ``convert`` run on
a corrupted copy must return exit code 0, 1 or 2 with no exception
escaping ``main``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from subsage.cli import main
from subsage.dataset import write_csv
from subsage.tree_model import write_model

from conftest import random_dataset, random_ensemble
from test_tree_model import dump_xgb_json

CASES = 60


def corrupted(data: bytes, seed: int) -> bytes:
    """``data`` cut at a seeded offset (seeds 0 mod 3), or with one to
    three bytes replaced by seeded random bytes (1 mod 3) or by printable
    ASCII, which keeps the text decodable (2 mod 3)."""
    rng = np.random.default_rng([seed, len(data)])
    if seed % 3 == 0:
        return data[: rng.integers(0, len(data))]
    low, high = (0, 256) if seed % 3 == 1 else (32, 127)
    out = bytearray(data)
    for pos in rng.integers(0, len(data), size=rng.integers(1, 4)):
        out[pos] = rng.integers(low, high)
    return bytes(out)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    rng = np.random.default_rng(11)
    root = tmp_path_factory.mktemp("fuzz")
    data = random_dataset(rng, 30, 4)
    ens = random_ensemble(rng, data, 3, 2)
    write_csv(data, root / "data.csv")
    write_model(ens, root / "model.json")
    (root / "dump.json").write_text(json.dumps(dump_xgb_json(ens), indent=1))
    return root


def run(args) -> int:
    code = main([str(a) for a in args])
    assert code in (0, 1, 2), f"exit code {code} for {args}"
    return code


def rank(model, data):
    return ["--quiet", "rank", "--model", model, "--data", data]


def subsage(model, data, out):
    return ["--quiet", "subsage", "--model", model, "--test", data,
            "--feature", "x1", "--bootstrap", 20, "--alpha", 0.1, "--out", out]


@pytest.mark.parametrize("seed", range(CASES))
def test_corrupted_model(files, tmp_path, seed, capsys):
    model = tmp_path / "model.json"
    model.write_bytes(corrupted((files / "model.json").read_bytes(), seed))
    data = files / "data.csv"
    run(rank(model, data))
    run(subsage(model, data, tmp_path / "report.json"))
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("seed", range(CASES))
def test_corrupted_csv(files, tmp_path, seed, capsys):
    data = tmp_path / "data.csv"
    data.write_bytes(corrupted((files / "data.csv").read_bytes(), seed))
    model = files / "model.json"
    run(rank(model, data))
    run(subsage(model, data, tmp_path / "report.json"))
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("seed", range(CASES))
def test_corrupted_dump(files, tmp_path, seed, capsys):
    dump = tmp_path / "dump.json"
    dump.write_bytes(corrupted((files / "dump.json").read_bytes(), seed))
    run(["--quiet", "convert", "--in", dump, "--out", tmp_path / "model.json",
         "--n-features", 4])
    assert "Traceback" not in capsys.readouterr().err
