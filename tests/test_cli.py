import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import subsage
from subsage.cli import main
from subsage.dataset import load_csv, write_csv

from conftest import random_dataset


def run(args):
    return main([str(a) for a in args])


def test_cli_import_skips_scipy_stats():
    """Every CLI start pays the import, and scipy.stats alone takes about
    0.6 s of it; the normal cdf and quantile come from scipy.special."""
    src = Path(subsage.__file__).resolve().parents[1]
    code = "import sys, subsage.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


@pytest.fixture
def small_pipeline(tmp_path, rng):
    """A tiny simulate/train setup shared by rank and subsage tests."""
    out = tmp_path / "sim"
    assert run(["simulate", "--n", 400, "--seed", 5, "--out-dir", out]) == 0
    data_csv = out / "synthetic.csv"
    model_path = tmp_path / "model.json"
    assert (
        run(
            [
                "train", "--train", data_csv, "--valid", data_csv,
                "--loss", "squared", "--rounds", 25, "--eta", "0.3",
                "--seed", 3, "--out", model_path,
            ]
        )
        == 0
    )
    return data_csv, model_path


class TestSimulate:
    def test_writes_csv_and_sidecar(self, tmp_path):
        out = tmp_path / "sim"
        assert run(["simulate", "--n", 50, "--seed", 7, "--out-dir", out]) == 0
        data = load_csv(out / "synthetic.csv", response="y")
        assert data.n_rows == 50
        assert data.n_cols == 100
        sidecar = json.loads((out / "synthetic_config.json").read_text())
        assert sidecar["n"] == 50
        assert sidecar["seed"] == 7
        assert sidecar["a0"] == -0.5

    def test_rerun_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["simulate", "--n", 30, "--seed", 9, "--out-dir", out]) == 0
        assert (a / "synthetic.csv").read_bytes() == (b / "synthetic.csv").read_bytes()
        assert (
            a / "synthetic_config.json"
        ).read_bytes() == (b / "synthetic_config.json").read_bytes()

    def test_zero_rows_usage_error(self, tmp_path, capsys):
        assert run(["simulate", "--n", 0, "--out-dir", tmp_path]) == 1
        assert "usage error" in capsys.readouterr().err
        assert run(["--threads", 2, "simulate", "--n", 5, "--out-dir", tmp_path]) == 1
        assert "usage error" in capsys.readouterr().err


class TestTrainCommand:
    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = run(
            ["train", "--train", tmp_path / "no.csv", "--valid", tmp_path / "no.csv",
             "--out", tmp_path / "m.json"]
        )
        assert code == 2

    def test_nan_lambda_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert run(["simulate", "--n", 40, "--seed", 2, "--out-dir", out]) == 0
        data_csv = out / "synthetic.csv"
        code = run(
            ["train", "--train", data_csv, "--valid", data_csv, "--lambda", "nan",
             "--out", tmp_path / "m.json"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "reg_lambda" in err
        assert "Traceback" not in err
        assert not (tmp_path / "m.json").exists()

    def test_writes_model(self, small_pipeline):
        from subsage.tree_model import load_model

        _, model_path = small_pipeline
        model = load_model(model_path)
        assert model.n_trees == 25


@pytest.mark.parametrize("command, flags, field", [
    ("simulate", ["--seed", "-1"], "seed"),
    ("simulate", ["--noise-seed", "-3"], "noise_seed"),
    ("simulate", ["--sigma-eps", "-1"], "sigma_eps"),
    ("simulate", ["--sigma-eps", "nan"], "sigma_eps"),
    ("train", ["--seed", "-2"], "seed"),
    ("subsage", ["--seed", "-4"], "seed"),
])
def test_bad_seed_or_scale_is_data_error(tmp_path, capsys, command, flags, field):
    data_csv, model, out = tmp_path / "synthetic.csv", tmp_path / "model.json", tmp_path / "out"
    if command != "simulate":
        assert run(["simulate", "--n", 40, "--seed", 1, "--out-dir", tmp_path]) == 0
        assert run(["train", "--train", data_csv, "--valid", data_csv, "--rounds", 2,
                    "--out", model]) == 0
    argv = {
        "simulate": ["simulate", "--n", 40, "--out-dir", out],
        "train": ["train", "--train", data_csv, "--valid", data_csv, "--out", out],
        "subsage": ["subsage", "--model", model, "--test", data_csv, "--feature", "x1",
                    "--bootstrap", 4, "--alpha", "0.25", "--out", out],
    }[command]
    capsys.readouterr()
    assert run(["--quiet", *argv, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be")
    assert "Traceback" not in err
    assert not out.exists()


class TestRank:
    def test_outputs_requested_rows(self, small_pipeline, capsys):
        data_csv, model_path = small_pipeline
        assert run(["rank", "--model", model_path, "--data", data_csv, "--top", 3]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "feature_name,kappa"
        assert len(lines) == 4
        name, kappa = lines[1].split(",")
        assert name.startswith("x")
        assert float(kappa) >= float(lines[2].split(",")[1])

    def test_unused_feature_scores_zero(self, small_pipeline, capsys):
        data_csv, model_path = small_pipeline
        assert run(
            ["rank", "--model", model_path, "--data", data_csv, "--top", 100]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        from subsage.tree_model import load_model

        used = {
            f for t in load_model(model_path).trees for f in t.feature_set
        }
        scores = {line.split(",")[0]: float(line.split(",")[1]) for line in lines}
        for idx in set(range(100)) - used:
            assert scores[f"x{idx + 1}"] == 0.0


class TestModelErrors:
    def test_impossible_probability_is_data_error(self, tmp_path, rng, capsys):
        data = tmp_path / "data.csv"
        write_csv(random_dataset(rng, 10, 3), data)
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "version": 1, "n_features": 3, "objective": "regression", "base_score": 0.0,
            "trees": [{"nodes": [
                {"id": 1, "feature": 0, "threshold": 0.0, "left": 2, "right": 3,
                 "prob_left": 5.0},
                {"id": 2, "leaf": -1.0},
                {"id": 3, "leaf": 1.0},
            ]}],
        }))
        assert run(["rank", "--model", model, "--data", data]) == 2
        err = capsys.readouterr().err
        assert f"{model}: tree 0: node 1: prob_left 5.0" in err
        assert "Traceback" not in err

    def test_deeply_nested_model_is_data_error(self, tmp_path, rng, capsys):
        data = tmp_path / "data.csv"
        write_csv(random_dataset(rng, 10, 3), data)
        model = tmp_path / "model.json"
        model.write_text("[" * 100000)
        assert run(["rank", "--model", model, "--data", data]) == 2
        assert f"{model}: JSON nested too deeply" in capsys.readouterr().err

    def test_deeply_nested_dump_is_data_error(self, tmp_path, capsys):
        # A depth-1200 chain dump: each branch's children are a leaf and the
        # next branch. json.dumps would recurse too, so the text is built here.
        depth = 1200
        text = "".join(
            f'{{"nodeid": {2 * i}, "split": "f0", "split_condition": {i}.5, '
            f'"yes": {2 * i + 1}, "no": {2 * i + 2}, '
            f'"children": [{{"nodeid": {2 * i + 1}, "leaf": {i}.0}}, '
            for i in range(depth)
        )
        dump = tmp_path / "dump.json"
        dump.write_text(f'[{text}{{"nodeid": {2 * depth}, "leaf": -1.0}}' + "]}" * depth + "]")
        assert run(["convert", "--in", dump, "--out", tmp_path / "m.json"]) == 2
        assert f"{dump}: JSON nested too deeply" in capsys.readouterr().err


def _stump_doc():
    return {
        "version": 1, "n_features": 3, "objective": "regression", "base_score": 0.0,
        "trees": [{"nodes": [
            {"id": 1, "feature": 0, "threshold": 0.0, "left": 2, "right": 3},
            {"id": 2, "leaf": -1.0},
            {"id": 3, "leaf": 1.0},
        ]}],
    }


def _node(i, **fields):
    return lambda doc: doc["trees"][0]["nodes"][i].update(fields)


class TestTypedModelFields:
    """Wrongly typed model and dump fields end in exit code 2 with a
    message naming the file and, where they exist, the tree and the node."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (_node(0, threshold="abc"), "tree 0: node 1: threshold must be a number, got 'abc'"),
            (_node(1, leaf="abc"), "tree 0: node 2: leaf must be a number, got 'abc'"),
            (_node(0, prob_left="0.5"), "tree 0: node 1: prob_left must be a number, got '0.5'"),
            (_node(0, left=True), "tree 0: node 1: left must be an integer, got True"),
            (_node(0, threshold=10**400), "tree 0: node 1: threshold 1" + "0" * 400 + " is out of range"),
            (_node(0, id="1"), "tree 0: id must be an integer, got '1'"),
            (lambda doc: doc.update(n_features="x"), "n_features must be an integer, got 'x'"),
            (lambda doc: doc.update(base_score=[0]), "base_score must be a number, got [0]"),
            (lambda doc: doc.update(trees=5), "trees must be a list"),
            (lambda doc: doc.update(trees=[5]), "tree 0 missing 'nodes'"),
            (lambda doc: doc["trees"][0].update(nodes=3), "tree 0: nodes must be a list"),
            (lambda doc: doc["trees"][0]["nodes"].append(7), "tree 0: malformed node record: 7"),
        ],
        ids=["threshold", "leaf", "prob_left", "bool_child", "huge_threshold", "id",
             "n_features", "base_score", "trees", "tree", "nodes", "node"],
    )
    def test_model(self, tmp_path, rng, capsys, edit, message):
        data = tmp_path / "data.csv"
        write_csv(random_dataset(rng, 10, 3), data)
        doc = _stump_doc()
        edit(doc)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        assert run(["rank", "--model", model, "--data", data]) == 2
        assert capsys.readouterr().err == f"error: {model}: {message}\n"
        assert run(["subsage", "--model", model, "--test", data, "--feature", "x0",
                    "--bootstrap", 20, "--alpha", 0.1, "--out", tmp_path / "r.json"]) == 2
        assert capsys.readouterr().err == f"error: {model}: {message}\n"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda root: root.update(nodeid="0"), "tree 0: nodeid must be an integer, got '0'"),
            (lambda root: root["children"][1].update(leaf="abc"),
             "tree 0: node 2: leaf must be a number, got 'abc'"),
            (lambda root: root.update(split_condition="0.5"),
             "tree 0: node 0: split_condition must be a number, got '0.5'"),
            (lambda root: root.update(yes=1.0), "tree 0: node 0: yes must be an integer, got 1.0"),
            (lambda root: root.update(no=None), "tree 0: node 0: no must be an integer, got None"),
            (lambda root: root.update(children=5), "tree 0: node 0: children must be a list, got 5"),
            (lambda root: root.update(split=True),
             "tree 0: node 0: cannot map split feature True to an index"),
        ],
        ids=["nodeid", "leaf", "split_condition", "yes", "no", "children", "split"],
    )
    def test_dump(self, tmp_path, capsys, edit, message):
        root = {
            "nodeid": 0, "split": "f0", "split_condition": 0.5, "yes": 1, "no": 2,
            "children": [{"nodeid": 1, "leaf": -1.0}, {"nodeid": 2, "leaf": 1.0}],
        }
        edit(root)
        dump = tmp_path / "dump.json"
        dump.write_text(json.dumps([root]))
        assert run(["convert", "--in", dump, "--out", tmp_path / "m.json"]) == 2
        assert capsys.readouterr().err == f"error: {dump}: {message}\n"


class TestSubsageCommand:
    def test_report_for_unused_feature(self, small_pipeline, tmp_path, capsys):
        data_csv, model_path = small_pipeline
        from subsage.tree_model import load_model

        used = {f for t in load_model(model_path).trees for f in t.feature_set}
        unused = sorted(set(range(100)) - used)[0]
        report = tmp_path / "report.json"
        code = run(
            [
                "subsage", "--model", model_path, "--test", data_csv,
                "--feature", f"x{unused + 1}", "--loss", "squared",
                "--bootstrap", 12, "--alpha", "0.1", "--seed", 4,
                "--out", report,
            ]
        )
        assert code == 0
        docs = json.loads(report.read_text())
        assert len(docs) == 1
        doc = docs[0]
        assert doc["feature"] == f"x{unused + 1}"
        assert doc["psi_hat"] == 0.0
        assert doc["percentile"] == [0.0, 0.0]
        assert doc["B"] == 12
        assert "draws" not in doc

    def test_emit_draws_and_hist(self, small_pipeline, tmp_path):
        data_csv, model_path = small_pipeline
        report = tmp_path / "report.json"
        hist = tmp_path / "draws.csv"
        code = run(
            [
                "subsage", "--model", model_path, "--test", data_csv,
                "--feature", "x6", "--feature", "x1",
                "--bootstrap", 8, "--alpha", "0.2", "--seed", 1,
                "--emit-draws", "--hist-csv", hist, "--bca", "zero",
                "--out", report,
            ]
        )
        assert code == 0
        docs = json.loads(report.read_text())
        assert [d["feature"] for d in docs] == ["x6", "x1"]
        assert all(len(d["draws"]) == 8 for d in docs)
        assert all(d["bca"] is not None for d in docs)
        lines = hist.read_text().strip().splitlines()
        assert lines[0] == "feature,iteration,value"
        assert len(lines) == 1 + 2 * 8

    def test_warns_when_test_is_train(self, small_pipeline, tmp_path, capsys):
        data_csv, model_path = small_pipeline
        code = run(
            [
                "subsage", "--model", model_path, "--test", data_csv,
                "--train-path", data_csv, "--feature", "x1",
                "--bootstrap", 5, "--alpha", "0.25", "--seed", 0,
                "--out", tmp_path / "r.json",
            ]
        )
        assert code == 0
        assert "warning" in capsys.readouterr().err

    def test_unknown_feature_is_data_error(self, small_pipeline, tmp_path, capsys):
        data_csv, model_path = small_pipeline
        code = run(
            [
                "subsage", "--model", model_path, "--test", data_csv,
                "--feature", "nope", "--bootstrap", 5, "--alpha", "0.25",
                "--out", tmp_path / "r.json",
            ]
        )
        assert code == 2
        assert "unknown feature" in capsys.readouterr().err


class TestConvert:
    def test_round_trip(self, tmp_path, rng):
        from test_tree_model import dump_xgb_json
        from subsage.tree_model import load_model, predict_margin

        data = random_dataset(rng, 40, 5)
        from conftest import random_ensemble

        ens = random_ensemble(rng, data, 4, 2)
        dump = tmp_path / "dump.json"
        dump.write_text(json.dumps(dump_xgb_json(ens)))
        native = tmp_path / "native.json"
        assert run(["convert", "--in", dump, "--out", native, "--n-features", 5]) == 0
        model = load_model(native)
        x = data.columns[:, 0]
        assert predict_margin(model, x) == predict_margin(ens, x)

    def test_bad_dump_is_data_error(self, tmp_path):
        dump = tmp_path / "dump.json"
        dump.write_text("[]")
        assert run(["convert", "--in", dump, "--out", tmp_path / "m.json"]) == 2
