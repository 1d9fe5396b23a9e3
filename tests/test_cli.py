import json

import pytest

from subsage.cli import main
from subsage.dataset import load_csv, write_csv

from conftest import random_dataset


def run(args):
    return main([str(a) for a in args])


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
