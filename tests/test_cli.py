import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import subsage
from subsage.cli import main
from subsage.dataset import Dataset, FeatureKind, load_csv, write_csv
from subsage.tree_model import Ensemble, write_model

from conftest import make_stump, random_dataset


def run(args):
    return main([str(a) for a in args])


def _run_python(code, *args):
    src = Path(subsage.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, args)], env=env, capture_output=True, text=True
    )


def test_cli_import_loads_no_scipy():
    """Every CLI start pays the import; the normal cdf and quantile come
    from the stdlib, so no scipy module (and no second BLAS) is loaded."""
    code = "import sys, subsage.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = _run_python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_cli_runs_without_scipy(tmp_path):
    """simulate, train, rank and subsage --bca jackknife all exit 0 when
    scipy cannot be imported at all."""
    code = (
        "import sys; sys.modules['scipy'] = None; from subsage.cli import main; "
        "sys.exit(main(sys.argv[1:]))"
    )
    data = tmp_path / "synthetic.csv"
    model = tmp_path / "model.json"
    sim = _run_python(code, "simulate", "--n", 60, "--seed", 5, "--out-dir", tmp_path)
    assert sim.returncode == 0, sim.stderr
    train = _run_python(code, "train", "--train", data, "--valid", data, "--rounds", 5,
                        "--eta", "0.3", "--seed", 3, "--out", model)
    assert train.returncode == 0, train.stderr
    rank = _run_python(code, "rank", "--model", model, "--data", data, "--top", 1)
    assert rank.returncode == 0, rank.stderr
    top = rank.stdout.strip().splitlines()[1].split(",")[0]
    report = tmp_path / "report.json"
    sg = _run_python(code, "subsage", "--model", model, "--test", data, "--feature", top,
                     "--bootstrap", 20, "--alpha", "0.1", "--bca", "jackknife", "--seed", 1,
                     "--out", report)
    assert sg.returncode == 0, sg.stderr
    (doc,) = json.loads(report.read_text())
    assert doc["bca"] is not None and doc["a"] is not None


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

    @pytest.mark.parametrize("header, name", [("x1,y,y", "y"), ("x1,x1,y", "x1")])
    def test_duplicate_column_is_data_error(self, tmp_path, capsys, header, name):
        data_csv = tmp_path / "dup.csv"
        data_csv.write_text(f"{header}\n1,2,3\n4,5,6\n")
        model = tmp_path / "m.json"
        code = run(["train", "--train", data_csv, "--valid", data_csv, "--out", model])
        assert code == 2
        assert capsys.readouterr().err == f"error: {data_csv}: duplicate column name {name!r}\n"
        assert not model.exists()

    def test_numerical_error_exits_3(self, tmp_path, capsys):
        # Responses near 1e200 square past the float range in a split gain.
        data_csv = tmp_path / "huge.csv"
        rows = [f"{i % 5},{(-1) ** i * (1 + i) * 1e200!r}" for i in range(20)]
        data_csv.write_text("x1,y\n" + "\n".join(rows) + "\n")
        model = tmp_path / "m.json"
        code = run(["train", "--train", data_csv, "--valid", data_csv, "--rounds", 2,
                    "--out", model])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("numerical error: ")
        assert "Traceback" not in err
        assert not model.exists()

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
    ("simulate", ["--a1", "nan"], "a1"),
    ("simulate", ["--a6", "inf"], "a6"),
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

    def test_names_with_comma_quote_newline_read_back(self, tmp_path, rng, capsys):
        names = ("a,b", 'q"x', "two\nlines")
        data = Dataset(names, rng.normal(size=(3, 30)), (FeatureKind.CONTINUOUS,) * 3,
                       rng.normal(size=30))
        data_csv, model_path = tmp_path / "data.csv", tmp_path / "model.json"
        write_csv(data, data_csv)
        stumps = tuple(make_stump(j, 0.0, -1.0 - j, 1.0) for j in range(3))
        write_model(Ensemble(trees=stumps, n_features=3), model_path)
        assert run(["rank", "--model", model_path, "--data", data_csv, "--top", 3]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines(keepends=True)))
        assert rows[0] == ["feature_name", "kappa"]
        assert all(len(row) == 2 for row in rows)
        assert sorted(name for name, _ in rows[1:]) == sorted(names)
        assert float(rows[1][1]) >= float(rows[2][1]) >= float(rows[3][1]) > 0.0


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
        assert lines[1] == f"x6,1,{docs[0]['draws'][0]!r}"

    def test_hist_csv_quotes_feature_names(self, tmp_path, rng):
        names = ("a,b", 'q"t', "x2")
        data = Dataset(names, rng.normal(size=(3, 30)), (FeatureKind.CONTINUOUS,) * 3,
                       rng.normal(size=30))
        data_csv, model_path = tmp_path / "data.csv", tmp_path / "model.json"
        write_csv(data, data_csv)
        write_model(Ensemble(trees=(make_stump(0, 0.0, -1.0, 1.0),), n_features=3), model_path)
        hist = tmp_path / "draws.csv"
        code = run([
            "subsage", "--model", model_path, "--test", data_csv, "--feature", "a,b",
            "--feature", 'q"t', "--bootstrap", 4, "--alpha", "0.25", "--bca", "off", "--hist-csv", hist,
            "--out", tmp_path / "report.json",
        ])
        assert code == 0
        with hist.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["feature", "iteration", "value"]
        assert [r[:2] for r in rows[1:]] == [[f, str(i)] for f in names[:2] for i in (1, 2, 3, 4)]

    @pytest.mark.parametrize("key", ["empty", "rest"])
    def test_feature_named_like_a_report_key_is_data_error(self, tmp_path, rng, capsys,
                                                          monkeypatch, key):
        data = Dataset(("a", key, "c", "d"), rng.normal(size=(4, 30)),
                       (FeatureKind.CONTINUOUS,) * 4, rng.normal(size=30))
        data_csv, model_path = tmp_path / "data.csv", tmp_path / "model.json"
        write_csv(data, data_csv)
        write_model(Ensemble(trees=(make_stump(0, 0.0, -1.0, 1.0),), n_features=4), model_path)
        report = tmp_path / "report.json"
        args = ["subsage", "--model", model_path, "--test", data_csv, "--bootstrap", 4,
                "--alpha", "0.25", "--out", report]

        # Feature k itself may carry the name: k is no singleton of Q_k.
        assert run([*args, "--feature", key]) == 0
        (doc,) = json.loads(report.read_text())
        assert sorted(doc["per_subset_deltas"]) == sorted(["empty", "a", "c", "d", "rest"])
        report.unlink()
        capsys.readouterr()

        import subsage.bootstrap

        def no_draws(*_):
            raise AssertionError("drew before checking the feature names")

        monkeypatch.setattr(subsage.bootstrap, "paired_bootstrap", no_draws)
        assert run([*args, "--feature", "c", "--feature", "a"]) == 2
        assert capsys.readouterr().err == (
            f"error: feature column {key!r} clashes with the per-subset key {key!r} "
            f"in the report of feature 'c'\n"
        )
        assert not report.exists()

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
        from subsage.tree_model import load_model
        from cond_exp_oracle import predict_margin

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


def _three_feature_files(tmp_path, rng):
    """A 3-feature CSV, a stump model of it, and that model as a dump."""
    data = Dataset(("a", "b", "c"), rng.normal(size=(3, 30)), (FeatureKind.CONTINUOUS,) * 3,
                   rng.normal(size=30))
    data_csv, model, dump = tmp_path / "data.csv", tmp_path / "model.json", tmp_path / "dump.json"
    write_csv(data, data_csv)
    write_model(Ensemble(trees=(make_stump(0, 0.0, -1.0, 1.0),), n_features=3), model)
    dump.write_text(json.dumps([{"nodeid": 0, "split": "f0", "split_condition": 0.0, "yes": 1,
                                 "no": 2, "children": [{"nodeid": 1, "leaf": -1.0},
                                                       {"nodeid": 2, "leaf": 1.0}]}]))
    return data_csv, model, dump


class TestOutputPathCollisions:
    """An output flag naming an input's file or another output's is a usage
    error, raised before any file is read or written."""

    def _check(self, tmp_path, capsys, monkeypatch, argv, out_flag, same_as):
        # The output is spelled relative to the working directory, the input
        # absolute, so only resolved paths match.
        monkeypatch.chdir(tmp_path)
        given = dict(zip(argv[1::2], argv[2::2]))
        argv = [*argv, out_flag, Path(given[same_as]).name]
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()
        assert run(argv) == 1
        assert capsys.readouterr().err == (
            f"usage error: {out_flag} and {same_as} name the same file {Path(given[same_as]).name}\n"
        )
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("same_as", ["--train", "--valid"])
    def test_train(self, tmp_path, rng, capsys, monkeypatch, same_as):
        data_csv, _, _ = _three_feature_files(tmp_path, rng)
        valid = tmp_path / "valid.csv"
        valid.write_bytes(data_csv.read_bytes())
        argv = ["train", "--train", data_csv, "--valid", valid]
        self._check(tmp_path, capsys, monkeypatch, argv, "--out", same_as)

    @pytest.mark.parametrize("out_flag, same_as", [
        ("--out", "--test"), ("--out", "--model"), ("--out", "--train-path"),
        ("--hist-csv", "--out"), ("--hist-csv", "--test"),
    ])
    def test_subsage(self, tmp_path, rng, capsys, monkeypatch, out_flag, same_as):
        data_csv, model, _ = _three_feature_files(tmp_path, rng)
        train_csv, report = tmp_path / "train.csv", tmp_path / "report.json"
        train_csv.write_bytes(data_csv.read_bytes())
        report.write_text("an earlier report\n")
        argv = ["subsage", "--model", model, "--test", data_csv, "--train-path", train_csv,
                "--feature", "a", "--bootstrap", 4, "--alpha", "0.25"]
        if out_flag != "--out":
            argv += ["--out", report]
        self._check(tmp_path, capsys, monkeypatch, argv, out_flag, same_as)

    def test_convert(self, tmp_path, rng, capsys, monkeypatch):
        _, _, dump = _three_feature_files(tmp_path, rng)
        self._check(tmp_path, capsys, monkeypatch, ["convert", "--in", dump], "--out", "--in")


class TestMessagesNameFiles:
    @pytest.mark.parametrize("command", ["rank", "subsage"])
    def test_short_data_names_csv_and_model(self, tmp_path, rng, capsys, command):
        _, model, _ = _three_feature_files(tmp_path, rng)
        short = tmp_path / "short.csv"
        write_csv(Dataset(("a", "b"), rng.normal(size=(2, 10)), (FeatureKind.CONTINUOUS,) * 2,
                          rng.normal(size=10)), short)
        argv = {
            "rank": ["rank", "--model", model, "--data", short],
            "subsage": ["subsage", "--model", model, "--test", short, "--feature", "a",
                        "--bootstrap", 4, "--alpha", "0.25", "--out", tmp_path / "r.json"],
        }[command]
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: {short} has 2 features, model {model} expects 3\n"

    @pytest.mark.parametrize("names, column, first, second", [
        (("a", "b"), 3, "'c'", "None"),
        (("a", "x", "c"), 2, "'b'", "'x'"),
        (("a", "b", "c", "d"), 4, "None", "'d'"),
    ])
    def test_valid_schema_names_both_csvs_and_the_column(self, tmp_path, rng, capsys,
                                                          names, column, first, second):
        data_csv, _, _ = _three_feature_files(tmp_path, rng)
        valid = tmp_path / "valid.csv"
        m = len(names)
        write_csv(Dataset(names, rng.normal(size=(m, 10)), (FeatureKind.CONTINUOUS,) * m,
                          rng.normal(size=10)), valid)
        out = tmp_path / "m.json"
        assert run(["train", "--train", data_csv, "--valid", valid, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error: --train {data_csv} and --valid {valid} differ at feature column {column}: "
            f"{first} vs {second}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--bootstrap", 20],
         "B*alpha = 0.5 < 1: the lower order statistic is the sample minimum"),
        (["--bootstrap", 4, "--alpha", "0.25", "--train-path", "data.csv"],
         "--test equals --train-path; sub-SAGE estimates on training data are biased"),
    ])
    def test_warning_is_one_line(self, tmp_path, rng, capsys, monkeypatch, flags, message):
        data_csv, model, _ = _three_feature_files(tmp_path, rng)
        monkeypatch.chdir(tmp_path)
        assert run(["--quiet", "subsage", "--model", model, "--test", data_csv, "--feature", "a",
                    *flags, "--out", tmp_path / "r.json"]) == 0
        assert capsys.readouterr().err == f"warning: {message}\n"
