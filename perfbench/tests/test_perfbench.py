"""Tests of the benchmark's own code: span arithmetic, metric names, the
output checks, and seeded input generation.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import inputs  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from subsage.dataset import write_csv  # noqa: E402
from subsage.estimator import LossKind  # noqa: E402
from subsage.tree_model import import_xgb_dump, load_model  # noqa: E402
from workloads import Plan  # noqa: E402

# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def test_self_time_of_nested_spans():
    S = tracing.Span
    spans = [
        S(0, "cli.rank", None, 0.0, 10.0),
        S(1, "shap_erfc.shap_exact", 0, 1.0, 7.0),
        S(2, "cond_expect.tree_cond_exp_batch", 1, 2.0, 3.0),
        S(3, "cond_expect.tree_cond_exp_batch", 1, 4.0, 4.5),
        S(4, "shap_erfc.erfc", 0, 8.0, 9.5),
    ]
    assert tracing.self_times(spans) == pytest.approx(
        {0: 2.5, 1: 4.5, 2: 1.0, 3: 0.5, 4: 1.5})
    by_module = tracing.self_time_by_module(spans)
    assert by_module == pytest.approx({"cli": 2.5, "shap_erfc": 6.0, "cond_expect": 1.5})
    assert sum(by_module.values()) == pytest.approx(10.0)


def test_tracer_records_parents_and_restores_patches(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: float(next(ticks)))
    tracer = tracing.Tracer()
    inner = tracer.wrap("dataset.inner", lambda: 7)
    with tracer.span("cli.outer"):
        assert inner() == 7
        assert inner() == 7
    outer, a, b = tracer.spans
    assert (outer.parent, a.parent, b.parent) == (None, outer.id, outer.id)
    assert tracing.self_times(tracer.spans)[outer.id] == outer.duration - a.duration - b.duration

    original = tracing.subsage.cli.load_csv
    with tracing.patched(tracing.Tracer()):
        assert tracing.subsage.cli.load_csv is not original
    assert tracing.subsage.cli.load_csv is original


# ---------------------------------------------------------------------------
# A small traced run through the real CLI, shared by the tests below
# ---------------------------------------------------------------------------

SMALL_DUMP = dataclasses.replace(
    inputs.DEEP_LOGISTIC_DUMP, n_trees=4, depth=3, features_per_tree=4,
    signal_trees=3, pool_size=10, levels=8, objective="regression", eta=0.3,
)


def small_plan(work: Path, seed: int) -> Plan:
    fit, rank, test = inputs.synthetic_split(400, (0.5, 0.25, 0.25), seed)
    dump, base = inputs.make_dump(SMALL_DUMP, fit, seed)
    (work / "dump.json").write_bytes(inputs.dump_bytes(dump))
    for name, data in (("fit", fit), ("rank", rank), ("test", test)):
        inputs.dataset.write_csv(data, work / f"{name}.csv")
    model, report = work / "model.json", work / "report.json"
    commands = [
        ("train", ["--quiet", "train", "--train", str(work / "fit.csv"),
                   "--valid", str(work / "rank.csv"), "--rounds", "3",
                   "--out", str(work / "trained.json")]),
        ("convert", ["--quiet", "convert", "--in", str(work / "dump.json"),
                     "--out", str(model), "--base-score", repr(base),
                     "--n-features", "100"]),
        ("rank", ["--quiet", "rank", "--model", str(model),
                  "--data", str(work / "rank.csv"), "--top", "10"]),
        ("subsage", ["--quiet", "subsage", "--model", str(model),
                     "--test", str(work / "test.csv"), "--feature", "x6",
                     "--feature", "x7", "--bootstrap", "8", "--alpha", "0.125",
                     "--bca", "jackknife", "--seed", str(seed), "--emit-draws",
                     "--out", str(report)]),
    ]
    return Plan(commands, test, ["x6", "x7"], LossKind.SQUARED_ERROR, seed,
                model, report, rank_data=rank, bca_features=("x6",))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    work = tmp_path_factory.mktemp("small")
    tracer = tracing.Tracer()
    with tracing.patched(tracer), tracer.span("setup"):
        plan = small_plan(work, 3)
    with tracing.patched(tracer):
        passes = run.run_passes(plan, 0.0, tracer)
    assert all(r.code == 0 for r in passes[0])
    return plan, passes, tracer


def test_metric_names_are_well_formed(traced):
    plan, _, tracer = traced
    facts, per_feature = run.model_and_feature_facts(plan)
    found = metrics.per_layer_metrics(tracer.spans, facts, per_feature)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names = declared + list(found) + [w["name"] for w in spec["workloads"]]
    assert all(metrics.NAME_RE.fullmatch(n) for n in names), names
    assert tuple(m["name"] for m in spec["end_to_end"]) == metrics.END_TO_END
    assert tuple(m["name"] for m in spec["per_layer"]) == metrics.PER_LAYER
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in metrics.PER_LAYER:
        if not name.startswith("trace."):
            assert found[name][1] == units[name], name
    for name in ("trainer.rounds_grown", "shap_erfc.subsets_enumerated",
                 "bootstrap.jackknife_s", "tree_model.import_dump_s"):
        assert name in found
    assert found["trainer.rounds_grown"][0] == 3
    assert found["shap_erfc.subsets_enumerated"][0] == facts["shap_subsets"]
    assert found["estimator.psi_calls"][0] == 2 * (8 + plan.test.n_rows)


# ---------------------------------------------------------------------------
# Output checks pass on true outputs and fail on perturbed ones
# ---------------------------------------------------------------------------


def _outputs(traced):
    plan, passes, _ = traced
    return plan, passes, load_model(plan.model), json.loads(plan.report.read_text())


def test_checks_pass_on_true_outputs(traced):
    plan, passes, _ = traced
    found = run.output_checks(plan, passes[-1])
    assert len(found) == 2 + 2 + 2 + 1
    assert all(c.ok for c in found), [c for c in found if not c.ok]


def test_psi_check_fails_on_perturbed_psi(traced):
    plan, _, model, reports = _outputs(traced)
    reports[0]["psi_hat"] *= 1 + 1e-7
    ok = [c.ok for c in checks.check_psi_naive(model, plan.test, reports, plan.loss)]
    assert ok == [False, True]


def test_draw_check_fails_on_perturbed_draw(traced):
    plan, _, model, reports = _outputs(traced)
    reports[0]["draws"][0] *= 1 + 1e-10
    found = checks.check_draw_rebuild(model, plan.test, reports, plan.loss, plan.seed)
    assert [c.ok for c in found] == [False, True]


def test_rank_checks_fail_on_perturbed_outputs(traced):
    plan, passes, model, _ = traced[0], traced[1], *_outputs(traced)[2:]
    printed = checks.parse_ranking(next(r for r in passes[-1] if r.name == "rank").stdout)
    name, kappa = printed[0]
    printed[0] = (name, repr(float(kappa) * (1 + 1e-12)))
    assert [c.ok for c in checks.check_rank(model, plan.rank_data, printed, 10)] == [True, False]

    from subsage.shap_erfc import ShapMatrix, shap_exact
    from subsage.tree_model import annotate_probabilities, predict_margin_batch

    data = plan.rank_data
    shap = shap_exact(annotate_probabilities(model, data), data)
    margins = predict_margin_batch(model, data)
    assert checks.check_shap_efficiency(shap, margins).ok
    phi = shap.phi.copy()
    phi[0, 5] += 1e-6
    assert not checks.check_shap_efficiency(ShapMatrix(phi, shap.phi0), margins).ok


@pytest.mark.parametrize("change", [
    {"bca": None}, {"bca": [0.5, 0.5]}, {"a": 0.0}, {"z0": float("inf")},
])
def test_bca_check_fails_on_degenerate_interval(traced, change):
    _, _, _, reports = _outputs(traced)
    assert checks.check_bca(reports[0]).ok
    assert not checks.check_bca({**reports[0], **change}).ok


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def test_dump_generator_is_byte_identical_per_seed(tmp_path):
    def dump_for(seed):
        fit, _, _ = inputs.synthetic_split(2000, (0.65, 0.15, 0.2), seed)
        fit = inputs.binarize(fit, float(np.median(fit.response)))
        dump, base = inputs.make_dump(inputs.DEEP_LOGISTIC_DUMP, fit, seed)
        return inputs.dump_bytes(dump), base

    first, second, other = dump_for(5), dump_for(5), dump_for(6)
    assert first == second
    assert first[0] != other[0]

    path = tmp_path / "dump.json"
    path.write_bytes(first[0])
    model = import_xgb_dump(path, objective="binary-logistic", n_features=100)
    spec = inputs.DEEP_LOGISTIC_DUMP
    assert model.n_trees == spec.n_trees and model.max_depth == spec.depth
    assert all(len(t.feature_set) == spec.features_per_tree for t in model.trees)
    assert sum(spec.signal in t.feature_set for t in model.trees) == spec.signal_trees


def test_data_split_is_byte_identical_per_seed(tmp_path):
    paths = []
    for i, seed in enumerate((9, 9, 10)):
        _, _, test = inputs.synthetic_split(500, (0.5, 0.3, 0.2), seed)
        paths.append(tmp_path / f"test{i}.csv")
        write_csv(test, paths[-1])
    a, b, c = (p.read_bytes() for p in paths)
    assert a == b and a != c


def test_large_n_dump_shape():
    fit, grid, _ = inputs.synthetic_split(5000, (0.1, 0.1, 0.8), 2)
    dump, _ = inputs.make_dump(inputs.LARGE_N_DUMP, fit, 2, grid_rows=grid)
    spec = inputs.LARGE_N_DUMP
    roots = [tree["split"] for tree in dump]
    assert len(dump) == spec.n_trees
    assert roots.count(f"f{spec.signal}") == spec.signal_trees
