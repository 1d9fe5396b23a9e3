"""Metric names, model facts computed from the model and data, and the
per-layer metrics derived from a traced run.

Facts such as |tau_k|, distinct thresholds, classes per draw and mask
megabytes are computed here from the model's structure, the way the
estimator's algorithm defines them, not read from the engine's private
attributes. Where a workload estimates several features, ``tau_size`` and
``classes_per_draw`` are summed over them (work per draw index) and
``mask_mb`` is the largest single engine's masks (engines live one at a
time).
"""

from __future__ import annotations

import re
import statistics

import numpy as np

from subsage.tree_model import ROOT_ID, trees_containing

from tracing import Span, self_time_by_module

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

# The metrics of the result line: those every workload measures. Metrics
# of layers a workload bypasses (trainer, shap_erfc, cond_expect, the dump
# importer, the jackknife) and per-command times are printed where they
# occur but are not part of the result line.
END_TO_END = ("setup_s", "pipeline_s", "subsage_s", "peak_rss_mb")
PER_LAYER = (
    "dataset.load_csv_s", "dataset.load_csv_rows_per_s", "dataset.write_csv_s",
    "dataset.write_csv_mb_per_s", "dataset.split_s", "dataset.resample_draw_ms_p50",
    "synthetic.generate_s",
    "tree_model.load_model_s", "tree_model.write_model_s", "tree_model.annotate_s",
    "tree_model.annotate_calls", "tree_model.n_trees", "tree_model.n_branch_nodes",
    "tree_model.max_depth",
    "estimator.engine_build_s", "estimator.engines_built", "estimator.point_estimate_s",
    "estimator.draw_ms_p50", "estimator.draw_ms_p95", "estimator.psi_calls",
    "estimator.tau_size", "estimator.distinct_thresholds", "estimator.classes_per_draw",
    "estimator.mask_mb",
    "bootstrap.paired_bootstrap_s", "bootstrap.draws_per_s", "bootstrap.interval_s",
    "cli.self_s", "dataset.self_s", "tree_model.self_s", "estimator.self_s",
    "bootstrap.self_s", "trace.span_cost_s",
)


# ---------------------------------------------------------------------------
# Model facts
# ---------------------------------------------------------------------------


def _leaf_path_features(tree) -> list[frozenset[int]]:
    """Features on the path to each leaf, in no particular order."""
    out = []
    stack = [(ROOT_ID, frozenset())]
    while stack:
        nid, feats = stack.pop()
        node = tree.node(nid)
        if node.is_leaf:
            out.append(feats)
            continue
        with_f = feats | {node.feature}
        stack.append((node.left, with_f))
        stack.append((node.right, with_f))
    return out


def draw_classes(ensemble, k: int) -> set[tuple[int, frozenset[int]]]:
    """(tree, known-feature set) pairs the estimator evaluates per draw of
    feature ``k``: empty and {k} for trees that split on k, each used
    feature m alone and with k, and every tree's full feature set for the
    all-but-k coalition."""
    trees = ensemble.trees
    tau, rest = trees_containing(ensemble, k)
    used = set().union(*(t.feature_set for t in trees))
    empty, only_k = frozenset(), frozenset((k,))
    classes = {(t, empty) for t in range(len(trees))}
    classes |= {(t, only_k) for t in tau}
    others = sorted(used - {k})
    for m in others:
        for t in tau:
            if m in trees[t].feature_set:
                classes |= {(t, frozenset((m,))), (t, frozenset((m, k)))}
        for t in rest:
            if m in trees[t].feature_set:
                classes.add((t, frozenset((m,))))
    if len(others) > 1:
        for t in tau:
            f = frozenset(trees[t].feature_set)
            classes |= {(t, f - {k}), (t, f)}
        for t in rest:
            classes.add((t, frozenset(trees[t].feature_set)))
    return classes


def mask_bytes(ensemble, classes, n_rows: int) -> int:
    """float64 bytes of leaf masks: one n-vector for every leaf of a class
    whose path passes a known feature."""
    paths = {}
    columns = 0
    for t, known in classes:
        if t not in paths:
            paths[t] = _leaf_path_features(ensemble.trees[t])
        columns += sum(1 for p in paths[t] if p & known)
    return columns * n_rows * 8


def model_facts(ensemble) -> dict:
    trees = ensemble.trees
    return {
        "n_trees": len(trees),
        "n_branch_nodes": sum(len(t.branch_nodes()) for t in trees),
        "max_depth": ensemble.max_depth,
        "distinct_thresholds": len({
            (n.feature, n.threshold) for t in trees for n in t.branch_nodes()
        }),
        "used_features": len(set().union(*(t.feature_set for t in trees))),
        "shap_subsets": sum(2 ** len(t.feature_set) for t in trees),
    }


def feature_facts(ensemble, k: int, n_rows: int) -> dict:
    classes = draw_classes(ensemble, k)
    facts = model_facts(ensemble)
    return {
        "tau_size": len(trees_containing(ensemble, k)[0]),
        "classes_per_draw": len(classes),
        "mask_mb": mask_bytes(ensemble, classes, n_rows) / 1e6,
        "indicator_mb": facts["distinct_thresholds"] * n_rows * 8 / 1e6,
    }


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------


def _named(spans, name):
    return [s for s in spans if s.name == name]


def _total(spans, name) -> float:
    return sum(s.duration for s in _named(spans, name))


def _children(spans, parent: Span):
    return [s for s in spans if s.parent == parent.id]


def bootstrap_phases(spans: list[Span]) -> dict:
    """Split each ``paired_bootstrap`` span into its draw loop and its
    jackknife loop.

    ``paired_bootstrap`` draws first and computes the percentile interval
    next; engine evaluations after that interval are jackknife passes.
    """
    draw_ms: dict[int, list[float]] = {}
    draw_s = jack_s = 0.0
    n_draws = n_jack = 0
    for pb in _named(spans, "bootstrap.paired_bootstrap"):
        kids = _children(spans, pb)
        est = next(s for s in kids if s.name == "estimator.SubSageEngine.estimate")
        pct = next(s for s in kids if s.name == "bootstrap.percentile_interval")
        bca = next((s for s in kids if s.name == "bootstrap.bca_interval"), None)
        psi = [s for s in kids if s.name == "estimator.SubSageEngine.psi_for_weights"]
        draws = [s for s in psi if s.start < pct.start]
        jack = [s for s in psi if s.start > pct.end]
        for s in draws:
            draw_ms.setdefault(s.attrs["k"], []).append(s.duration * 1e3)
        draw_s += pct.start - est.end
        n_draws += len(draws)
        if jack:
            jack_s += bca.start - pct.end
            n_jack += len(jack)
    return {"draw_ms": draw_ms, "draw_s": draw_s, "n_draws": n_draws,
            "jackknife_s": jack_s, "n_jackknife": n_jack}


def per_layer_metrics(spans: list[Span], facts: dict, features: dict) -> dict:
    """name -> (value, unit) for every layer metric the trace supports.

    ``facts`` are the model facts of the estimated model; ``features``
    maps each estimated feature index to its ``feature_facts``.
    """
    m: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    loads = _named(spans, "dataset.load_csv")
    load_s = _total(spans, "dataset.load_csv")
    put("dataset.load_csv_s", load_s, "s")
    put("dataset.load_csv_rows_per_s", sum(s.attrs["rows"] for s in loads) / load_s, "1/s")
    writes = _named(spans, "dataset.write_csv")
    write_s = _total(spans, "dataset.write_csv")
    put("dataset.write_csv_s", write_s, "s")
    put("dataset.write_csv_mb_per_s", sum(s.attrs["bytes"] for s in writes) / 1e6 / write_s, "MB/s")
    put("dataset.split_s", _total(spans, "dataset.split"), "s")
    draws = [s.duration * 1e3 for s in _named(spans, "dataset.ResampleIndex.draw")]
    put("dataset.resample_draw_ms_p50", statistics.median(draws), "ms")

    put("synthetic.generate_s", _total(spans, "synthetic.generate_synthetic"), "s")

    if _named(spans, "trainer.train"):
        train_s = _total(spans, "trainer.train")
        rounds = len(_named(spans, "trainer.eval_loss"))
        put("trainer.train_s", train_s, "s")
        put("trainer.rounds_grown", rounds, "count")
        put("trainer.s_per_round", train_s / rounds, "s")

    put("tree_model.load_model_s", _total(spans, "tree_model.load_model"), "s")
    put("tree_model.write_model_s", _total(spans, "tree_model.write_model"), "s")
    if _named(spans, "tree_model.import_xgb_dump"):
        put("tree_model.import_dump_s", _total(spans, "tree_model.import_xgb_dump"), "s")
    put("tree_model.annotate_s", _total(spans, "tree_model.annotate_probabilities"), "s")
    put("tree_model.annotate_calls", len(_named(spans, "tree_model.annotate_probabilities")), "count")
    put("tree_model.n_trees", facts["n_trees"], "count")
    put("tree_model.n_branch_nodes", facts["n_branch_nodes"], "count")
    put("tree_model.max_depth", facts["max_depth"], "count")

    shap_calls = _named(spans, "shap_erfc.shap_exact")
    if shap_calls:
        put("cond_expect.tree_cond_exp_batch_calls",
            len(_named(spans, "cond_expect.tree_cond_exp_batch")), "count")
        put("cond_expect.tree_cond_exp_batch_s",
            _total(spans, "cond_expect.tree_cond_exp_batch"), "s")
        put("shap_erfc.shap_exact_s", _total(spans, "shap_erfc.shap_exact"), "s")
        put("shap_erfc.subsets_enumerated", facts["shap_subsets"] * len(shap_calls), "count")
        put("shap_erfc.erfc_s", _total(spans, "shap_erfc.erfc"), "s")

    phases = bootstrap_phases(spans)
    all_draw_ms = [v for vals in phases["draw_ms"].values() for v in vals]
    put("estimator.engine_build_s", _total(spans, "estimator.SubSageEngine"), "s")
    put("estimator.engines_built", len(_named(spans, "estimator.SubSageEngine")), "count")
    put("estimator.point_estimate_s", _total(spans, "estimator.SubSageEngine.estimate"), "s")
    put("estimator.draw_ms_p50", float(np.percentile(all_draw_ms, 50)), "ms")
    put("estimator.draw_ms_p95", float(np.percentile(all_draw_ms, 95)), "ms")
    put("estimator.psi_calls", len(_named(spans, "estimator.SubSageEngine.psi_for_weights")), "count")
    put("estimator.tau_size", sum(f["tau_size"] for f in features.values()), "count")
    put("estimator.distinct_thresholds", facts["distinct_thresholds"], "count")
    put("estimator.classes_per_draw", sum(f["classes_per_draw"] for f in features.values()), "count")
    put("estimator.mask_mb", max(f["mask_mb"] for f in features.values()), "MB")

    put("bootstrap.paired_bootstrap_s", _total(spans, "bootstrap.paired_bootstrap"), "s")
    put("bootstrap.draws_per_s", phases["n_draws"] / phases["draw_s"], "1/s")
    if phases["n_jackknife"]:
        put("bootstrap.jackknife_s", phases["jackknife_s"], "s")
    put("bootstrap.interval_s",
        _total(spans, "bootstrap.percentile_interval") + _total(spans, "bootstrap.bca_interval"), "s")

    for mod, t in sorted(self_time_by_module(spans).items()):
        put(f"{mod}.self_s", t, "s")
    return m
