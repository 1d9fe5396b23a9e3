"""Property tests of the cell-id sub-SAGE engine on random ragged trees.

Every weighted estimate must equal the plain estimate on the dataset the
weights stand for, and every per-subset delta the naive mean-loss
difference built from ``cond_exp_batch``. Gaps are measured relative to
the larger of the two values and the loss scale of the data, so that an
estimate that is zero up to rounding compares on the scale of its terms.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from subsage import cli
from subsage.cond_expect import cond_exp_batch
from subsage.dataset import Dataset, FeatureKind, ResampleIndex, resample, write_csv
from subsage.estimator import (
    LossKind,
    SubSageEngine,
    build_subset_family,
    subsage_estimate,
)
from subsage.tree_model import (
    Ensemble,
    Tree,
    annotate_probabilities,
    branch,
    leaf,
    predict_margin_batch,
    write_model,
)

from conftest import make_stump, random_dataset

RTOL = 1e-12


def ragged_tree(rng, data, max_depth, pool):
    """Random tree of depth at most ``max_depth``: below the root each node
    becomes a leaf with probability 0.3. Split features come from ``pool``
    (a small pool repeats features along a path); half of the thresholds
    are data values, so ties with the split point occur."""
    nodes = []

    def grow(nid, level):
        if level == max_depth or (level > 0 and rng.random() < 0.3):
            nodes.append(leaf(nid, float(rng.normal())))
            return
        f = int(rng.choice(pool))
        col = data.column(f)
        if rng.random() < 0.5:
            t = float(rng.choice(col))
        else:
            t = float(np.quantile(col, rng.uniform(0.1, 0.9)))
        nodes.append(branch(nid, f, t, 2 * nid, 2 * nid + 1))
        grow(2 * nid, level + 1)
        grow(2 * nid + 1, level + 1)

    grow(1, 0)
    return Tree(nodes)


@st.composite
def cases(draw, max_depth=4):
    """(unannotated ensemble, data, k, loss) for random ragged ensembles."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(3, 6))
    n = draw(st.integers(4, 40))
    binary = draw(st.booleans())
    depth = draw(st.integers(1, max_depth))
    n_trees = draw(st.integers(1, 8))
    pool = range(draw(st.integers(1, m)))
    data = random_dataset(rng, n, m, binary_response=binary)
    cols = data.columns.copy()
    cols[0] = np.round(cols[0], 1)  # tied values
    data = Dataset(data.feature_names, cols, data.kinds, data.response)
    ens = Ensemble(
        trees=tuple(ragged_tree(rng, data, depth, pool) for _ in range(n_trees)),
        n_features=m,
        objective="binary-logistic" if binary else "regression",
        base_score=float(rng.normal()),
    )
    loss = LossKind.BINARY_CROSS_ENTROPY if binary else LossKind.SQUARED_ERROR
    return ens, data, draw(st.integers(0, m - 1)), loss


def loss_scale(ens, data, loss) -> float:
    pred = predict_margin_batch(ens, data)
    if loss is LossKind.SQUARED_ERROR:
        return float(np.mean(data.response**2) + np.mean(pred**2))
    return float(1.0 + np.mean(np.abs(pred)))


def assert_close(a, b, scale):
    assert abs(a - b) <= RTOL * max(abs(a), abs(b), scale), (a, b)


def naive_delta(ensemble, k, subset, test, loss):
    v_s = ensemble.base_score + cond_exp_batch(ensemble, subset, test).sum(axis=1)
    v_sk = ensemble.base_score + cond_exp_batch(ensemble, set(subset) | {k}, test).sum(axis=1)
    y = test.response
    if loss is LossKind.SQUARED_ERROR:
        return float(np.mean((y - v_s) ** 2) - np.mean((y - v_sk) ** 2))
    ce = lambda v: (1.0 - y) * v + np.logaddexp(0.0, -v)
    return float(np.mean(ce(v_s)) - np.mean(ce(v_sk)))


def check_replicates(ens, data, k, loss, seeds):
    engine = SubSageEngine(annotate_probabilities(ens, data), data, k, loss)
    scale = loss_scale(ens, data, loss)
    for it in seeds:
        idx = ResampleIndex.draw(data.n_rows, 11, it)
        fast = engine.psi_for_weights(np.bincount(idx.indices, minlength=data.n_rows).astype(float))
        replicate = resample(data, idx)
        slow = subsage_estimate(annotate_probabilities(ens, replicate), k, replicate, loss)
        assert_close(fast, slow.psi_hat, scale)


@settings(max_examples=60, deadline=None)
@given(cases())
def test_weighted_draws_match_materialized_replicates(case):
    ens, data, k, loss = case
    check_replicates(ens, data, k, loss, range(1, 4))


@settings(max_examples=40, deadline=None)
@given(cases(), st.data())
def test_jackknife_weights_match_row_removal(case, pick):
    ens, data, k, loss = case
    i = pick.draw(st.integers(0, data.n_rows - 1))
    engine = SubSageEngine(annotate_probabilities(ens, data), data, k, loss)
    weights = np.ones(data.n_rows)
    weights[i] = 0.0
    keep = np.delete(np.arange(data.n_rows), i)
    reduced = data.take_rows(keep)
    slow = subsage_estimate(annotate_probabilities(ens, reduced), k, reduced, loss)
    assert_close(engine.psi_for_weights(weights), slow.psi_hat, loss_scale(ens, data, loss))


@settings(max_examples=40, deadline=None)
@given(cases())
def test_unit_weights_equal_plain_estimate(case):
    ens, data, k, loss = case
    engine = SubSageEngine(annotate_probabilities(ens, data), data, k, loss)
    assert engine.psi_for_weights(np.ones(data.n_rows)) == engine.psi_for_weights(None)
    assert engine.estimate(np.ones(data.n_rows)) == engine.estimate()


@settings(max_examples=40, deadline=None)
@given(cases())
def test_deltas_match_naive_loss_differences(case):
    ens, data, k, loss = case
    annotated = annotate_probabilities(ens, data)
    est = subsage_estimate(annotated, k, data, loss)
    scale = loss_scale(ens, data, loss)
    family = build_subset_family(ens.n_features, k)
    for subset in family.subsets:
        assert_close(
            est.per_subset_deltas[subset], naive_delta(annotated, k, subset, data, loss), scale
        )
    psi = sum(w * est.per_subset_deltas[s] for s, w in zip(family.subsets, family.weights))
    assert_close(est.psi_hat, psi, scale)


class PaddedEngine(SubSageEngine):
    """The engine with its former step matrix: every coefficient's factors
    padded to the ensemble's maximum depth, the constant 1.0 standing for
    each known step and each step past the leaf, multiplied one depth row at
    a time. Coefficients are returned in the engine's order: most unknown
    steps first, ties in class order."""

    def __init__(self, ensemble, data, k, loss):
        self._depth = max(1, ensemble.max_depth)
        self._padded, self._values = [], []
        super().__init__(ensemble, data, k, loss)

    def _class(self, t, known, sign):
        new = (t, known, sign) not in self._classes
        offset = super()._class(t, known, sign)
        if new:
            vals, tid, feat, left, _ = self._paths[t]
            one = 2 * len(self._p0)
            fixed = tid < 0
            for f in known:
                fixed |= feat == f
            cols = np.full((len(vals), self._depth), one)
            cols[:, : tid.shape[1]] = np.where(fixed, one, np.where(left, tid, tid + one // 2))
            self._padded.append(cols.T)
            self._values.append(sign * vals)
        return offset

    def _coefficients(self, p):
        pp = np.concatenate((p, 1.0 - p, (1.0,)))
        padded = np.hstack(self._padded)
        coef = np.concatenate(self._values)
        for col in padded:
            coef = coef * pp[col]
        order = np.argsort(-(padded < 2 * len(p)).sum(axis=0), kind="stable")
        return coef[order]


@settings(max_examples=40, deadline=None)
@given(cases(max_depth=6), st.integers(0, 2**32 - 1))
def test_ragged_factors_equal_padded_loop(case, seed):
    ens, data, k, loss = case
    annotated = annotate_probabilities(ens, data)
    engine = SubSageEngine(annotated, data, k, loss)
    padded = PaddedEngine(annotated, data, k, loss)
    if k not in engine.used_features:
        return
    rng = np.random.default_rng(seed)
    for weights in (None, *(rng.integers(0, 3, data.n_rows).astype(float) for _ in range(3))):
        if weights is not None and weights.sum() == 0:
            continue
        p = engine._p0 if weights is None else engine.probs_for_weights(weights)
        np.testing.assert_array_equal(engine._coefficients(p), padded._coefficients(p))
        assert engine.estimate(weights) == padded.estimate(weights)


def test_full_depth_seven_tree():
    # 127 branch nodes: the root splits feature 0, the others split features
    # 1..42 at three thresholds each. A mixed-radix cell code over the tree's
    # thresholds needs 84 bits past feature 0's digit, so in a 64-bit code the
    # row pairs below, which differ only in feature 0, would collide.
    rng = np.random.default_rng(7)
    base = rng.normal(size=(43, 40))
    cols = np.hstack([base, base])
    cols[0] = np.concatenate([-1.0 - rng.random(40), 1.0 + rng.random(40)])
    data = Dataset(
        tuple(f"x{j}" for j in range(43)), cols, (FeatureKind.CONTINUOUS,) * 43,
        rng.normal(size=80),
    )
    nodes = [branch(1, 0, 0.0, 2, 3)]
    nodes += [leaf(nid, float(rng.normal())) for nid in range(128, 256)]
    for nid in range(2, 128):
        f = 1 + (nid - 2) // 3
        t = float(np.quantile(cols[f], (0.25, 0.5, 0.75)[(nid - 2) % 3]))
        nodes.append(branch(nid, f, t, 2 * nid, 2 * nid + 1))
    tree = Tree(nodes)
    assert len(tree.branch_nodes()) == 127 and tree.depth == 7
    ens = Ensemble(trees=(tree, ragged_tree(rng, data, 3, range(43))), n_features=43)
    annotated = annotate_probabilities(ens, data)
    est = subsage_estimate(annotated, 0, data, LossKind.SQUARED_ERROR)
    scale = loss_scale(ens, data, LossKind.SQUARED_ERROR)
    for subset in (frozenset(), frozenset({1}), build_subset_family(43, 0).subsets[-1]):
        naive = naive_delta(annotated, 0, subset, data, LossKind.SQUARED_ERROR)
        assert_close(est.per_subset_deltas[subset], naive, scale)
    check_replicates(ens, data, 0, LossKind.SQUARED_ERROR, range(1, 3))


def test_unused_feature_report_is_all_zero(tmp_path):
    rng = np.random.default_rng(5)
    data = random_dataset(rng, 30, 4)
    ens = Ensemble(
        trees=(make_stump(0, 0.1, -1.0, 1.0), make_stump(1, -0.2, 0.5, -0.5)),
        n_features=4,
    )
    write_csv(data, tmp_path / "test.csv")
    write_model(ens, tmp_path / "model.json")
    out = tmp_path / "report.json"
    code = cli.main([
        "--quiet", "subsage", "--model", str(tmp_path / "model.json"),
        "--test", str(tmp_path / "test.csv"), "--feature", "x3", "--loss", "squared",
        "--bootstrap", "8", "--alpha", "0.125", "--bca", "zero", "--seed", "4",
        "--emit-draws", "--out", str(out),
    ])
    assert code == 0
    zeros = ",\n".join(["   0.0"] * 8)
    assert out.read_text() == (
        '[\n {\n  "feature": "x3",\n  "psi_hat": 0.0,\n  "loss": "squared_error",\n'
        '  "B": 8,\n  "alpha": 0.125,\n  "seed": 4,\n'
        '  "percentile": [\n   0.0,\n   0.0\n  ],\n  "bca": [\n   0.0,\n   0.0\n  ],\n'
        '  "z0": 0.0,\n  "a": 0.0,\n  "per_subset_deltas": {\n   "empty": 0.0,\n'
        '   "x0": 0.0,\n   "x1": 0.0,\n   "x2": 0.0,\n   "rest": 0.0\n  },\n'
        f'  "draws": [\n{zeros}\n  ]\n }}\n]\n'
    )
