"""The presorted trainer against an oracle that argsorts every node.

The oracle is the split search the trainer used before it presorted its
columns: for each (node, feature) it stably argsorts the node's values and
scans the prefix sums. ``train`` must write the same model file, byte for
byte, on small datasets full of ties, constant columns and 0/1/2-valued
columns, for both losses, both depths, row and column subsampling, and a
positive minimum gain.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsage.dataset import Dataset, FeatureKind
from subsage.errors import NumericalError
from subsage.estimator import LossKind
from subsage import trainer
from subsage.trainer import TrainConfig, _grad_hess, eval_loss, train
from subsage.tree_model import Ensemble, Tree, branch, leaf, write_model


def oracle_best_split(x, g, h, lam, gamma):
    order = np.argsort(x, kind="stable")
    xs = x[order]
    if xs[0] == xs[-1]:
        return None
    gs = np.cumsum(g[order])
    hs = np.cumsum(h[order])
    g_tot, h_tot = gs[-1], hs[-1]
    cut = np.nonzero(xs[:-1] < xs[1:])[0]
    # A child whose hessian sum plus lambda is 0 has no Newton step.
    cut = cut[(hs[cut] + lam > 0.0) & (h_tot - hs[cut] + lam > 0.0)]
    if cut.size == 0:
        return None
    gl, hl = gs[cut], hs[cut]
    gr, hr = g_tot - gl, h_tot - hl
    parent = g_tot**2 / (h_tot + lam)
    gains = 0.5 * (gl**2 / (hl + lam) + gr**2 / (hr + lam) - parent) - gamma
    best = int(np.argmax(gains))
    if gains[best] <= 0.0:
        return None
    t = 0.5 * (xs[cut[best]] + xs[cut[best] + 1])
    if not (xs[cut[best]] < t <= xs[cut[best] + 1]):
        return None
    return float(gains[best]), t


def oracle_grow_tree(columns, rows, features, g, h, cfg):
    nodes = []

    def make(node_id, idx, depth):
        g_sum = float(g[idx].sum())
        h_sum = float(h[idx].sum())
        if depth < cfg.max_depth and len(idx) >= 2:
            g_node, h_node = g[idx], h[idx]
            best = None
            for f in features:
                found = oracle_best_split(
                    columns[f][idx], g_node, h_node, cfg.reg_lambda, cfg.min_gain
                )
                if found is not None and (best is None or found[0] > best[0]):
                    best = (found[0], int(f), found[1])
            if best is not None:
                _, f, t = best
                nodes.append(branch(node_id, f, t, 2 * node_id, 2 * node_id + 1))
                go_left = columns[f][idx] < t
                make(2 * node_id, idx[go_left], depth + 1)
                make(2 * node_id + 1, idx[~go_left], depth + 1)
                return
        value = -g_sum / (h_sum + cfg.reg_lambda) * cfg.learning_rate
        nodes.append(leaf(node_id, value))

    make(1, rows, 0)
    return Tree(nodes)


def oracle_train(train_data, valid_data, cfg):
    y = train_data.response
    if cfg.loss is LossKind.BINARY_CROSS_ENTROPY:
        pbar = float(y.mean())
        base = float(np.log(pbar / (1.0 - pbar)))
        objective = "binary-logistic"
    else:
        base = float(y.mean())
        objective = "regression"
    n, m = train_data.n_rows, train_data.n_cols
    cols = train_data.columns
    margins = np.full(n, base)
    margins_valid = np.full(valid_data.n_rows, base)
    rng = np.random.default_rng(cfg.seed)
    trees = []
    best_loss = np.inf
    best_round = -1
    for rnd in range(cfg.max_rounds):
        g, h = _grad_hess(cfg.loss, margins, y)
        rows = np.arange(n)
        if cfg.subsample < 1.0:
            rows = np.sort(rng.choice(n, size=max(1, int(cfg.subsample * n)), replace=False))
        feats = np.arange(m)
        if cfg.colsample < 1.0:
            feats = np.sort(rng.choice(m, size=max(1, int(cfg.colsample * m)), replace=False))
        tree = oracle_grow_tree(cols, rows, feats, g, h, cfg)
        trees.append(tree)
        margins += tree.sweep(cols, tree.feature_set)
        margins_valid += tree.sweep(valid_data.columns, tree.feature_set)
        vloss = eval_loss(cfg.loss, margins_valid, valid_data.response)
        if vloss < best_loss:
            best_loss = vloss
            best_round = rnd
        elif cfg.early_stopping_rounds and rnd - best_round >= cfg.early_stopping_rounds:
            break
    if cfg.early_stopping_rounds:
        trees = trees[: best_round + 1]
    return Ensemble(trees=tuple(trees), n_features=m, objective=objective, base_score=base)


def model_bytes(model: Ensemble) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        write_model(model, path)
        return path.read_bytes()


def column(rng, kind, n):
    if kind == "tied":
        return np.round(rng.normal(size=n), 1)
    if kind == "constant":
        return np.full(n, float(rng.normal()))
    if kind == "binary":
        return rng.integers(0, 2, size=n).astype(float)
    if kind == "ternary":
        return rng.integers(0, 3, size=n).astype(float)
    return rng.normal(size=n)


def dataset(rng, kinds, n, loss):
    cols = np.array([column(rng, kind, n) for kind in kinds])
    if loss is LossKind.BINARY_CROSS_ENTROPY:
        y = rng.integers(0, 2, size=n).astype(float)
        y[:2] = (0.0, 1.0)
    else:
        y = np.round(cols[0] + rng.normal(size=n), 1)
    names = tuple(f"x{j}" for j in range(len(kinds)))
    return Dataset(names, cols, (FeatureKind.CONTINUOUS,) * len(kinds), y)


@st.composite
def training_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    loss = draw(st.sampled_from(list(LossKind)))
    kinds = draw(
        st.lists(
            st.sampled_from(["tied", "constant", "binary", "ternary", "normal"]),
            min_size=1,
            max_size=6,
        )
    )
    n = draw(st.integers(2, 60))
    train_data = dataset(rng, kinds, n, loss)
    valid_data = dataset(rng, kinds, draw(st.integers(2, 30)), loss)
    cfg = TrainConfig(
        learning_rate=draw(st.sampled_from([0.3, 1.0])),
        max_depth=draw(st.sampled_from([1, 2])),
        subsample=draw(st.sampled_from([1.0, 0.8, 0.5, 0.1])),
        colsample=draw(st.sampled_from([1.0, 0.7, 0.4])),
        reg_lambda=draw(st.sampled_from([0.0, 1.0])),
        min_gain=draw(st.sampled_from([0.0, 0.01, 0.5])),
        max_rounds=draw(st.integers(1, 6)),
        early_stopping_rounds=draw(st.integers(0, 2)),
        loss=loss,
        seed=draw(st.integers(0, 1000)),
    )
    return train_data, valid_data, cfg


@settings(max_examples=150, deadline=None)
@given(training_cases())
def test_presorted_trainer_writes_oracle_bytes(case):
    """Same model bytes, and every split search scans the same sorted
    (values, gradients, hessians): the second check catches a wrong order
    among tied values, which rarely changes the model."""
    train_data, valid_data, cfg = case
    seen_oracle, seen_trainer = [], []
    oracle_split, trainer_split = oracle_best_split, trainer._best_split

    def record_oracle(x, g, h, *args):
        order = np.argsort(x, kind="stable")
        seen_oracle.append((x[order], g[order], h[order]))
        return oracle_split(x, g, h, *args)

    def record_trainer(xs, gs, hs, *args):
        seen_trainer.append((xs.copy(), gs.copy(), hs.copy()))
        return trainer_split(xs, gs, hs, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys.modules[__name__], "oracle_best_split", record_oracle)
        mp.setattr(trainer, "_best_split", record_trainer)
        try:
            expected = model_bytes(oracle_train(train_data, valid_data, cfg))
        except ZeroDivisionError:
            # A saturated logistic leaf with reg_lambda 0: the oracle divides
            # by a zero hessian, the trainer reports it.
            with pytest.raises(NumericalError, match="zero hessian"):
                train(train_data, valid_data, cfg)
            return
        assert model_bytes(train(train_data, valid_data, cfg)) == expected
    assert len(seen_trainer) == len(seen_oracle)
    for got, want in zip(seen_trainer, seen_oracle):
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

