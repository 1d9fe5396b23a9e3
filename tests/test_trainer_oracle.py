"""The presorted trainer against an oracle that argsorts every node.

The oracle is the split search the trainer used before it presorted its
columns: for each (node, feature) it stably argsorts the node's values and
scans the prefix sums. ``train`` must write the same model file, byte for
byte, on small datasets full of ties, constant columns and 0/1/2-valued
columns, for both losses, both depths, row and column subsampling, and a
positive minimum gain. The trainer skips a column with ties when a bound
from its per-value sums shows it cannot win the node; the tests check
that bound at every cut and attack it with cancelling gradients and
exactly tied gains.
"""

from __future__ import annotations

import hashlib
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsage.dataset import Dataset, FeatureKind
from subsage.errors import InputError, NumericalError
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


def oracle_bytes(train_data, valid_data, cfg):
    """The oracle's model bytes, or None once ``train`` is shown to raise
    the NumericalError that matches the oracle's failure."""
    try:
        return model_bytes(oracle_train(train_data, valid_data, cfg))
    except ZeroDivisionError:
        # A saturated logistic leaf with reg_lambda 0: the oracle divides
        # by a zero hessian, the trainer reports it.
        with pytest.raises(NumericalError, match="zero hessian"):
            train(train_data, valid_data, cfg)
    except (RuntimeWarning, InputError) as exc:
        # Or the hessian sum is tiny but not zero: the oracle's split
        # gain overflows, or its leaf step does and ``Tree`` refuses it.
        assert isinstance(exc, RuntimeWarning) or "is not finite" in str(exc)
        with pytest.raises(NumericalError, match="overflows; use reg_lambda > 0"):
            train(train_data, valid_data, cfg)
    return None


@settings(max_examples=150, deadline=None)
@given(training_cases())
def test_presorted_trainer_writes_oracle_bytes(case):
    """Same model bytes. Every split search the trainer makes scans the
    same sorted values, and the prefix sums of the same sorted gradients
    and hessians, as the oracle's search of that node and feature: this
    catches a wrong order among tied values, which rarely changes the
    model. A node may skip a column with ties, but only one whose oracle
    gain is below the split the node takes, or that has no split."""
    train_data, valid_data, cfg = case
    expected = oracle_bytes(train_data, valid_data, cfg)
    if expected is None:
        return
    cols = train_data.columns
    rounds = []
    grow, split, bound = trainer._grow_tree, trainer._best_split, trainer._tied_bounds

    def record_round(enc, rows, features, g, h, cfg):
        rounds.append((features, g, h, {}))
        return grow(enc, rows, features, g, h, cfg)

    def node(idx):
        return rounds[-1][3].setdefault(idx.tobytes(), (idx, {}))[1]

    def record_bound(sums, idx, *args):
        node(idx)
        return bound(sums, idx, *args)

    # The trainer scans row views of the training columns; a scan of any
    # other array has no feature index and fails here.
    feature_at = {cols[j].ctypes.data: j for j in range(len(cols))}

    def record_scan(col, order, g_prefix, h_prefix, *args):
        found = split(col, order, g_prefix, h_prefix, *args)
        assert col.ctypes.data in feature_at, "scanned an array that is not a training column"
        f = feature_at[col.ctypes.data]
        node(np.sort(order))[f] = (col[order], g_prefix.copy(), h_prefix.copy(), found)
        return found

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainer, "_grow_tree", record_round)
        mp.setattr(trainer, "_best_split", record_scan)
        mp.setattr(trainer, "_tied_bounds", record_bound)
        assert model_bytes(train(train_data, valid_data, cfg)) == expected
    for features, g, h, nodes in rounds:
        for idx, scans in nodes.values():
            chosen = max((s[3][0] for s in scans.values() if s[3] is not None), default=None)
            for f in features:
                x = cols[f][idx]
                if f not in scans:
                    skipped = oracle_best_split(x, g[idx], h[idx], cfg.reg_lambda, cfg.min_gain)
                    assert skipped is None or (chosen is not None and skipped[0] < chosen)
                    continue
                xs, g_prefix, h_prefix, _ = scans.pop(f)
                order = np.argsort(x, kind="stable")
                np.testing.assert_array_equal(xs, x[order])
                np.testing.assert_array_equal(g_prefix, np.cumsum(g[idx][order]))
                np.testing.assert_array_equal(h_prefix, np.cumsum(h[idx][order]))
            assert not scans, "scanned a feature the round did not draw"


@pytest.mark.parametrize("x, seed, message", [
    ((0.0, 2.0, 2.0, 1.0), 8, "node 1: split gain overflows"),
    ((0.0, 2.0, 2.0, 2.0), 18, "leaf 1 step overflows"),
])
def test_saturated_logistic_without_lambda_is_numerical_error(x, seed, message):
    """Four rows, two drawn per round, logistic loss, reg_lambda 0,
    learning rate 1, depth 1: in round 5 a saturated sigmoid leaves a
    hessian sum that is tiny but not zero, so the oracle's split gain or
    leaf step overflows, and the trainer names the node and the remedy."""
    data = Dataset(("x0",), np.array([x]), (FeatureKind.CONTINUOUS,), np.array([0.0, 1.0, 0.0, 0.0]))
    cfg = TrainConfig(
        learning_rate=1.0, max_depth=1, subsample=0.7, reg_lambda=0.0, max_rounds=5,
        loss=LossKind.BINARY_CROSS_ENTROPY, seed=seed,
    )
    train(data, data, replace(cfg, max_rounds=4))
    with pytest.raises((RuntimeWarning, InputError)):
        oracle_train(data, data, cfg)
    with pytest.raises(NumericalError, match=f"^{message}; use reg_lambda > 0$"):
        train(data, data, cfg)


# sha256 of the model file of one small fit per loss. How the node search
# gathers and sums its sorted inputs may change; the bytes it writes may not.
GOLDEN_MODEL_SHA256 = {
    LossKind.SQUARED_ERROR: "fb4b82e1bf8132a950ad9ec9f172c91318fb983d19cc33735d357f217eae5544",
    LossKind.BINARY_CROSS_ENTROPY: "ea550cf14f358ca6e8012e5e3400b6dd15375d588e87f0a5ea4b1cebb10362b8",
}


@pytest.mark.parametrize("loss", list(LossKind))
def test_small_fit_model_bytes_pinned(loss):
    rng = np.random.default_rng(2024)
    kinds = ["normal", "tied", "binary", "ternary", "constant", "normal"]
    train_data = dataset(rng, kinds, 300, loss)
    valid_data = dataset(rng, kinds, 100, loss)
    cfg = TrainConfig(
        learning_rate=0.3,
        max_depth=2,
        subsample=0.8,
        colsample=0.7,
        max_rounds=20,
        loss=loss,
        seed=11,
    )
    digest = hashlib.sha256(model_bytes(train(train_data, valid_data, cfg))).hexdigest()
    assert digest == GOLDEN_MODEL_SHA256[loss]


# sha256 of the model file of a genotype-shaped fit with p >> n: 2000
# columns of 0/1/2 on 150 rows, so every column has ties and every node
# screens them all. Like the pins above, these follow numpy's generators.
GOLDEN_SNP_MODEL_SHA256 = {
    LossKind.SQUARED_ERROR: "fa0d739ec08877e24ecc714f5f05e949e0289890e0933fb5eccdf6f1e051f4bc",
    LossKind.BINARY_CROSS_ENTROPY: "d86163bfcba53f39058090337c67b090b16c4b1aadacbc327f33cf8c0db19ae9",
}


def snp_dataset(rng, p, n, loss):
    cols = rng.integers(0, 3, size=(p, n)).astype(float)
    signal = cols[3] - cols[17] + 0.5 * cols[101] * cols[1500]
    if loss is LossKind.BINARY_CROSS_ENTROPY:
        y = (signal + rng.normal(size=n) > 0.5).astype(float)
        y[:2] = (0.0, 1.0)
    else:
        y = np.round(signal + rng.normal(size=n), 1)
    names = tuple(f"x{j}" for j in range(p))
    return Dataset(names, cols, (FeatureKind.CONTINUOUS,) * p, y)


@pytest.mark.parametrize("loss", list(LossKind))
def test_snp_fit_model_bytes_pinned(loss):
    rng = np.random.default_rng(2000)
    train_data = snp_dataset(rng, 2000, 150, loss)
    valid_data = snp_dataset(rng, 2000, 60, loss)
    cfg = TrainConfig(
        learning_rate=0.3,
        max_depth=2,
        subsample=0.8,
        colsample=0.5,
        max_rounds=8,
        loss=loss,
        seed=5,
    )
    digest = hashlib.sha256(model_bytes(train(train_data, valid_data, cfg))).hexdigest()
    assert digest == GOLDEN_SNP_MODEL_SHA256[loss]


# sha256 of the model file of a mid-size logistic fit: 3000 rows of 30
# normal and 30 0/1/2 columns. Its hessians are inexact floats, and its
# depth-1 nodes hold hundreds to thousands of rows, beyond the sizes the
# property tests draw. Like the pins above, it follows numpy's generators.
GOLDEN_LOGISTIC_MODEL_SHA256 = "5b9781ba9e2756f0a697a98a9485105b6ed9ea320500d3cabc2bea1bdea69d25"


def test_mid_size_logistic_fit_model_bytes_pinned():
    rng = np.random.default_rng(3000)

    def data(n):
        cols = np.concatenate([rng.normal(size=(30, n)), rng.integers(0, 3, size=(30, n)).astype(float)])
        signal = cols[0] - cols[30] + 0.5 * cols[5] * cols[41]
        y = (signal + rng.normal(size=n) > 0.0).astype(float)
        names = tuple(f"x{j}" for j in range(len(cols)))
        return Dataset(names, cols, (FeatureKind.CONTINUOUS,) * len(cols), y)

    train_data, valid_data = data(3000), data(500)
    cfg = TrainConfig(
        learning_rate=0.3,
        max_depth=2,
        subsample=0.7,
        colsample=0.8,
        max_rounds=20,
        loss=LossKind.BINARY_CROSS_ENTROPY,
        seed=9,
    )
    digest = hashlib.sha256(model_bytes(train(train_data, valid_data, cfg))).hexdigest()
    assert digest == GOLDEN_LOGISTIC_MODEL_SHA256


def attack_gradients(rng, n):
    """Gradients of magnitudes 1e-8 to 1e8, half of them the negatives of
    the other half, so that |sum g| is far below sum |g| on most subsets."""
    a = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-8, 8, size=n)
    a[n // 2 : 2 * (n // 2)] = -a[: n // 2] * (1.0 + 1e-9 * rng.normal(size=n // 2))
    return rng.permutation(a)


@st.composite
def tied_scans(draw):
    """A node's rows of one column with ties, split in two, with cancelling
    gradients and unit, logistic-like or partly zero hessians."""
    n = draw(st.integers(4, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(2, max(2, n // 2)))
    x = np.sort(rng.normal(size=k))[rng.integers(0, k, size=n)]
    if np.unique(x).size == n:
        x[1] = x[0]
    g = attack_gradients(rng, n) if draw(st.booleans()) else rng.normal(size=n)
    hess = draw(st.sampled_from(["unit", "logistic", "zeros"]))
    h = np.ones(n) if hess == "unit" else rng.uniform(1e-8, 0.25, size=n)
    if hess == "zeros":
        h[rng.random(n) < 0.3] = 0.0
    idx = np.flatnonzero(rng.random(n) < draw(st.sampled_from([1.0, 0.6])))
    left = rng.random(len(idx)) < draw(st.sampled_from([0.1, 0.5, 0.9]))
    return x, g, h, idx, left


@settings(max_examples=400, deadline=None)
@given(tied_scans(), st.sampled_from([0.0, 1.0]), st.sampled_from([0.0, 0.01, 3.0]))
def test_tied_bound_covers_every_cut(scan, lam, gamma):
    """At every cut of a column with ties, the bound at that value is at
    least the gain ``_best_split`` computes there, and the column's bound
    is at least the gain it returns: on a node from its own rows, and on
    each of its children both from the child's own rows and as the node's
    sums minus its sibling's, with the wider error scale of a difference."""
    x, g, h, idx, left = scan
    enc = trainer._encode(x[None])
    codes, groups = enc.codes, [(0, 1, int(enc.n_values[0]))]
    unit_h = bool((h == 1.0).all())

    def node_sums(rows):
        return trainer._node_sums(codes, groups, rows, g, h, unit_h)

    parent = node_sums(idx)
    cases = [(idx, parent)]
    for rows, sibling in ((idx[left], idx[~left]), (idx[~left], idx[left])):
        if len(rows) >= 2:
            cases.append((rows, node_sums(rows)))
            cases.append((rows, trainer._sibling_sums(parent, node_sums(sibling))))
    for rows, sums in cases:
        if len(rows) < 2:
            continue
        order = rows[np.argsort(x[rows], kind="stable")]
        gs, hs = np.cumsum(g[order]), np.cumsum(h[order])
        found = trainer._best_split(x, order, gs, hs, lam, gamma, False)
        column_bound = trainer._tied_bounds(sums, rows, lam, gamma)[0]
        assert found is None or column_bound >= found[0]
        bounds = trainer._gain_bounds(sums[0][0], sums[1], len(rows), lam, gamma)[0]
        xs = x[order]
        cut = np.flatnonzero(xs[:-1] < xs[1:])
        dl, dr = hs[cut] + lam, (hs[-1] - hs[cut]) + lam
        ok = (dl > 0.0) & (dr > 0.0)
        if not ok.any():
            continue
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            gains = trainer._gains(gs[-1], hs[-1], gs[cut[ok]], dl[ok], dr[ok], lam, gamma)
        at = bounds[codes[order[cut[ok]], 0]]
        finite = np.isfinite(gains)
        assert (at[finite] >= gains[finite]).all()
        assert not np.isfinite(at[~finite]).any()


@st.composite
def bound_attack_cases(draw):
    """Training sets made to break a loose bound or a wrong tie rule: a
    column without ties, a binary twin of it that cuts the rows exactly
    where it can (with small integer responses on a power-of-two row count
    the first round's sums are exact, so the two gains tie and the earlier
    column must win), a 0/1/2 column and its duplicate, a many-valued
    column, and under squared loss responses of magnitudes 1e-8 to 1e8
    that cancel."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    loss = draw(st.sampled_from(list(LossKind)))
    exact = draw(st.booleans())
    layout = draw(st.permutations(range(6)))

    def data(n):
        free = rng.permutation(n).astype(float)
        twin = (free >= rng.integers(1, n)).astype(float)
        snp = rng.integers(0, 3, size=n).astype(float)
        many = rng.integers(0, max(2, n // 3), size=n).astype(float)
        cols = np.array([free, twin, snp, snp, many, -twin])[list(layout)]
        if loss is LossKind.BINARY_CROSS_ENTROPY:
            y = rng.integers(0, 2, size=n).astype(float)
            y[:2] = (0.0, 1.0)
        elif exact:
            y = rng.integers(0, 4, size=n) + 2.0 * twin
        else:
            y = attack_gradients(rng, n) + 1e8 * twin
        names = tuple(f"x{j}" for j in range(len(cols)))
        return Dataset(names, cols, (FeatureKind.CONTINUOUS,) * len(cols), y)

    train_data = data(draw(st.sampled_from([16, 32, 64])))
    valid_data = data(16)
    cfg = TrainConfig(
        learning_rate=draw(st.sampled_from([0.5, 1.0])),
        max_depth=draw(st.sampled_from([1, 2])),
        subsample=draw(st.sampled_from([1.0, 0.5])),
        colsample=draw(st.sampled_from([1.0, 0.7])),
        reg_lambda=draw(st.sampled_from([0.0, 1.0])),
        min_gain=draw(st.sampled_from([0.0, 0.01, 0.5])),
        max_rounds=draw(st.integers(1, 4)),
        loss=loss,
        seed=draw(st.integers(0, 1000)),
    )
    return train_data, valid_data, cfg


@settings(max_examples=200, deadline=None)
@given(bound_attack_cases())
def test_bound_attacks_write_oracle_bytes(case):
    """Duplicated tied columns, a tied twin whose gain ties a column
    without ties exactly, and cancelling gradients: same model bytes as the
    oracle, which scans every column."""
    train_data, valid_data, cfg = case
    expected = oracle_bytes(train_data, valid_data, cfg)
    if expected is not None:
        assert model_bytes(train(train_data, valid_data, cfg)) == expected


def bits(found):
    return None if found is None else (np.float64(found[0]).tobytes(), found[1].tobytes())


@st.composite
def distinct_scans(draw):
    """A column without ties (some neighbours one ulp apart, so a midpoint
    can round onto an endpoint), its stable order, random gradients, and
    non-negative hessians with runs of zeros at either end."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = np.unique(np.round(rng.normal(size=3 * n), draw(st.sampled_from([1, 3, 12]))))
    if xs.size < n:
        xs = np.append(xs, xs[-1] + np.arange(1, n - xs.size + 1))
    xs = np.sort(rng.choice(xs, n, replace=False))
    for i in np.flatnonzero(rng.random(n - 1) < 0.2):
        xs[i + 1] = np.nextafter(xs[i], np.inf)
    col = rng.permutation(xs)
    order = np.argsort(col, kind="stable")
    g = np.round(rng.normal(size=n), draw(st.sampled_from([0, 1, 6])))
    h = rng.choice([0.0, 0.25, 1.0], size=n) if draw(st.booleans()) else rng.random(n)
    h[: draw(st.integers(0, 3))] = 0.0
    h[len(h) - draw(st.integers(0, 3)) :] = 0.0
    return col, order, g, h


@settings(max_examples=300, deadline=None)
@given(distinct_scans(), st.sampled_from([0.0, 1.0]), st.sampled_from([0.0, 0.01]))
def test_all_cuts_scan_equals_gathered_cuts(scan, lam, gamma):
    """On a column without ties, scanning every position as a cut gives
    bitwise the split that gathering the values and finding the cuts gives
    (there, every position), with or without per-node denominators, and
    both give the argsort oracle's."""
    col, order, g, h = scan
    gs, hs = np.cumsum(g[order]), np.cumsum(h[order])
    den = (hs[:-1] + lam, (hs[-1] - hs[:-1]) + lam)
    expected = bits(oracle_best_split(col, g, h, lam, gamma))
    for distinct in (False, True):
        for shared in (None, den):
            found = trainer._best_split(col, order, gs, hs, lam, gamma, distinct, shared)
            assert bits(found) == expected, (distinct, shared is None)


def mixed_columns(rng, n):
    """Columns without ties, with ties, of signed zeros, and without ties
    but for one -0.0/0.0 pair (a tie under the strict-below convention)."""
    zero_pair = rng.normal(size=n)
    zero_pair[rng.choice(n, 2, replace=False)] = (-0.0, 0.0)
    return np.array([
        rng.normal(size=n),
        np.round(rng.normal(size=n), 1),
        rng.choice([-0.0, 0.0, 0.5, -1.0], size=n),
        zero_pair,
        rng.permutation(n).astype(float),
    ])


@pytest.mark.parametrize("loss", list(LossKind))
@pytest.mark.parametrize("reg_lambda", [0.0, 1.0])
@pytest.mark.parametrize("seed", range(4))
def test_mixed_distinct_and_tied_columns_write_oracle_bytes(loss, reg_lambda, seed):
    """Same model bytes as the oracle on columns with and without ties; a
    scan skips the value gather only on a column without ties."""
    rng = np.random.default_rng(seed)

    def data(n):
        cols = mixed_columns(rng, n)
        if loss is LossKind.BINARY_CROSS_ENTROPY:
            y = (cols[0] + rng.normal(size=n) > 0).astype(float)
            y[:2] = (0.0, 1.0)
        else:
            y = np.round(cols[0] - cols[2] + rng.normal(size=n), 1)
        names = tuple(f"x{j}" for j in range(len(cols)))
        return Dataset(names, cols, (FeatureKind.CONTINUOUS,) * len(cols), y)

    train_data, valid_data = data(120), data(40)
    cfg = TrainConfig(
        learning_rate=0.3,
        max_depth=2,
        subsample=0.7,
        colsample=0.8,
        reg_lambda=reg_lambda,
        max_rounds=12,
        loss=loss,
        seed=seed,
    )
    no_ties = [np.unique(c).size == c.size for c in train_data.columns]
    assert no_ties == [True, False, False, False, True]
    flags = []
    trainer_split = trainer._best_split

    def record(col, order, gs, hs, lam, gamma, distinct, *args):
        flags.append(([np.array_equal(c, col) for c in train_data.columns].index(True), distinct))
        return trainer_split(col, order, gs, hs, lam, gamma, distinct, *args)

    expected = oracle_bytes(train_data, valid_data, cfg)
    if expected is None:
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainer, "_best_split", record)
        assert model_bytes(train(train_data, valid_data, cfg)) == expected
    assert flags and all(distinct == no_ties[j] for j, distinct in flags)


@pytest.mark.parametrize("loss", list(LossKind))
def test_many_valued_tied_column_keeps_exact_scan(loss):
    """A column with ties but more than 8 sqrt(n) values is not
    screened: every node that searches scans it exactly from its presorted
    rows, as a column with ties, and the model bytes are the oracle's."""
    rng = np.random.default_rng(5)

    def data(n):
        one_tie = rng.normal(size=n)
        one_tie[1] = one_tie[0]
        cols = np.array([one_tie, rng.integers(0, 3, size=n).astype(float), rng.normal(size=n)])
        if loss is LossKind.BINARY_CROSS_ENTROPY:
            y = (cols[0] + cols[1] + rng.normal(size=n) > 1.0).astype(float)
        else:
            y = np.round(cols[0] + cols[1] + rng.normal(size=n), 1)
        return Dataset(("x0", "x1", "x2"), cols, (FeatureKind.CONTINUOUS,) * 3, y)

    train_data, valid_data = data(600), data(100)
    enc = trainer._encode(train_data.columns)
    assert enc.distinct.tolist() == [False, False, True]
    assert enc.screened.tolist() == [False, True, False]
    cfg = TrainConfig(learning_rate=0.3, max_depth=2, subsample=0.8, max_rounds=8, loss=loss, seed=3)
    expected = oracle_bytes(train_data, valid_data, cfg)
    scans, searches = [], []
    split, bound = trainer._best_split, trainer._tied_bounds

    def record_scan(col, order, gs, hs, lam, gamma, distinct, *args):
        if col.ctypes.data == train_data.columns.ctypes.data:
            scans.append(distinct)
        return split(col, order, gs, hs, lam, gamma, distinct, *args)

    def record_bound(*args):
        searches.append(1)
        return bound(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainer, "_best_split", record_scan)
        mp.setattr(trainer, "_tied_bounds", record_bound)
        assert model_bytes(train(train_data, valid_data, cfg)) == expected
    assert searches and len(scans) == len(searches) and not any(scans)


def test_node_sums_pad_each_column_to_its_group():
    """Code columns ascend by value count, and a node's sums pad each
    column only to the widest count of its ``_value_groups`` run, which
    holds at most ``_BLOCK_FLOATS`` values unless it is one column: a
    column near 8 sqrt(n) values among a thousand 0/1/2 columns gets a run
    of its own. Every column's sums are its own per-value sums, padded
    with zeros."""
    rng = np.random.default_rng(11)
    n = 400
    wide = rng.integers(0, 150, size=n).astype(float)
    cols = np.concatenate([
        rng.integers(0, 3, size=(1000, n)).astype(float), [np.round(rng.normal(size=n))], wide[None],
    ])
    cols = cols[rng.permutation(len(cols))]
    enc = trainer._encode(cols)
    assert enc.screened.all() and np.all(np.diff(enc.n_values) >= 0) and enc.n_values[-1] > 100
    groups = trainer._value_groups(enc.n_values)
    assert groups == [(0, 1001, enc.n_values[1000]), (1001, 1002, enc.n_values[1001])]
    assert 1001 * enc.n_values[1000] <= trainer._BLOCK_FLOATS < 1002 * enc.n_values[1001]
    g, h = rng.normal(size=n), rng.uniform(0.1, 0.3, size=n)
    idx = np.sort(rng.choice(n, 300, replace=False))
    parts, _ = trainer._node_sums(enc.codes, groups, idx, g, h, False)
    for (lo, hi, width), part in zip(groups, parts, strict=True):
        assert part.shape == (3, hi - lo, width)
        for t in range(lo, hi):
            code = enc.codes[idx, t]
            for want, got in zip((np.bincount(code, g[idx], width), np.bincount(code, h[idx], width),
                                  np.bincount(code, minlength=width)), part[:, t - lo]):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("loss", list(LossKind))
def test_depth_two_tree_sums_root_and_smaller_child_rows(loss):
    """A depth-2 tree sums the per-value sums of its root's rows and of its
    smaller child's rows only; the larger child takes the root's sums minus
    the smaller's. Model bytes are the oracle's."""
    rng = np.random.default_rng(17)
    kinds = ["normal", "ternary", "binary", "tied", "ternary", "normal"]
    train_data = dataset(rng, kinds, 400, loss)
    valid_data = dataset(rng, kinds, 100, loss)
    cfg = TrainConfig(
        learning_rate=0.3, max_depth=2, subsample=0.8, colsample=0.7, max_rounds=12, loss=loss, seed=4,
    )
    expected = oracle_bytes(train_data, valid_data, cfg)
    trees = []
    grow, sums = trainer._grow_tree, trainer._node_sums

    def record_tree(enc, rows, *args):
        trees.append((len(rows), []))
        return grow(enc, rows, *args)

    def record_sums(codes, groups, idx, *args):
        trees[-1][1].append(len(idx))
        return sums(codes, groups, idx, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainer, "_grow_tree", record_tree)
        mp.setattr(trainer, "_node_sums", record_sums)
        assert model_bytes(train(train_data, valid_data, cfg)) == expected
    assert sum(len(summed) == 2 for _, summed in trees) >= len(trees) // 2
    for n, summed in trees:
        assert summed[:1] in ([], [n]) and len(summed) <= 2
        assert sum(summed) <= n + n // 2
