"""Property tests of the cell-id sub-SAGE engine on random ragged trees.

Every weighted estimate must equal the plain estimate on the dataset the
weights stand for, and every per-subset delta the naive mean-loss
difference built from ``cond_exp_batch``. Gaps are measured relative to
the larger of the two values and the loss scale of the data, so that an
estimate that is zero up to rounding compares on the scale of its terms.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsage import cli, estimator
from subsage.cond_expect import cond_exp_batch
from subsage.dataset import Dataset, FeatureKind, ResampleIndex, resample, write_csv
from subsage.estimator import (
    _BLOCK_FLOATS,
    LossKind,
    SubSageEngine,
    _blocks,
    _pack,
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

from cells_oracle import sorted_cells
from conftest import make_depth2, make_stump, random_dataset, random_ensemble
from row_kernel import RowKernel, cell_codes, row_ids
from slot_engine import SlotEngine, leaf_paths

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


def cell_probs(engine, weights):
    """The engine's branch probabilities under ``weights``, read off the
    grid marginals of its joint-cell weight sums."""
    w, total = engine._weights(weights)
    sw, _ = engine._cell_sums(w)
    return engine._grid_probs(sw, total)


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
    a time, from each class's dense (leaves, depth) paths. Coefficients are
    returned in the engine's order: most unknown steps first, ties in class
    order."""

    def _classes(self, tree, a, b, inv):
        out = super()._classes(tree, a, b, inv)
        depth = max(1, self.ensemble.max_depth)
        one = 2 * len(self._p0)
        self._padded, self._padded_values = [], []
        for t, fa, fb, flip in zip(tree.tolist(), a.tolist(), b.tolist(), inv.tolist()):
            leaves, path, left = leaf_paths(self.ensemble.trees[t])
            tid = np.append(self._node_tid[t], -1)[path]
            feat = np.append(self.ensemble.trees[t].feature, -1)[path]
            fixed = (tid < 0) | (((feat == fa) | (feat == fb)) != flip)
            cols = np.full((len(leaves), depth), one)
            cols[:, : tid.shape[1]] = np.where(fixed, one, np.where(left, tid, tid + one // 2))
            self._padded.append(cols.T)
            self._padded_values.append(self.ensemble.trees[t].value[leaves])
        return out

    def _coefficients(self, p):
        pp = np.concatenate((p, 1.0 - p, (1.0,)))
        padded = np.hstack(self._padded)
        coef = np.concatenate(self._padded_values)
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
        p = engine._p0 if weights is None else cell_probs(engine, weights)
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


class WholeMatrixEngine(RowKernel, SubSageEngine):
    """The engine's cells and tables with the per-row draw kernel of
    ``row_kernel``, gathering through its rows' cell codes."""

    def __init__(self, ensemble, data, k, loss):
        super().__init__(ensemble, data, k, loss)
        if k in self.used_features:
            self._ids = row_ids(self)


# At this many rows a block of the counting pass holds BLOCK code rows.
WIDE = 9001
BLOCK = _BLOCK_FLOATS // WIDE


@st.composite
def block_cases(draw, s):
    """(annotated ensemble, data, k, loss) whose ragged trees, of depth up
    to 6, use k and exactly ``s`` other features, over few rows or over
    ``WIDE``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = max(3, s + 1 + draw(st.integers(0, 2)))
    n = draw(st.sampled_from((7, 40, WIDE)))
    binary = draw(st.booleans())
    data = random_dataset(rng, n, m, binary_response=binary)
    k = draw(st.integers(0, m - 1))
    used = [k, *rng.choice([j for j in range(m) if j != k], s, replace=False).tolist()]
    trees = [
        ragged_tree(rng, data, draw(st.integers(1, 6)), used)
        for _ in range(draw(st.integers(1, 6)))
    ]
    missing = set(used).difference(*(tree.feature_set for tree in trees))
    trees += [
        make_stump(f, float(np.median(data.column(f))), float(rng.normal()), float(rng.normal()))
        for f in sorted(missing)
    ]
    ens = Ensemble(
        trees=tuple(trees),
        n_features=m,
        objective="binary-logistic" if binary else "regression",
        base_score=float(rng.normal()),
    )
    loss = LossKind.BINARY_CROSS_ENTROPY if binary else LossKind.SQUARED_ERROR
    return annotate_probabilities(ens, data), data, k, loss


@pytest.mark.parametrize("s", sorted({0, 1, BLOCK - 2, BLOCK - 1, BLOCK, 2 * BLOCK}))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_blocked_draws_equal_whole_matrix_kernel(s, data):
    """Joint-cell draws against the per-row kernel over the same cells and
    tables: branch probabilities bitwise equal under integer weights, and
    per-subset deltas and point estimates within RTOL on the loss scale."""
    ens, test, k, loss = data.draw(block_cases(s))
    engine = SubSageEngine(ens, test, k, loss)
    oracle = WholeMatrixEngine(ens, test, k, loss)
    assert len(engine._singles) == s
    scale = loss_scale(ens, test, loss)
    n = test.n_rows
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    jackknife = np.ones(n)
    jackknife[rng.integers(n)] = 0.0
    bootstrap = np.bincount(rng.integers(0, n, n), minlength=n).astype(np.float64)
    for weights in (None, np.ones(n), bootstrap, jackknife):
        if weights is not None:
            np.testing.assert_array_equal(
                cell_probs(engine, weights), oracle._probs(*oracle._weights(weights))
            )
        for a, b in zip(engine._delta_rows(weights), oracle._delta_rows(weights), strict=True):
            assert_close(a, b, scale)
        fast, slow = engine.estimate(weights), oracle.estimate(weights)
        assert_close(fast.psi_hat, slow.psi_hat, scale)
        for subset, delta in slow.per_subset_deltas.items():
            assert_close(fast.per_subset_deltas[subset], delta, scale)


def test_blocks_cover_rows():
    for width in (7, 200, 3200, WIDE, 16_000, 10**6):
        size = max(1, _BLOCK_FLOATS // width)
        for n_rows in range(1, 4 * min(size, 20) + 3):
            spans = _blocks(n_rows, width)
            assert [lo for lo, _ in spans] == [0, *(hi for _, hi in spans[:-1])]
            assert spans[-1][1] == n_rows
            sizes = [hi - lo for lo, hi in spans]
            assert max(sizes) <= size
            assert len(spans) == -(-n_rows // size)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_draws_are_bitwise_equal_under_block_sizes(data):
    """Each cell's sums come from the one block holding its code row, each
    subset's gaps from one sum over its cells, and the rest rows add in
    order across blocks, so the block size changes no bit: the default (one
    block here), one that leaves a lone code row in the last block, one that
    gives each code row its own block, and blocks of two rows, whose rest
    rows carry their running sum. Bootstrap, jackknife and fractional
    weights under both losses, with a rest space per tree of tau_k."""
    s = data.draw(st.integers(2, 8))
    ens, test, k, loss = data.draw(block_cases(s))
    n = test.n_rows
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    jackknife = np.ones(n)
    jackknife[rng.integers(n)] = 0.0
    bootstrap = np.bincount(rng.integers(0, n, n), minlength=n).astype(np.float64)
    fractional = rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.8)
    fractional[0] = 0.5
    runs = []
    cases = ((_BLOCK_FLOATS, [s + 1]), (s * n, [s, 1]), (n, [1] * (s + 1)), (2 * n, None))
    for floats, sizes in cases:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimator, "_REST_CELLS", 1)
            mp.setattr(estimator, "_BLOCK_FLOATS", floats)
            engine = SubSageEngine(ens, test, k, loss)
            assert sizes in (None, [hi - lo for lo, hi in engine._code_blocks])
            runs.append([
                (engine.estimate(w), engine.psi_for_weights(w))
                for w in (None, bootstrap, jackknife, fractional)
            ])
    assert all(run == runs[0] for run in runs)


def bst_tree(feature, cuts, rng):
    """A tree over one feature splitting at every one of the sorted
    ``cuts``, each node at the median of the cuts it covers."""
    nodes = []

    def grow(nid, cuts):
        if not len(cuts):
            nodes.append(leaf(nid, float(rng.normal())))
            return
        mid = len(cuts) // 2
        nodes.append(branch(nid, feature, float(cuts[mid]), 2 * nid, 2 * nid + 1))
        grow(2 * nid, cuts[:mid])
        grow(2 * nid + 1, cuts[mid + 1 :])

    grow(1, cuts)
    return Tree(nodes)


def test_draw_memory_of_joint_cells_near_the_rows():
    # k and each of 100 other features split at 64 = sqrt(n) cuts, so the
    # joint cells of a singleton occupy most of the 65 x 65 cell pairs and
    # all cells together approach the code rows; three depth-2 trees give
    # pair lattices and rest rows. A draw holds two floats per occupied
    # cell, the working arrays of one block at a time, the tables and the
    # rest rows (the bound in the README's "How draws are computed").
    rng = np.random.default_rng(20)
    n, m = 4096, 101
    data = random_dataset(rng, n, m)
    levels = np.arange(1, 65) / 65
    trees = [bst_tree(f, np.quantile(data.column(f), levels), rng) for f in range(m)]
    median = lambda f: float(np.median(data.column(f)))
    trees += [
        make_depth2(0, median(0), f, median(f), f + 1, median(f + 1), tuple(rng.normal(size=4)))
        for f in (1, 3, 5)
    ]
    ens = annotate_probabilities(Ensemble(trees=tuple(trees), n_features=m), data)
    engine = SubSageEngine(ens, data, 0, LossKind.SQUARED_ERROR)
    cells = engine._cell0[-1]
    assert (len(engine._singles), engine._n_pairs, engine._n_rest) == (100, 6, 1)
    assert cells > 0.5 * engine._codes.size
    weights = np.bincount(rng.integers(0, n, n), minlength=n).astype(np.float64)
    tracemalloc.start()
    try:
        engine.psi_for_weights(weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tables = 3 * len(engine._leaf_value) + len(engine._entry_at) + 2 * engine._n_slots
    bound = 8 * (2 * cells + 6 * _BLOCK_FLOATS + tables + 8 * n)
    assert peak < bound, (peak, bound)


def test_draw_memory_does_not_grow_with_used_features():
    # 80 used features besides k over 20 000 rows: a whole-matrix draw
    # gathers 160-odd rows of 160 kB and its loss terms four arrays of
    # half that, about 40 MB traced; blocks of about 1 MB need about 3 MB.
    rng = np.random.default_rng(12)
    n, m = 20_000, 82
    data = random_dataset(rng, n, m)
    median = lambda f: float(np.median(data.column(f)))
    trees = [make_stump(f, median(f), float(rng.normal()), float(rng.normal())) for f in range(1, m - 1)]
    trees += [
        make_depth2(0, median(0), f, median(f), f + 1, median(f + 1), tuple(rng.normal(size=4)))
        for f in range(1, 20, 2)
    ]
    ens = annotate_probabilities(Ensemble(trees=tuple(trees), n_features=m), data)
    engine = SubSageEngine(ens, data, 0, LossKind.SQUARED_ERROR)
    s = len(engine._singles)
    assert (s, engine._n_pairs) == (80, 20)
    assert engine._codes.shape == (s + 1, n)
    assert engine._rest_ids.shape == (engine._n_rest, n)
    weights = np.bincount(rng.integers(0, n, n), minlength=n).astype(np.float64)
    tracemalloc.start()
    try:
        engine.psi_for_weights(weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


def test_gather_ids_stay_inside_the_table():
    """Draws gather the rest rows with ``np.take(..., mode='clip')``, which
    would clamp an out-of-range id silently, and count each block of code
    rows into that block's cells with ``bincount``, which would grow past
    them; every rest id and cell slot must index the n_slots-long table a
    draw builds, and each code row must number only its own subset's cells.
    Random ragged engines of both losses, with pair and rest rows."""
    seen = set()
    for seed in range(60):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 7))
        binary = bool(seed % 2)
        data = random_dataset(rng, int(rng.integers(4, 40)), m, binary_response=binary)
        pool = range(int(rng.integers(1, m + 1)))
        trees = tuple(
            ragged_tree(rng, data, int(rng.integers(1, 6)), pool)
            for _ in range(int(rng.integers(1, 9)))
        )
        ens = Ensemble(
            trees=trees,
            n_features=m,
            objective="binary-logistic" if binary else "regression",
            base_score=float(rng.normal()),
        )
        loss = LossKind.BINARY_CROSS_ENTROPY if binary else LossKind.SQUARED_ERROR
        k = int(rng.integers(0, m))
        engine = SubSageEngine(annotate_probabilities(ens, data), data, k, loss)
        if k not in engine.used_features:
            continue
        ids = np.concatenate([engine._rest_ids.ravel(), engine._cell_slots.ravel()])
        assert engine._rest_ids.shape[0] == engine._n_rest
        assert 0 <= ids.min() and ids.max() < engine._n_slots
        cell0 = np.asarray(engine._cell0)
        assert len(cell0) == len(engine._singles) + 2
        codes = cell_codes(engine)
        assert (codes.min(axis=1) >= cell0[:-1]).all()
        assert (codes.max(axis=1) < cell0[1:]).all()
        seen.add((loss, engine._n_pairs > 0, engine._n_rest > 0))
    for loss in LossKind:
        assert {(loss, True, True), (loss, False, False)} <= seen


def sorting_engine(ensemble, data, k, loss):
    """The engine with its cells ranked by ``np.unique`` over the codes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SubSageEngine, "_cells", sorted_cells)
        return SubSageEngine(ensemble, data, k, loss)


def assert_cells_match_sorting(ensemble, data, k, loss, seed):
    """Cell ids, table entries and draws of the engine equal those of the
    sorting ranking bit for bit."""
    engine = SubSageEngine(ensemble, data, k, loss)
    oracle = sorting_engine(ensemble, data, k, loss)
    if k not in engine.used_features:
        return
    for name in ("_codes", "_rest_ids", "_cell_slots", "_entry_at", "_entry_src"):
        np.testing.assert_array_equal(getattr(engine, name), getattr(oracle, name), strict=True)
    n = data.n_rows
    rng = np.random.default_rng(seed)
    jackknife = np.ones(n)
    jackknife[rng.integers(n)] = 0.0
    for weights in (None, np.bincount(rng.integers(0, n, n), minlength=n).astype(float), jackknife):
        if weights is None or weights.sum() > 0:
            assert engine.psi_for_weights(weights) == oracle.psi_for_weights(weights)


@settings(max_examples=60, deadline=None)
@given(cases(max_depth=6), st.integers(0, 2**32 - 1))
def test_dense_cell_ranking_equals_sorting(case, seed):
    ens, data, k, loss = case
    assert_cells_match_sorting(annotate_probabilities(ens, data), data, k, loss, seed)


@pytest.mark.parametrize("loss", list(LossKind))
def test_code_bound_passing_row_count_mid_space(loss):
    # Five rows and two depth-3 trees rooted at k = 0, one splitting
    # feature 1 at six cuts, the other features 2 and 3 at two cuts each.
    # Their rest space leaves k's cut out; its code bound reaches 7 > 5
    # after feature 1, and again passes 5 after feature 2, so codes are
    # ranked before features 2 and 3 are added.
    rng = np.random.default_rng(3)
    binary = loss is LossKind.BINARY_CROSS_ENTROPY
    data = random_dataset(rng, 5, 4, binary_response=binary)
    q = lambda f, level: float(np.quantile(data.column(f), level))
    trees = []
    for splits in (
        ((2, 1, 0.25), (3, 1, 0.75), (4, 1, 0.1), (5, 1, 0.4), (6, 1, 0.6), (7, 1, 0.9)),
        ((2, 2, 0.3), (3, 3, 0.3), (4, 2, 0.7), (5, 3, 0.7), (6, 2, 0.7), (7, 3, 0.7)),
    ):
        nodes = [branch(1, 0, q(0, 0.5), 2, 3)]
        for nid, f, level in splits:
            nodes.append(branch(nid, f, q(f, level), 2 * nid, 2 * nid + 1))
        trees.append(Tree(nodes + [leaf(nid, float(rng.normal())) for nid in range(8, 16)]))
    ens = annotate_probabilities(Ensemble(
        trees=tuple(trees), n_features=4,
        objective="binary-logistic" if binary else "regression",
    ), data)
    ranks_per_space = []
    dense_rank, cells = estimator._dense_rank, SubSageEngine._cells

    def counting_cells(self, tids):
        ranks_per_space.append(0)
        # Only the ranks inside a space count, not those of the joint cells.
        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(estimator, "_dense_rank", counting_rank)
            return cells(self, tids)

    def counting_rank(code, bound):
        ranks_per_space[-1] += 1
        return dense_rank(code, bound)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SubSageEngine, "_cells", counting_cells)
        SubSageEngine(ens, data, 0, loss)
    assert max(ranks_per_space) == 3, ranks_per_space
    assert_cells_match_sorting(ens, data, 0, loss, 4)


@pytest.mark.parametrize("loss", list(LossKind))
def test_sixty_three_split_features_in_one_space(loss):
    # A complete depth-6 tree whose 63 branch nodes each split another
    # feature at its median: the rest space, over the 62 features besides
    # k, has 2**62 codes, and ranking whenever the bound passes the 40 rows
    # keeps every partial code small.
    rng = np.random.default_rng(63)
    binary = loss is LossKind.BINARY_CROSS_ENTROPY
    data = random_dataset(rng, 40, 63, binary_response=binary)
    nodes = [
        branch(nid, nid - 1, float(np.median(data.column(nid - 1))), 2 * nid, 2 * nid + 1)
        for nid in range(1, 64)
    ]
    nodes += [leaf(nid, float(rng.normal())) for nid in range(64, 128)]
    tree = Tree(nodes)
    assert tree.depth == 6 and len(tree.feature_set) == 63
    ens = annotate_probabilities(Ensemble(
        trees=(tree,), n_features=63,
        objective="binary-logistic" if binary else "regression",
    ), data)
    assert_cells_match_sorting(ens, data, 0, loss, 5)


@pytest.mark.parametrize("loss", list(LossKind))
def test_rest_space_of_trees_splitting_only_on_k(loss):
    """Trees that split on k alone give a rest space of one cell: their
    margin given every feature but k is the same on every row. With a cap
    of one cell they form a group of their own, next to depth-2 trees whose
    leaf boxes are unbounded on one side or on a whole feature; with the
    engine's cap all share one group. Either way every per-subset delta
    matches the naive loss difference, and weighted draws the replicates."""
    rng = np.random.default_rng(15)
    binary = loss is LossKind.BINARY_CROSS_ENTROPY
    data = random_dataset(rng, 30, 4, binary_response=binary)
    q = lambda f, level: float(np.quantile(data.column(f), level))
    values = lambda: [float(v) for v in rng.normal(size=4)]
    trees = (
        make_stump(0, q(0, 0.5), 0.7, -0.4),
        make_depth2(0, q(0, 0.3), 0, q(0, 0.1), 0, q(0, 0.8), values()),
        make_depth2(0, q(0, 0.5), 1, q(1, 0.4), 2, q(2, 0.6), values()),
        make_depth2(1, q(1, 0.5), 0, q(0, 0.2), 2, q(2, 0.3), values()),
        make_depth2(3, q(3, 0.5), 1, q(1, 0.7), 2, q(2, 0.5), values()),
    )
    ens = Ensemble(
        trees=trees, n_features=4, base_score=0.3,
        objective="binary-logistic" if binary else "regression",
    )
    annotated = annotate_probabilities(ens, data)
    family = build_subset_family(4, 0)
    scale = loss_scale(ens, data, loss)
    for cap, n_rest in ((1, 3), (estimator._REST_CELLS, 1)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimator, "_REST_CELLS", cap)
            engine = SubSageEngine(annotated, data, 0, loss)
            assert engine._n_rest == n_rest
            first = engine._rest_ids[0]
            assert (len(np.unique(first)) == 1) == (cap == 1)
            est = engine.estimate()
            for subset in family.subsets:
                naive = naive_delta(annotated, 0, subset, data, loss)
                assert_close(est.per_subset_deltas[subset], naive, scale)
            check_replicates(ens, data, 0, loss, range(1, 4))


@settings(max_examples=60, deadline=None)
@given(cases(max_depth=6), st.integers(0, 2**32 - 1))
def test_corner_tables_match_slot_reference(case, seed):
    """Corner-filled tables against the per-cell slot fill of
    ``slot_engine``: the same branch probabilities, and the same per-subset
    deltas, point estimate and draws within RTOL on the loss scale, for
    plain, bootstrap and jackknife weights."""
    ens, data, k, loss = case
    annotated = annotate_probabilities(ens, data)
    engine = SubSageEngine(annotated, data, k, loss)
    oracle = SlotEngine(annotated, data, k, loss)
    if k not in engine.used_features:
        assert engine.estimate() == oracle.estimate()
        return
    scale = loss_scale(ens, data, loss)
    n = data.n_rows
    rng = np.random.default_rng(seed)
    jackknife = np.ones(n)
    jackknife[rng.integers(n)] = 0.0
    bootstrap = np.bincount(rng.integers(0, n, n), minlength=n).astype(float)
    for weights in (None, bootstrap, jackknife):
        if weights is not None and weights.sum() == 0:
            continue
        if weights is not None:
            np.testing.assert_array_equal(
                cell_probs(engine, weights), oracle._probs(*oracle._weights(weights))
            )
        for a, b in zip(engine._delta_rows(weights), oracle._delta_rows(weights)):
            assert_close(a, b, scale)
        fast, slow = engine.estimate(weights), oracle.estimate(weights)
        assert_close(fast.psi_hat, slow.psi_hat, scale)
        for subset, delta in slow.per_subset_deltas.items():
            assert_close(fast.per_subset_deltas[subset], delta, scale)


def grid_and_pair_entries(engine) -> int:
    """Table entries outside the rest spaces: grid rows, the empty set's
    slot and the pair lattices, which come before the rest tables."""
    rest = engine._rest_ids
    return int(np.count_nonzero(engine._entry_at < (rest.min() if rest.size else engine._n_slots)))


def test_grid_and_pair_entries_grow_with_trees_not_rows():
    """Corner entries depend on the leaf boxes alone: the same trees give
    the same count over 200 rows and over 3200, at most one entry per
    leaf for the empty set's slot plus three per (leaf, split feature) for
    the grids and nine per (leaf, feature other than k) of each tree that
    splits on k for the pairs; so the count per tree stays level as trees
    are added."""
    rng = np.random.default_rng(14)
    big = random_dataset(rng, 3200, 12)
    small = big.take_rows(np.arange(200))
    counts, trees = [], ()
    for n_trees in (10, 20, 40):
        trees += random_ensemble(rng, big, n_trees - len(trees), 4, feature_pool=range(12)).trees
        ens = Ensemble(trees=trees, n_features=12)
        built = [
            SubSageEngine(annotate_probabilities(ens, d), d, 0, LossKind.SQUARED_ERROR)
            for d in (small, big)
        ]
        assert grid_and_pair_entries(built[0]) == grid_and_pair_entries(built[1])
        bound = sum(
            len(tree.value[tree.left < 0])
            * (1 + 3 * len(tree.feature_set) + 9 * (len(tree.feature_set) - 1) * (0 in tree.feature_set))
            for tree in trees
        )
        counts.append(grid_and_pair_entries(built[1]))
        assert counts[-1] <= bound
    per_tree = [c / n for c, n in zip(counts, (10, 20, 40))]
    assert max(per_tree) <= 1.25 * min(per_tree), counts


def test_packed_lattices_are_disjoint_and_at_most_half_padding():
    rng = np.random.default_rng(3)
    for n in (0, 1, 2, 7, 40):
        dims = rng.integers(1, 50, size=(2, n)) ** rng.integers(1, 3, size=(2, n)) // 10 + 1
        origin, stride, blocks, end = _pack(dims, 5)
        taken = np.zeros(end, int)
        for i in range(n):
            rows = origin[i] + stride[i] * np.arange(dims[0, i])
            taken[(rows[:, None] + np.arange(dims[1, i])).ravel()] += 1
            assert stride[i] >= dims[1, i]
            assert any(lo <= origin[i] and origin[i] + stride[i] * dims[0, i] <= hi for lo, hi, _ in blocks)
        assert taken.max(initial=0) <= 1 and not taken[:5].any()
        assert [lo for lo, _, _ in blocks] == [5, *(hi for _, hi, _ in blocks)][: len(blocks)]
        assert end == (blocks[-1][1] if blocks else 5)
        assert all(hi - lo == np.prod(shape) for lo, hi, shape in blocks)
        assert end - 5 <= 2 * int(dims.prod(axis=0).sum())
