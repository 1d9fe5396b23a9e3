"""Properties of the flat tree layout on random ragged trees of depth 1-5,
and a depth-1200 chain that every evaluator must handle without recursion.

The bottom-up sweep serves prediction (every feature known) and the
conditional expectation (some features known); both must agree bit for bit
with the row-by-row evaluations they replace.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from subsage import cli
from subsage.cond_expect import tree_cond_exp_batch
from subsage.dataset import Dataset, FeatureKind, write_csv
from subsage.tree_model import (
    Ensemble,
    Tree,
    annotate_probabilities,
    branch,
    leaf,
    load_model,
    predict_margin_batch,
    write_model,
)

from cond_exp_oracle import SubsetMask, cond_exp_tree, predict_margin
from test_engine_cells import cases


@settings(max_examples=40, deadline=None)
@given(cases(max_depth=5))
def test_batch_prediction_matches_rows_and_full_knowledge(case):
    ens, data, _, _ = case
    annotated = annotate_probabilities(ens, data)
    batch = predict_margin_batch(annotated, data)
    for i in range(data.n_rows):
        assert batch[i] == predict_margin(annotated, data.columns[:, i])
    every = frozenset(range(ens.n_features))
    total = np.full(data.n_rows, ens.base_score)
    for tree in annotated.trees:
        total += tree_cond_exp_batch(tree, every, data.columns)
    assert np.array_equal(batch, total)


@settings(max_examples=40, deadline=None)
@given(cases(max_depth=5), st.data())
def test_cond_exp_batch_matches_scalar_oracle(case, pick):
    ens, data, _, _ = case
    annotated = annotate_probabilities(ens, data)
    for tree in annotated.trees:
        known = frozenset(pick.draw(st.sets(st.integers(0, ens.n_features - 1))))
        batch = np.broadcast_to(tree_cond_exp_batch(tree, known, data.columns), data.n_rows)
        for i in range(data.n_rows):
            oracle = cond_exp_tree(tree, SubsetMask.from_row(data.columns[:, i], known))
            assert batch[i] == oracle


@settings(max_examples=30, deadline=None)
@given(cases(max_depth=5), st.booleans())
def test_model_file_round_trip_is_byte_stable(case, annotate):
    ens, data, _, _ = case
    if annotate:
        ens = annotate_probabilities(ens, data)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.json", Path(tmp) / "b.json"
        write_model(ens, first)
        write_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()


@settings(max_examples=30, deadline=None)
@given(cases(max_depth=6))
def test_leaf_steps_are_each_leaf_ancestors_root_first(case):
    ens, _, _, _ = case
    for tree in ens.trees:
        leaves, n_steps, steps, went_left = tree.leaf_steps
        assert leaves.tolist() == np.flatnonzero(tree.left < 0).tolist()
        parent = {
            int(child): pos
            for pos in np.flatnonzero(tree.left >= 0).tolist()
            for child in (tree.left[pos], tree.right[pos])
        }
        at = 0
        for node, n in zip(leaves.tolist(), n_steps.tolist()):
            path = []
            while node in parent:
                path.append((parent[node], bool(tree.left[parent[node]] == node)))
                node = parent[node]
            assert list(zip(steps[at : at + n].tolist(), went_left[at : at + n].tolist())) == path[::-1]
            at += n
        assert at == len(steps) == len(went_left)


def chain_tree(depth: int, n_split_features: int) -> Tree:
    """Branch i splits feature i % n_split_features at i: below it a leaf
    of value i, otherwise the next branch; the last right child is -1."""
    nodes = []
    for i in range(depth):
        right = i + 2 if i < depth - 1 else 2 * depth + 1
        nodes.append(branch(i + 1, i % n_split_features, float(i), depth + 1 + i, right))
        nodes.append(leaf(depth + 1 + i, float(i)))
    nodes.append(leaf(2 * depth + 1, -1.0))
    return Tree(nodes)


def test_depth_1200_chain(tmp_path):
    depth = 1200
    rng = np.random.default_rng(3)
    cols = rng.uniform(0.0, depth, size=(3, 40))
    data = Dataset(("x0", "x1", "x2"), cols, (FeatureKind.CONTINUOUS,) * 3, rng.normal(size=40))
    model = tmp_path / "chain.json"
    write_model(Ensemble(trees=(chain_tree(depth, 2),), n_features=3), model)
    ens = load_model(model)
    assert ens.max_depth == depth and (ens.trees[0].left < 0).sum() == depth + 1
    batch = predict_margin_batch(ens, data)
    for i in range(data.n_rows):
        x = cols[:, i]
        expect = next((float(j) for j in range(depth) if x[j % 2] < j), -1.0)
        assert predict_margin(ens, x) == expect == batch[i]

    csv = tmp_path / "data.csv"
    write_csv(data, csv)
    assert cli.main(["--quiet", "rank", "--model", str(model), "--data", str(csv)]) == 0
    code = cli.main([
        "--quiet", "subsage", "--model", str(model), "--test", str(csv), "--feature", "x0",
        "--bootstrap", "8", "--alpha", "0.125", "--out", str(tmp_path / "report.json"),
    ])
    assert code == 0
