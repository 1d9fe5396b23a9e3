"""Exact conditional expectation of tree and ensemble outputs given a known
feature subset, under feature independence.

At a branch on a known feature the recursion follows the data branch; at a
branch on an unknown feature it mixes both children by the node's annotated
probabilities; at a leaf it returns the leaf value. No sampling is involved,
so results are exact given the annotation.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .dataset import Dataset
from .errors import InputError
from .tree_model import ROOT_ID, Ensemble, Tree


def _require_annotated(tree: Tree) -> None:
    if not tree.annotated:
        raise InputError("tree is not probability-annotated")


def tree_cond_exp_batch(
    tree: Tree,
    known: frozenset[int] | set[int],
    cols: np.ndarray,
) -> np.ndarray | float:
    """Vectorized per-row conditional expectation for one tree.

    ``cols`` is the (M, N) column matrix. Returns a scalar when no known
    feature appears in the tree (the value is row-independent), otherwise a
    length-N vector. Known-feature branches select with np.where, so each
    row's value is bit-identical to a scalar recursion over that row.
    """
    _require_annotated(tree)
    relevant = known.intersection(tree.feature_set)

    def rec(nid: int):
        node = tree.node(nid)
        if node.is_leaf:
            return node.leaf_value
        left = rec(node.left)
        right = rec(node.right)
        if node.feature in relevant:
            go_left = cols[node.feature] < node.threshold
            return np.where(go_left, left, right)
        p = node.prob_left
        return left * p + right * (1.0 - p)

    return rec(ROOT_ID)


def cond_exp_batch(
    ensemble: Ensemble,
    subset: Iterable[int],
    data: Dataset,
) -> np.ndarray:
    """Per-row, per-tree conditional expectations as an (N, T) matrix.

    Column tau holds the expectation of tree tau given that the features in
    ``subset`` take each row's observed values.
    """
    if data.n_cols != ensemble.n_features:
        raise InputError(
            f"dataset has {data.n_cols} features, model expects {ensemble.n_features}"
        )
    known = frozenset(subset)
    for f in known:
        if f < 0 or f >= ensemble.n_features:
            raise InputError(f"subset feature {f} out of range")
    out = np.empty((data.n_rows, ensemble.n_trees))
    for t, tree in enumerate(ensemble.trees):
        out[:, t] = tree_cond_exp_batch(tree, known, data.columns)
    return out
