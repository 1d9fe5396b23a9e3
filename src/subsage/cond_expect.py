"""Exact conditional expectation of tree and ensemble outputs given a known
feature subset, under feature independence.

``Tree.sweep`` evaluates each tree bottom-up: a branch on a known feature
follows the data branch, a branch on an unknown feature mixes both children
by the node's annotated probabilities. No sampling is involved, so results
are exact given the annotation.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .dataset import Dataset
from .errors import InputError
from .tree_model import Ensemble, Tree


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
    if not tree.annotated:
        raise InputError("tree is not probability-annotated")
    return tree.sweep(cols, known)


def cond_exp_batch(
    ensemble: Ensemble,
    subset: Iterable[int],
    data: Dataset,
) -> np.ndarray:
    """Per-row, per-tree conditional expectations as an (N, T) matrix.

    Column tau holds the expectation of tree tau given that the features in
    ``subset`` take each row's observed values.
    """
    ensemble.check_width(data)
    known = frozenset(subset)
    for f in known:
        if f < 0 or f >= ensemble.n_features:
            raise InputError(f"subset feature {f} out of range")
    out = np.empty((data.n_rows, ensemble.n_trees))
    for t, tree in enumerate(ensemble.trees):
        out[:, t] = tree_cond_exp_batch(tree, known, data.columns)
    return out
