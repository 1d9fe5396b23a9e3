"""Scalar conditional-expectation recursion, the reference for the
package's batch evaluators.

At a branch on a known feature the recursion follows the data branch; at a
branch on an unknown feature it mixes both children by the node's annotated
probabilities; at a leaf it returns the leaf value. With every feature
known this is prediction, which ``predict_tree`` and ``predict_margin``
take from the package's sweep for one row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from subsage.errors import InputError
from subsage.tree_model import ROOT_ID, Ensemble, Tree


@dataclass(frozen=True)
class SubsetMask:
    """A known feature subset S together with the observed values x_S."""

    features: frozenset[int]
    values: Mapping[int, float]

    def __post_init__(self):
        object.__setattr__(self, "features", frozenset(self.features))
        if set(self.values) != set(self.features):
            raise InputError("SubsetMask values must cover exactly the masked features")

    @classmethod
    def from_row(cls, row, features: Iterable[int]) -> "SubsetMask":
        feats = frozenset(features)
        return cls(feats, {f: float(row[f]) for f in feats})

    @classmethod
    def empty(cls) -> "SubsetMask":
        return cls(frozenset(), {})


def cond_exp_tree(tree: Tree, mask: SubsetMask) -> float:
    """Expected tree output given the masked features, exact."""
    if not tree.annotated:
        raise InputError("tree is not probability-annotated")
    known = mask.features
    values = mask.values

    def rec(nid: int) -> float:
        node = tree.node(nid)
        if node.is_leaf:
            return node.leaf_value
        if node.feature in known:
            if values[node.feature] < node.threshold:
                return rec(node.left)
            return rec(node.right)
        p = node.prob_left
        return rec(node.left) * p + rec(node.right) * (1.0 - p)

    return rec(ROOT_ID)


def cond_exp_ensemble(ensemble: Ensemble, mask: SubsetMask) -> float:
    """base_score plus the sum of per-tree conditional expectations."""
    total = ensemble.base_score
    for tree in ensemble.trees:
        total += cond_exp_tree(tree, mask)
    return total


def predict_tree(tree: Tree, x) -> float:
    """One tree's output for one feature row: the sweep with every feature known."""
    out = tree.sweep(np.asarray(x, dtype=np.float64)[:, None], tree.feature_set)
    return float(np.ravel(out)[0])


def predict_margin(ensemble: Ensemble, x) -> float:
    """Raw additive output for one feature row."""
    total = ensemble.base_score
    for tree in ensemble.trees:
        total += predict_tree(tree, x)
    return total
