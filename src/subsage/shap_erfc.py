"""Exact interventional SHAP values for tree ensembles under feature
independence, and the ERFC summary score used to shortlist features.

Each tree is handled by enumerating all subsets of its own split features
and applying Shapley weights over that tree's feature count. Features
absent from a tree are null players there, so the per-tree result equals
the full-feature-space computation, and per-tree attributions sum across
trees by linearity.

A feature no tree splits on has SHAP value 0 in every row, so the SHAP
matrix keeps only the used features' columns and ERFC streams its rows in
blocks: memory follows the features the model uses, not p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .cond_expect import tree_cond_exp_batch
from .dataset import Dataset
from .errors import InputError
from .estimator import _BLOCK_FLOATS
from .tree_model import Ensemble


@dataclass(frozen=True)
class ShapMatrix:
    """Per-sample SHAP values of the used features plus the shared base
    value.

    Column j of ``phi`` holds the SHAP values of feature ``features[j]``;
    ``features`` ascends, and each of the ``n_features`` features it does
    not list has SHAP value 0 in every row. By default every feature has
    a column, in feature order. Local efficiency holds: phi0 + phi[i].sum()
    equals the margin prediction of row i (up to accumulation round-off).
    """

    phi: np.ndarray
    phi0: float
    features: np.ndarray | None = None
    n_features: int | None = None

    def __post_init__(self):
        width = self.phi.shape[1]
        f = np.arange(width) if self.features is None else np.asarray(self.features)
        object.__setattr__(self, "features", f)
        if self.n_features is None:
            object.__setattr__(self, "n_features", width)
        if len(f) != width or width and (
            f[0] < 0 or f[-1] >= self.n_features or (f[1:] <= f[:-1]).any()
        ):
            raise InputError("ShapMatrix: need one ascending, in-range feature index per column")


def shapley_weight(subset_size: int, n_players: int) -> float:
    """|S|! (p - |S| - 1)! / p! for a p-player game."""
    return math.factorial(subset_size) * math.factorial(n_players - subset_size - 1) / math.factorial(n_players)


def _subsets_in_order(features: tuple[int, ...]):
    """All subsets, smallest first, lexicographic within a size."""
    for size in range(len(features) + 1):
        yield from combinations(features, size)


def shap_exact(ensemble: Ensemble, data: Dataset) -> ShapMatrix:
    """Exact SHAP matrix for every row of ``data``.

    The ensemble must be probability-annotated with the same data the
    scores are computed on. Cost is O(2^|features of tree|) per tree, which
    is small for shallow trees and exact by linearity.
    """
    if not ensemble.annotated:
        raise InputError("ensemble is not probability-annotated")
    ensemble.check_width(data)
    n = data.n_rows
    used = sorted(set().union(*(tree.feature_set for tree in ensemble.trees)))
    slot = {f: j for j, f in enumerate(used)}
    phi = np.zeros((n, len(used)))
    phi0 = ensemble.base_score
    for tree in ensemble.trees:
        feats = tree.feature_set
        values = {
            sub: tree_cond_exp_batch(tree, frozenset(sub), data.columns)
            for sub in _subsets_in_order(feats)
        }
        phi0 += float(values[()])
        p = len(feats)
        for k in feats:
            others = tuple(f for f in feats if f != k)
            # Fresh per-tree column so that summing single-tree matrices
            # reproduces the multi-tree result bit for bit.
            col = np.zeros(n)
            for sub in _subsets_in_order(others):
                with_k = tuple(sorted((*sub, k)))
                w = shapley_weight(len(sub), p)
                col += w * (np.asarray(values[with_k]) - np.asarray(values[sub]))
            phi[:, slot[k]] += col
    return ShapMatrix(phi, phi0, np.array(used, dtype=np.intp), ensemble.n_features)


def erfc(shap: ShapMatrix) -> np.ndarray:
    """Aggregate |SHAP| shares into one non-negative score per feature, the
    expected relative feature contribution kappa, of length n_features.

    Each row contributes |phi_ik| divided by |phi0| plus the row's total
    absolute attribution; rows whose denominator is zero contribute nothing
    (the summand's limit as all attributions vanish). Features without a
    column score exactly 0. Rows stream through blocks of about
    ``_BLOCK_FLOATS`` values, and each score is bitwise the axis-0 sum of
    the dense rows x n_features matrix of shares.
    """
    phi, used, p = shap.phi, shap.features, shap.n_features
    n, u = phi.shape
    if n < 1:
        raise InputError("erfc: empty SHAP matrix")
    # numpy sums an axis-0 reduction row after row, except over a single
    # column, which it sums pairwise; so one feature takes all rows in one
    # block, and a spare column keeps a lone used one of many in row order.
    step = n if p == 1 else min(n, max(1, _BLOCK_FLOATS // p))
    shares = np.zeros((step, max(u, min(p, 2))))
    # A row's total is summed over its full width, zeros in place, because
    # numpy's pairwise row sum groups values by position.
    wide = np.zeros((step, p))
    carry = np.zeros(shares.shape[1])
    for lo in range(0, n, step):
        part = shares[: min(step, n - lo)]
        a = part[:, :u]
        np.abs(phi[lo : lo + len(part)], out=a)
        row = wide[: len(part)]
        row[:, used] = a
        denom = abs(shap.phi0) + row.sum(axis=1)
        ok = denom > 0
        np.divide(a, denom[:, None], out=a, where=ok[:, None])
        a[~ok] = 0.0
        # Carrying the running sum into row 0 adds the blocks' rows as one
        # axis-0 sum over all rows would.
        part[0] += carry
        part.sum(axis=0, out=carry)
    kappa = np.zeros(p)
    kappa[used] = carry[:u]
    return kappa


def rank_features(kappa: np.ndarray, top: int) -> list[tuple[int, float]]:
    """Feature indices with the largest scores, descending; ties break by
    ascending feature index."""
    if top < 1:
        raise InputError(f"top={top} must be at least 1")
    if top > len(kappa):
        raise InputError(f"top={top} exceeds {len(kappa)} features")
    bad = np.flatnonzero(~np.isfinite(kappa))
    if bad.size:
        raise InputError(f"rank_features: score {bad[0]} is not finite ({kappa[bad[0]]})")
    order = sorted(range(len(kappa)), key=lambda k: (-kappa[k], k))
    return [(k, float(kappa[k])) for k in order[:top]]
