"""Exact interventional SHAP values for tree ensembles under feature
independence, and the ERFC summary score used to shortlist features.

Each tree is handled by enumerating all subsets of its own split features
and applying Shapley weights over that tree's feature count. Features
absent from a tree are null players there, so the per-tree result equals
the full-feature-space computation, and per-tree attributions sum across
trees by linearity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .cond_expect import tree_cond_exp_batch
from .dataset import Dataset
from .errors import InputError
from .tree_model import Ensemble


@dataclass(frozen=True)
class ShapMatrix:
    """Per-sample, per-feature SHAP values plus the shared base value.

    Local efficiency holds: phi0 + sum over features of phi[i] equals the
    margin prediction of row i (up to accumulation round-off).
    """

    phi: np.ndarray
    phi0: float


@dataclass(frozen=True)
class ErfcScores:
    """Expected relative feature contribution per feature, all >= 0."""

    kappa: np.ndarray


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
    phi = np.zeros((n, ensemble.n_features))
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
            phi[:, k] += col
    return ShapMatrix(phi=phi, phi0=phi0)


def erfc(shap: ShapMatrix) -> ErfcScores:
    """Aggregate |SHAP| shares into one non-negative score per feature.

    Each row contributes |phi_ik| divided by |phi0| plus the row's total
    absolute attribution; rows whose denominator is zero contribute nothing
    (the summand's limit as all attributions vanish).
    """
    if shap.phi.shape[0] < 1:
        raise InputError("erfc: empty SHAP matrix")
    abs_phi = np.abs(shap.phi)
    denom = abs(shap.phi0) + abs_phi.sum(axis=1)
    ok = denom > 0
    shares = np.zeros_like(abs_phi)
    shares[ok] = abs_phi[ok] / denom[ok, None]
    return ErfcScores(kappa=shares.sum(axis=0))


def rank_features(scores: ErfcScores, top: int) -> list[tuple[int, float]]:
    """Feature indices with the largest scores, descending; ties break by
    ascending feature index."""
    kappa = scores.kappa
    if top > len(kappa):
        raise InputError(f"top={top} exceeds {len(kappa)} features")
    order = sorted(range(len(kappa)), key=lambda k: (-kappa[k], k))
    return [(k, float(kappa[k])) for k in order[:top]]
