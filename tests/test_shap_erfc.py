import math
from itertools import combinations

import numpy as np
import pytest

from subsage.dataset import Dataset, FeatureKind
from subsage.errors import InputError
from subsage.shap_erfc import ShapMatrix, erfc, rank_features, shap_exact
from subsage.tree_model import (
    Ensemble,
    annotate_probabilities,
    predict_margin,
)

from cond_exp_oracle import SubsetMask, cond_exp_tree
from conftest import make_depth2, make_stump, random_dataset, random_ensemble


def brute_force_tree_shap(tree, x) -> dict[int, float]:
    """Shapley values of one tree at one row by direct subset enumeration.

    Weights use the binomial-coefficient route, 1 / (p * C(p-1, s)), and
    subsets run smallest-first and lexicographically, matching the
    production accumulation order term for term.
    """
    feats = tree.feature_set
    p = len(feats)
    out = {}
    for k in feats:
        others = tuple(f for f in feats if f != k)
        total = 0.0
        for size in range(len(others) + 1):
            for sub in combinations(others, size):
                w = 1.0 / (p * math.comb(p - 1, size))
                with_k = tuple(sorted((*sub, k)))
                total += w * (
                    cond_exp_tree(tree, SubsetMask.from_row(x, with_k))
                    - cond_exp_tree(tree, SubsetMask.from_row(x, sub))
                )
        out[k] = total
    return out


class TestShapExact:
    def test_single_stump_hand_shapley(self, rng):
        data = random_dataset(rng, 40, 3)
        ens = annotate_probabilities(
            Ensemble(trees=(make_stump(1, 0.0, -1.0, 2.0),), n_features=3), data
        )
        shap = shap_exact(ens, data)
        tree = ens.trees[0]
        baseline = cond_exp_tree(tree, SubsetMask.empty())
        for i in range(data.n_rows):
            x = data.columns[:, i]
            # One player: its value is the full prediction minus the mean.
            assert shap.phi[i, 1] == pytest.approx(tree.predict(x) - baseline, abs=1e-12)
            assert shap.phi[i, 0] == 0.0
            assert shap.phi[i, 2] == 0.0

    def test_efficiency_every_row(self, rng):
        data = random_dataset(rng, 60, 5)
        ens = annotate_probabilities(
            random_ensemble(rng, data, 12, 2, base_score=1.5), data
        )
        shap = shap_exact(ens, data)
        for i in range(data.n_rows):
            x = data.columns[:, i]
            total = shap.phi0 + shap.phi[i].sum()
            assert total == pytest.approx(predict_margin(ens, x), abs=1e-9)

    def test_matches_brute_force_exactly(self, rng):
        data = random_dataset(rng, 25, 4)
        tree = make_depth2(1, 0.0, 2, 0.3, 2, -0.2, (1.0, -2.0, 0.5, 3.0))
        ens = annotate_probabilities(Ensemble(trees=(tree,), n_features=4), data)
        shap = shap_exact(ens, data)
        for i in range(data.n_rows):
            oracle = brute_force_tree_shap(ens.trees[0], data.columns[:, i])
            for k, value in oracle.items():
                assert shap.phi[i, k] == value

    def test_symmetry_between_interchangeable_features(self, rng):
        # Two features with identical columns split by mirrored stumps.
        col = rng.normal(size=50)
        data = Dataset(
            ("a", "b"),
            np.vstack([col, col]),
            (FeatureKind.CONTINUOUS,) * 2,
            rng.normal(size=50),
        )
        trees = (make_stump(0, 0.2, -1.0, 1.0), make_stump(1, 0.2, -1.0, 1.0))
        ens = annotate_probabilities(Ensemble(trees=trees, n_features=2), data)
        shap = shap_exact(ens, data)
        np.testing.assert_allclose(shap.phi[:, 0], shap.phi[:, 1], atol=1e-9)

    def test_dummy_feature_identically_zero(self, rng):
        data = random_dataset(rng, 30, 6)
        ens = annotate_probabilities(random_ensemble(rng, data, 8, 2), data)
        used = {f for tree in ens.trees for f in tree.feature_set}
        unused = sorted(set(range(6)) - used)
        shap = shap_exact(ens, data)
        for k in unused:
            assert np.all(shap.phi[:, k] == 0.0)

    def test_additivity_across_trees(self, rng):
        data = random_dataset(rng, 20, 3)
        ens = annotate_probabilities(random_ensemble(rng, data, 2, 2), data)
        one = Ensemble(trees=(ens.trees[0],), n_features=3)
        two = Ensemble(trees=(ens.trees[1],), n_features=3)
        full = shap_exact(ens, data)
        parts = shap_exact(one, data).phi + shap_exact(two, data).phi
        np.testing.assert_array_equal(full.phi, parts)

    def test_unannotated_rejected(self, rng):
        data = random_dataset(rng, 10, 2)
        ens = Ensemble(trees=(make_stump(0, 0.0, -1, 1),), n_features=2)
        with pytest.raises(InputError, match="annotated"):
            shap_exact(ens, data)


class TestErfc:
    def test_single_row_direct(self):
        shap = ShapMatrix(phi=np.array([[1.0, 1.0]]), phi0=1.0)
        np.testing.assert_allclose(erfc(shap), [1 / 3, 1 / 3])

    def test_zero_column_zero_score(self):
        shap = ShapMatrix(phi=np.array([[1.0, 0.0], [2.0, 0.0]]), phi0=0.5)
        kappa = erfc(shap)
        assert kappa[1] == 0.0
        assert kappa[0] > 0.0

    def test_zero_denominator_rows_contribute_nothing(self):
        shap = ShapMatrix(phi=np.array([[0.0, 0.0], [1.0, 3.0]]), phi0=0.0)
        np.testing.assert_allclose(erfc(shap), [0.25, 0.75])

    def test_unnormalized_sum_over_rows(self):
        # Two identical rows double the score of one row.
        one = ShapMatrix(phi=np.array([[2.0, 1.0]]), phi0=1.0)
        two = ShapMatrix(phi=np.array([[2.0, 1.0], [2.0, 1.0]]), phi0=1.0)
        np.testing.assert_allclose(erfc(two), 2 * erfc(one))


class TestRankFeatures:
    def test_descending(self):
        assert rank_features(np.array([0.1, 0.5, 0.3]), 2) == [(1, 0.5), (2, 0.3)]

    def test_tie_breaks_by_index(self):
        ranked = rank_features(np.array([0.2, 0.0, 0.0, 0.7, 0.2, 0.1, 0.0, 0.2]), 8)
        assert ranked[0] == (3, 0.7)
        assert [k for k, _ in ranked[1:4]] == [0, 4, 7]

    def test_full_ranking_is_permutation(self, rng):
        kappa = rng.random(12)
        ranked = rank_features(kappa, 12)
        assert sorted(k for k, _ in ranked) == list(range(12))

    def test_top_bounded(self):
        with pytest.raises(InputError, match="exceeds"):
            rank_features(np.ones(3), 4)
