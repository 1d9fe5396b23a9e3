import itertools
from dataclasses import replace

import numpy as np
import pytest

from subsage.cond_expect import cond_exp_batch, tree_cond_exp_batch
from subsage.dataset import Dataset
from subsage.errors import InputError
from subsage.tree_model import (
    Ensemble,
    Tree,
    annotate_probabilities,
    branch,
    leaf,
)

from cond_exp_oracle import (
    SubsetMask,
    cond_exp_ensemble,
    cond_exp_tree,
    predict_margin,
    predict_tree,
)
from conftest import make_depth2, make_stump, random_dataset, random_ensemble


def product_enumeration_oracle(tree, mask: SubsetMask, data: Dataset) -> float:
    """Expectation of the tree output when each unknown in-tree feature is
    drawn independently from its empirical column distribution.

    Exhaustive: iterates every combination of observed values, N^u terms.
    Valid as an oracle only when no root-to-leaf path repeats a feature.
    """
    unknown = sorted(set(tree.feature_set) - set(mask.features))
    n = data.n_rows
    total = 0.0
    base_row = {f: mask.values[f] for f in mask.features}
    for combo in itertools.product(range(n), repeat=len(unknown)):
        row = dict(base_row)
        for f, i in zip(unknown, combo):
            row[f] = data.column(f)[i]
        x = [row.get(f, 0.0) for f in range(data.n_cols)]
        total += predict_tree(tree, x)
    return total / n ** len(unknown)


class TestCondExpTree:
    def test_fully_known_equals_prediction(self, rng):
        data = random_dataset(rng, 30, 3)
        ens = annotate_probabilities(random_ensemble(rng, data, 4, 2), data)
        for i in range(10):
            x = data.columns[:, i]
            mask = SubsetMask.from_row(x, range(3))
            for tree in ens.trees:
                assert cond_exp_tree(tree, mask) == predict_tree(tree, x)

    def test_hand_worked_two_feature_tree(self):
        # Root on feature 0 split at 20 with left probability 0.4;
        # feature 1 known with value 3 selects within each child.
        tree = Tree(
            [
                branch(1, 0, 20.0, 2, 3, prob_left=0.4),
                leaf(2, 1.0),
                leaf(3, 2.0),
            ]
        )
        mask = SubsetMask(frozenset({1}), {1: 3.0})
        assert cond_exp_tree(tree, mask) == pytest.approx(0.4 * 1.0 + 0.6 * 2.0, abs=1e-15)

    def test_empty_mask_is_leaf_probability_mix(self):
        tree = make_depth2(0, 0.0, 1, 0.0, 1, 0.0, (1.0, 2.0, 3.0, 4.0))
        probs = {1: 0.5, 2: 0.25, 3: 0.75}
        tree = Tree(n if n.is_leaf else replace(n, prob_left=probs[n.id]) for n in tree.nodes_sorted())
        expected = 0.5 * (0.25 * 1 + 0.75 * 2) + 0.5 * (0.75 * 3 + 0.25 * 4)
        assert cond_exp_tree(tree, SubsetMask.empty()) == pytest.approx(expected, abs=1e-15)

    def test_unannotated_rejected(self):
        tree = make_stump(0, 1.0, -1.0, 1.0)
        with pytest.raises(InputError, match="annotated"):
            cond_exp_tree(tree, SubsetMask.empty())

    def test_mask_values_must_match_features(self):
        with pytest.raises(InputError, match="cover exactly"):
            SubsetMask(frozenset({0, 1}), {0: 1.0})


class TestCondExpEnsemble:
    def test_full_mask_equals_predict_margin(self, rng):
        data = random_dataset(rng, 40, 4)
        ens = annotate_probabilities(
            random_ensemble(rng, data, 6, 2, base_score=0.5), data
        )
        for i in range(100):
            x = data.columns[:, i % 40]
            mask = SubsetMask.from_row(x, range(4))
            assert cond_exp_ensemble(ens, mask) == predict_margin(ens, x)

    def test_duplicated_tree_linearity(self, rng):
        data = random_dataset(rng, 25, 2)
        tree = annotate_probabilities(
            Ensemble(trees=(make_stump(0, 0.0, -2.0, 3.0),), n_features=2), data
        ).trees[0]
        double = Ensemble(trees=(tree, tree), n_features=2, base_score=0.7)
        single = Ensemble(trees=(tree,), n_features=2)
        mask = SubsetMask.empty()
        assert cond_exp_ensemble(double, mask) == pytest.approx(
            2.0 * cond_exp_ensemble(single, mask) + 0.7, abs=1e-15
        )

    def test_matches_product_enumeration(self, rng):
        # Distinct features per path so per-node marginal mixing is exact.
        data = random_dataset(rng, 20, 4)
        tree = make_depth2(0, 0.1, 1, -0.2, 2, 0.3, (1.0, -1.0, 2.0, 0.5))
        ens = annotate_probabilities(Ensemble(trees=(tree,), n_features=4), data)
        annotated = ens.trees[0]
        for features in [(), (0,), (1,), (0, 2), (3,)]:
            mask = SubsetMask.from_row(data.columns[:, 3], features)
            oracle = product_enumeration_oracle(annotated, mask, data)
            assert cond_exp_tree(annotated, mask) == pytest.approx(oracle, abs=1e-9)


class TestCondExpBatch:
    def test_unannotated_tree_rejected(self, rng):
        data = random_dataset(rng, 5, 2)
        with pytest.raises(InputError, match="tree is not probability-annotated"):
            tree_cond_exp_batch(make_stump(0, 0.0, -1.0, 1.0), {0}, data.columns)

    @pytest.mark.parametrize("f", [-1, 3])
    def test_subset_feature_out_of_range(self, rng, f):
        data = random_dataset(rng, 5, 3)
        ens = annotate_probabilities(random_ensemble(rng, data, 2, 2), data)
        with pytest.raises(InputError, match=f"subset feature {f} out of range"):
            cond_exp_batch(ens, {0, f}, data)

    def test_single_row_matches_scalar(self, rng):
        data = random_dataset(rng, 1, 3)
        ens = annotate_probabilities(random_ensemble(rng, data, 5, 2), data)
        out = cond_exp_batch(ens, {0, 2}, data)
        mask = SubsetMask.from_row(data.columns[:, 0], (0, 2))
        for t, tree in enumerate(ens.trees):
            assert out[0, t] == cond_exp_tree(tree, mask)

    def test_matches_rowwise_recomputation(self, rng):
        data = random_dataset(rng, 20, 5)
        ens = annotate_probabilities(random_ensemble(rng, data, 10, 2), data)
        subset = (1, 3)
        out = cond_exp_batch(ens, subset, data)
        assert out.shape == (20, 10)
        for i in range(20):
            mask = SubsetMask.from_row(data.columns[:, i], subset)
            for t, tree in enumerate(ens.trees):
                assert out[i, t] == cond_exp_tree(tree, mask)

    def test_tree_without_subset_features_is_constant(self, rng):
        data = random_dataset(rng, 15, 4)
        stump = make_stump(0, 0.0, -1.0, 2.0)
        ens = annotate_probabilities(Ensemble(trees=(stump,), n_features=4), data)
        out = cond_exp_batch(ens, {2, 3}, data)
        empty = cond_exp_tree(ens.trees[0], SubsetMask.empty())
        np.testing.assert_array_equal(out[:, 0], np.full(15, empty))


class TestInvariants:
    def test_single_split_bounds(self, rng):
        data = random_dataset(rng, 30, 1)
        stump = make_stump(0, 0.0, -3.0, 5.0)
        ens = annotate_probabilities(Ensemble(trees=(stump,), n_features=1), data)
        tree = ens.trees[0]
        v_known = [
            cond_exp_tree(tree, SubsetMask.from_row([x], [0]))
            for x in (-1.0, 1.0)
        ]
        assert set(v_known) == {-3.0, 5.0}
        v_empty = cond_exp_tree(tree, SubsetMask.empty())
        assert -3.0 <= v_empty <= 5.0

    def test_subset_consistency_for_absent_features(self, rng):
        data = random_dataset(rng, 25, 5)
        tree = make_depth2(0, 0.0, 1, 0.0, 1, 0.5, (1, 2, 3, 4))
        ens = annotate_probabilities(Ensemble(trees=(tree,), n_features=5), data)
        x = data.columns[:, 7]
        small = SubsetMask.from_row(x, (0,))
        large = SubsetMask.from_row(x, (0, 3, 4))
        assert cond_exp_tree(ens.trees[0], small) == cond_exp_tree(ens.trees[0], large)

    def test_leaf_path_probability_mass(self, rng):
        data = random_dataset(rng, 50, 4)
        ens = annotate_probabilities(random_ensemble(rng, data, 8, 2), data)
        for tree in ens.trees:
            masses = []

            def walk(nid, acc):
                node = tree.node(nid)
                if node.is_leaf:
                    masses.append(acc)
                    return
                walk(node.left, acc * node.prob_left)
                walk(node.right, acc * (1.0 - node.prob_left))

            walk(1, 1.0)
            assert sum(masses) == pytest.approx(1.0, abs=1e-12)
