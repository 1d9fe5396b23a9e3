import math
import tracemalloc
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsage.cond_expect import tree_cond_exp_batch
from subsage.dataset import Dataset, FeatureKind
from subsage.errors import InputError
from subsage.shap_erfc import (
    ShapMatrix,
    _subsets_in_order,
    erfc,
    rank_features,
    shap_exact,
    shapley_weight,
)
from subsage.tree_model import (
    Ensemble,
    Tree,
    annotate_probabilities,
    leaf,
    predict_margin_batch,
)

from cond_exp_oracle import SubsetMask, cond_exp_tree, predict_margin, predict_tree
from conftest import dense_phi, make_depth2, make_stump, random_dataset, random_ensemble
from test_engine_cells import cases, ragged_tree


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
        phi = dense_phi(shap_exact(ens, data))
        tree = ens.trees[0]
        baseline = cond_exp_tree(tree, SubsetMask.empty())
        for i in range(data.n_rows):
            x = data.columns[:, i]
            # One player: its value is the full prediction minus the mean.
            assert phi[i, 1] == pytest.approx(predict_tree(tree, x) - baseline, abs=1e-12)
            assert phi[i, 0] == 0.0
            assert phi[i, 2] == 0.0

    def test_efficiency_every_row(self, rng):
        data = random_dataset(rng, 60, 5)
        ens = annotate_probabilities(
            random_ensemble(rng, data, 12, 2, base_score=1.5), data
        )
        shap = shap_exact(ens, data)
        phi = dense_phi(shap)
        for i in range(data.n_rows):
            x = data.columns[:, i]
            total = shap.phi0 + phi[i].sum()
            assert total == pytest.approx(predict_margin(ens, x), abs=1e-9)

    def test_matches_brute_force_exactly(self, rng):
        data = random_dataset(rng, 25, 4)
        tree = make_depth2(1, 0.0, 2, 0.3, 2, -0.2, (1.0, -2.0, 0.5, 3.0))
        ens = annotate_probabilities(Ensemble(trees=(tree,), n_features=4), data)
        phi = dense_phi(shap_exact(ens, data))
        for i in range(data.n_rows):
            oracle = brute_force_tree_shap(ens.trees[0], data.columns[:, i])
            for k, value in oracle.items():
                assert phi[i, k] == value

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
        phi = dense_phi(shap_exact(ens, data))
        np.testing.assert_allclose(phi[:, 0], phi[:, 1], atol=1e-9)

    def test_dummy_feature_identically_zero(self, rng):
        data = random_dataset(rng, 30, 6)
        ens = annotate_probabilities(random_ensemble(rng, data, 8, 2), data)
        used = {f for tree in ens.trees for f in tree.feature_set}
        unused = sorted(set(range(6)) - used)
        phi = dense_phi(shap_exact(ens, data))
        for k in unused:
            assert np.all(phi[:, k] == 0.0)

    def test_additivity_across_trees(self, rng):
        data = random_dataset(rng, 20, 3)
        ens = annotate_probabilities(random_ensemble(rng, data, 2, 2), data)
        one = Ensemble(trees=(ens.trees[0],), n_features=3)
        two = Ensemble(trees=(ens.trees[1],), n_features=3)
        full = shap_exact(ens, data)
        parts = dense_phi(shap_exact(one, data)) + dense_phi(shap_exact(two, data))
        np.testing.assert_array_equal(dense_phi(full), parts)

    def test_unannotated_rejected(self, rng):
        data = random_dataset(rng, 10, 2)
        ens = Ensemble(trees=(make_stump(0, 0.0, -1, 1),), n_features=2)
        with pytest.raises(InputError, match="annotated"):
            shap_exact(ens, data)


class TestErfc:
    def test_empty_matrix_rejected(self):
        with pytest.raises(InputError, match="erfc: empty SHAP matrix"):
            erfc(ShapMatrix(phi=np.zeros((0, 2)), phi0=0.0))

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


def dense_shap(ensemble, data):
    """SHAP values as a rows x p matrix, one column per feature, each
    accumulated over trees in ``shap_exact``'s order."""
    phi = np.zeros((data.n_rows, ensemble.n_features))
    phi0 = ensemble.base_score
    for tree in ensemble.trees:
        feats = tree.feature_set
        values = {
            sub: tree_cond_exp_batch(tree, frozenset(sub), data.columns)
            for sub in _subsets_in_order(feats)
        }
        phi0 += float(values[()])
        for k in feats:
            col = np.zeros(data.n_rows)
            for sub in _subsets_in_order(tuple(f for f in feats if f != k)):
                with_k = tuple(sorted((*sub, k)))
                w = shapley_weight(len(sub), len(feats))
                col += w * (np.asarray(values[with_k]) - np.asarray(values[sub]))
            phi[:, k] += col
    return phi, phi0


def dense_erfc(phi, phi0):
    """ERFC over a dense rows x p matrix with rows x p temporaries."""
    abs_phi = np.abs(phi)
    denom = abs(phi0) + abs_phi.sum(axis=1)
    ok = denom > 0
    shares = np.zeros_like(abs_phi)
    shares[ok] = abs_phi[ok] / denom[ok, None]
    return shares.sum(axis=0)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def ragged_case(objective):
    """Random ragged ensembles of depth up to 6 with ``objective``,
    annotated on their data."""
    return cases(max_depth=6).filter(lambda case: case[0].objective == objective).map(
        lambda case: (annotate_probabilities(case[0], case[1]), case[1])
    )


def margin_scale(ens) -> float:
    """The largest margin the ensemble can give: |base| plus each tree's
    largest |leaf|."""
    return abs(ens.base_score) + sum(float(np.abs(tree.value).max()) for tree in ens.trees)


def with_columns(data, cols) -> Dataset:
    names = tuple(f"x{j}" for j in range(len(cols)))
    return Dataset(names, cols, (FeatureKind.CONTINUOUS,) * len(cols), data.response)


OBJECTIVES = pytest.mark.parametrize("objective", ["regression", "binary-logistic"])


class TestShapOnRaggedTrees:
    """SHAP's properties on random ragged ensembles (ties, repeated
    features along a path, depth up to 6), for both objectives."""

    @OBJECTIVES
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_efficiency(self, objective, data):
        ens, rows = data.draw(ragged_case(objective))
        shap = shap_exact(ens, rows)
        margin = predict_margin_batch(ens, rows)
        gap = np.abs(shap.phi0 + shap.phi.sum(axis=1) - margin)
        assert gap.max() <= 1e-9 * margin_scale(ens)

    @OBJECTIVES
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_dummy_copy_of_column_zero(self, objective, data):
        ens, rows = data.draw(ragged_case(objective))
        wider = with_columns(rows, np.vstack((rows.columns, rows.columns[:1])))
        shap = shap_exact(replace(ens, n_features=ens.n_features + 1), wider)
        phi = dense_phi(shap)
        assert np.all(phi[:, -1] == 0.0)
        assert same_bits(phi[:, :-1], dense_phi(shap_exact(ens, rows)))

    @OBJECTIVES
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_symmetry_under_relabeling(self, objective, data):
        ens, rows = data.draw(ragged_case(objective))
        perm = np.array(data.draw(st.permutations(range(ens.n_features))))
        label = np.argsort(perm)  # new label of each old feature
        trees = tuple(
            Tree([n if n.is_leaf else replace(n, feature=int(label[n.feature]))
                  for n in tree.nodes_sorted()])
            for tree in ens.trees
        )
        relabeled = shap_exact(replace(ens, trees=trees), with_columns(rows, rows.columns[perm]))
        gap = np.abs(dense_phi(relabeled) - dense_phi(shap_exact(ens, rows))[:, perm])
        assert gap.max() <= 1e-12 * margin_scale(ens)

    @OBJECTIVES
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_equals_brute_force(self, objective, data):
        ens, rows = data.draw(ragged_case(objective))
        phi = dense_phi(shap_exact(ens, rows))
        for i in range(min(rows.n_rows, 6)):
            expected = np.zeros(ens.n_features)
            for tree in ens.trees:
                for k, value in brute_force_tree_shap(tree, rows.columns[:, i]).items():
                    expected[k] += value
            assert phi[i].tolist() == expected.tolist()


# (p, rows, size of the split-feature pool, deepest tree). numpy sums a
# one-column matrix's axis 0 pairwise and a wider one row by row; blocks
# hold 2**17 // p rows, so 40 x 9000 and 3000 x 150 take several and
# 140 000 x 3 takes one row each, while one feature over 140 000 rows keeps
# one block; a pool of 0 leaves only leaf trees.
SHAPES = [
    (1, 300, 1, 3),
    (1, 140_000, 1, 2),
    (2, 257, 1, 2),
    (40, 9000, 6, 5),
    (3000, 150, 5, 4),
    (140_000, 3, 4, 3),
    (500, 1, 5, 5),
    (7, 60, 7, 1),
    (50, 20, 0, 0),
]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("p,n,pool_size,depth", SHAPES)
def test_compact_columns_and_streamed_erfc_equal_dense_formulas(p, n, pool_size, depth, seed):
    rng = np.random.default_rng(seed)
    data = random_dataset(rng, n, p)
    pool = rng.choice(p, size=pool_size, replace=False)
    trees = tuple(
        ragged_tree(rng, data, int(rng.integers(1, depth + 1)), pool) if pool_size
        else Tree([leaf(1, float(rng.normal()))])
        for _ in range(int(rng.integers(1, 9)))
    )
    ens = annotate_probabilities(
        Ensemble(trees=trees, n_features=p, base_score=float(rng.normal())), data
    )
    shap = shap_exact(ens, data)
    phi, phi0 = dense_shap(ens, data)
    used = sorted({f for tree in trees for f in tree.feature_set})
    assert shap.features.tolist() == used and shap.n_features == p
    assert shap.phi.shape == (n, len(used)) and shap.phi0 == phi0
    assert same_bits(dense_phi(shap), phi)
    assert same_bits(erfc(shap), dense_erfc(phi, phi0))
    # phi0 = 0 and rows of zeros: their denominators vanish.
    zeroed = shap.phi.copy()
    zeroed[::3] = 0.0
    compact = ShapMatrix(zeroed, 0.0, shap.features, p)
    assert same_bits(erfc(compact), dense_erfc(dense_phi(compact), 0.0))


def test_rank_memory_follows_used_features():
    """p = 5000 features over 2000 rows and 60 random depth-2 trees: the
    SHAP matrix keeps only the used columns and ERFC one block of rows."""
    rng = np.random.default_rng(5)
    data = random_dataset(rng, 2000, 5000)
    ens = annotate_probabilities(random_ensemble(rng, data, 60, 2), data)
    tracemalloc.start()
    try:
        kappa = erfc(shap_exact(ens, data))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kappa.shape == (5000,)
    assert peak < 16e6, peak


class TestShapMatrixColumns:
    def test_two_positional_arguments_mean_every_feature(self):
        shap = ShapMatrix(np.array([[1.0, 0.0, 2.0]]), 0.5)
        assert shap.features.tolist() == [0, 1, 2] and shap.n_features == 3

    def test_unused_features_score_zero(self):
        shap = ShapMatrix(np.array([[1.0, 3.0]]), 0.0, np.array([1, 4]), 6)
        np.testing.assert_allclose(erfc(shap), [0.0, 0.25, 0.0, 0.0, 0.75, 0.0])

    def test_rows_with_nan_contribute_nothing(self):
        # Their denominator is NaN, not > 0, as for the dense formula.
        phi = np.array([[np.nan, 1.0], [1.0, 3.0]])
        shap = ShapMatrix(phi, 0.0, np.array([0, 2]), 3)
        assert same_bits(erfc(shap), dense_erfc(dense_phi(shap), 0.0))
        np.testing.assert_allclose(erfc(shap), [0.25, 0.0, 0.75])

    @pytest.mark.parametrize("features,n_features", [
        ([0], 3), ([1, 1], 3), ([2, 1], 3), ([-1, 1], 3), ([0, 3], 3), ([0, 2], None),
    ])
    def test_bad_feature_columns_rejected(self, features, n_features):
        with pytest.raises(InputError, match="feature index per column"):
            ShapMatrix(np.ones((2, 2)), 0.0, np.array(features), n_features)


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

    @pytest.mark.parametrize("top", [0, -1])
    def test_top_below_one_rejected(self, top):
        with pytest.raises(InputError, match="at least 1"):
            rank_features(np.ones(3), top)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        # A NaN key breaks the sort of every score around it (0.2 would
        # rank above 0.5 here), so non-finite scores are rejected.
        with pytest.raises(InputError, match=r"score 1 is not finite"):
            rank_features(np.array([0.2, bad, 0.5, bad]), 4)
