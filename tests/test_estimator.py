import math
from fractions import Fraction

import numpy as np
import pytest

from subsage.cond_expect import cond_exp_batch
from subsage.dataset import Dataset, FeatureKind, ResampleIndex, resample
from subsage.errors import InputError
from subsage.estimator import (
    LossKind,
    SubSageEngine,
    build_subset_family,
    subsage_estimate,
)
from subsage.tree_model import ROOT_ID, Ensemble, Tree, annotate_probabilities, branch, leaf

from closed_forms import subsage_stumps
from conftest import make_depth2, make_stump, random_dataset, random_ensemble


def naive_delta(ensemble, k, subset, test, loss):
    """Loss-difference estimate without the tree-split reduction: full
    conditional expectations on both sides, mean loss difference."""
    v_s = ensemble.base_score + cond_exp_batch(ensemble, subset, test).sum(axis=1)
    v_sk = ensemble.base_score + cond_exp_batch(
        ensemble, set(subset) | {k}, test
    ).sum(axis=1)
    y = test.response
    if loss is LossKind.SQUARED_ERROR:
        return float(np.mean((y - v_s) ** 2) - np.mean((y - v_sk) ** 2))
    ce = lambda m: (1.0 - y) * m + np.logaddexp(0.0, -m)
    return float(np.mean(ce(v_s)) - np.mean(ce(v_sk)))


def naive_psi(ensemble, k, test, loss):
    family = build_subset_family(ensemble.n_features, k)
    return sum(
        w * naive_delta(ensemble, k, s, test, loss)
        for s, w in zip(family.subsets, family.weights)
    )


class TestSubsetFamily:
    def test_three_features(self):
        family = build_subset_family(3, 0)
        assert family.subsets == (
            frozenset(),
            frozenset({1}),
            frozenset({2}),
            frozenset({1, 2}),
        )
        assert family.weights == (
            pytest.approx(1 / 3),
            pytest.approx(1 / 6),
            pytest.approx(1 / 6),
            pytest.approx(1 / 3),
        )

    def test_ten_features(self):
        family = build_subset_family(10, 4)
        assert len(family.subsets) == 11
        singles = [w for s, w in zip(family.subsets, family.weights) if len(s) == 1]
        assert singles == [pytest.approx(1 / 27)] * 9

    def test_weights_sum_to_one(self):
        for m in (3, 7, 20, 64, 100):
            family = build_subset_family(m, m // 2)
            assert abs(sum(family.weights) - 1.0) <= 1e-12

    def test_weight_formula_matches_direct_fraction(self):
        for m in (3, 5, 17, 50):
            family = build_subset_family(m, 0)
            for s, w in zip(family.subsets, family.weights):
                exact = Fraction(
                    math.factorial(len(s)) * math.factorial(m - len(s) - 1),
                    3 * math.factorial(m - 1),
                )
                assert w == float(exact)

    @pytest.mark.parametrize("k", [-1, 5])
    def test_feature_out_of_range(self, k):
        with pytest.raises(InputError, match=f"feature index {k} out of range for m=5"):
            build_subset_family(5, k)

    def test_small_m_rejected(self):
        with pytest.raises(InputError, match="at least 3"):
            build_subset_family(2, 0)


class TestDeltaSquared:
    def test_unused_feature_exactly_zero(self, rng):
        data = random_dataset(rng, 30, 5)
        ens = annotate_probabilities(
            Ensemble(trees=(make_stump(0, 0.0, -1, 1),), n_features=5), data
        )
        family = build_subset_family(5, 3)
        deltas = subsage_estimate(ens, 3, data, LossKind.SQUARED_ERROR).per_subset_deltas
        for subset in family.subsets:
            assert deltas[subset] == 0.0

    def test_matches_naive_estimator(self, rng):
        for trial in range(5):
            data = random_dataset(rng, 40, 4)
            ens = annotate_probabilities(
                random_ensemble(rng, data, 6, 2, base_score=0.3), data
            )
            k = int(rng.integers(0, 4))
            family = build_subset_family(4, k)
            deltas = subsage_estimate(ens, k, data, LossKind.SQUARED_ERROR).per_subset_deltas
            for subset in family.subsets:
                fast = deltas[subset]
                slow = naive_delta(ens, k, subset, data, LossKind.SQUARED_ERROR)
                assert fast == pytest.approx(slow, abs=1e-9)

    def test_wrong_objective(self, rng):
        data = random_dataset(rng, 20, 3, binary_response=True)
        ens = annotate_probabilities(
            Ensemble(
                trees=(make_stump(0, 0.0, -1, 1),),
                n_features=3,
                objective="binary-logistic",
            ),
            data,
        )
        with pytest.raises(InputError, match="requires objective"):
            subsage_estimate(ens, 0, data, LossKind.SQUARED_ERROR)


class TestDeltaCrossEntropy:
    def _binary_fixture(self, rng, n=40, m=4, n_trees=6):
        data = random_dataset(rng, n, m, binary_response=True)
        ens = annotate_probabilities(
            random_ensemble(rng, data, n_trees, 2, objective="binary-logistic",
                            base_score=-0.2),
            data,
        )
        return data, ens

    def test_unused_feature_exactly_zero(self, rng):
        data = random_dataset(rng, 25, 5, binary_response=True)
        ens = annotate_probabilities(
            Ensemble(
                trees=(make_stump(0, 0.0, -1, 1),),
                n_features=5,
                objective="binary-logistic",
            ),
            data,
        )
        family = build_subset_family(5, 2)
        deltas = subsage_estimate(ens, 2, data, LossKind.BINARY_CROSS_ENTROPY).per_subset_deltas
        for subset in family.subsets:
            assert deltas[subset] == 0.0

    def test_matches_naive_estimator(self, rng):
        for trial in range(5):
            data, ens = self._binary_fixture(rng)
            k = int(rng.integers(0, 4))
            family = build_subset_family(4, k)
            deltas = subsage_estimate(ens, k, data, LossKind.BINARY_CROSS_ENTROPY).per_subset_deltas
            for subset in family.subsets:
                fast = deltas[subset]
                slow = naive_delta(ens, k, subset, data, LossKind.BINARY_CROSS_ENTROPY)
                assert fast == pytest.approx(slow, abs=1e-9)

    def test_helpful_feature_on_shifted_test_data(self, rng):
        # Stump with a strongly positive right leaf, annotated on balanced
        # data; on all-positive-label rows drawn from the right region the
        # informed margin dominates the blended one.
        names = ("x0", "x1", "x2")
        kinds = (FeatureKind.CONTINUOUS,) * 3
        balanced = Dataset(
            names,
            np.vstack([np.linspace(-1, 1, 21)] * 3),
            kinds,
            np.ones(21),
        )
        ens = annotate_probabilities(
            Ensemble(
                trees=(make_stump(0, 0.0, -1.0, 10.0),),
                n_features=3,
                objective="binary-logistic",
            ),
            balanced,
        )
        shifted = Dataset(
            names,
            np.vstack([rng.uniform(0.2, 1.0, size=30)] * 3),
            kinds,
            np.ones(30),
        )
        engine = SubSageEngine(ens, shifted, 0, LossKind.BINARY_CROSS_ENTROPY)
        delta = engine.estimate().per_subset_deltas[frozenset()]
        assert delta > 0.0

    def test_non_binary_response_rejected(self, rng):
        data = random_dataset(rng, 20, 3)
        ens = annotate_probabilities(
            random_ensemble(rng, data, 3, 1, objective="binary-logistic"), data
        )
        with pytest.raises(InputError, match="requires responses"):
            subsage_estimate(ens, 0, data, LossKind.BINARY_CROSS_ENTROPY)


class TestSubsageEstimate:
    def test_dummy_feature_exact_zero(self, rng):
        data = random_dataset(rng, 30, 6)
        ens = annotate_probabilities(
            random_ensemble(rng, data, 5, 2, feature_pool=(0, 1, 2, 3)), data
        )
        used = {f for t in ens.trees for f in t.feature_set}
        unused = sorted(set(range(6)) - used)
        assert unused, "fixture must leave some feature unused"
        est = subsage_estimate(ens, unused[0], data, LossKind.SQUARED_ERROR)
        assert est.psi_hat == 0.0
        assert all(v == 0.0 for v in est.per_subset_deltas.values())

    def test_unannotated_ensemble_rejected(self, rng):
        data = random_dataset(rng, 20, 3)
        with pytest.raises(InputError, match="ensemble is not probability-annotated"):
            SubSageEngine(random_ensemble(rng, data, 3, 2), data, 0, LossKind.SQUARED_ERROR)

    @pytest.mark.parametrize("loss", list(LossKind))
    def test_no_rows_rejected(self, rng, loss):
        data = random_dataset(rng, 20, 3, binary_response=True)
        objective = "regression" if loss is LossKind.SQUARED_ERROR else "binary-logistic"
        ens = annotate_probabilities(random_ensemble(rng, data, 3, 2, objective=objective), data)
        with pytest.raises(InputError, match="needs at least 1 row"):
            subsage_estimate(ens, 0, data.take_rows([]), loss)

    def test_matches_naive_psi(self, rng):
        data = random_dataset(rng, 35, 4)
        ens = annotate_probabilities(
            random_ensemble(rng, data, 7, 2, base_score=-0.4), data
        )
        for k in range(4):
            est = subsage_estimate(ens, k, data, LossKind.SQUARED_ERROR)
            assert est.psi_hat == pytest.approx(
                naive_psi(ens, k, data, LossKind.SQUARED_ERROR), abs=1e-9
            )

    def test_psi_is_weighted_delta_sum(self, rng):
        data = random_dataset(rng, 30, 4)
        ens = annotate_probabilities(random_ensemble(rng, data, 6, 2), data)
        est = subsage_estimate(ens, 1, data, LossKind.SQUARED_ERROR)
        family = build_subset_family(4, 1)
        direct = sum(
            w * est.per_subset_deltas[s]
            for s, w in zip(family.subsets, family.weights)
        )
        assert abs(est.psi_hat - direct) <= 1e-12

    def test_symmetry_for_duplicated_features(self, rng):
        col = rng.normal(size=60)
        other = rng.normal(size=60)
        y = col * 1.5 + rng.normal(size=60)
        data = Dataset(
            ("a", "b", "c"),
            np.vstack([col, col, other]),
            (FeatureKind.CONTINUOUS,) * 3,
            y,
        )
        trees = (
            make_stump(0, 0.1, -1.0, 1.0),
            make_stump(1, 0.1, -1.0, 1.0),
            make_stump(2, 0.0, -0.5, 0.5),
        )
        ens = annotate_probabilities(Ensemble(trees=trees, n_features=3), data)
        psi_a = subsage_estimate(ens, 0, data, LossKind.SQUARED_ERROR).psi_hat
        psi_b = subsage_estimate(ens, 1, data, LossKind.SQUARED_ERROR).psi_hat
        assert abs(psi_a - psi_b) < 1e-9

    def test_delta_collapse_for_globally_unused_singleton(self, rng):
        data = random_dataset(rng, 25, 6)
        trees = (make_stump(0, 0.0, -1, 2), make_stump(1, 0.1, 0.5, -0.5))
        ens = annotate_probabilities(Ensemble(trees=trees, n_features=6), data)
        est = subsage_estimate(ens, 0, data, LossKind.SQUARED_ERROR)
        # Feature 4 appears in no tree: its singleton delta is the empty
        # set's delta, computed once and shared.
        assert est.per_subset_deltas[frozenset({4})] == est.per_subset_deltas[frozenset()]

    def test_linearity_over_value_functions(self, rng):
        # The score is a fixed positive weighting of per-subset values, so
        # summing two delta maps sums the scores exactly.
        data = random_dataset(rng, 40, 3)
        e1 = annotate_probabilities(
            Ensemble(trees=(make_stump(0, 0.0, -1, 1),), n_features=3), data
        )
        e2 = annotate_probabilities(
            Ensemble(
                trees=(make_stump(0, 0.4, 2, -2), make_stump(1, 0.0, 1, 0)),
                n_features=3,
            ),
            data,
        )
        family = build_subset_family(3, 0)
        d1 = {s: naive_delta(e1, 0, s, data, LossKind.SQUARED_ERROR) for s in family.subsets}
        d2 = {s: naive_delta(e2, 0, s, data, LossKind.SQUARED_ERROR) for s in family.subsets}
        psi = lambda d: sum(w * d[s] for s, w in zip(family.subsets, family.weights))
        combined = {s: d1[s] + d2[s] for s in family.subsets}
        assert psi(combined) == pytest.approx(psi(d1) + psi(d2), abs=1e-12)

    def test_monotone_in_deltas(self, rng):
        # Positive weights: raising every per-subset delta raises the score.
        family = build_subset_family(5, 2)
        base = {s: float(rng.normal()) for s in family.subsets}
        raised = {s: v + float(rng.uniform(0.01, 1.0)) for s, v in base.items()}
        psi = lambda d: sum(w * d[s] for s, w in zip(family.subsets, family.weights))
        assert psi(raised) > psi(base)

    def test_efficiency_is_not_satisfied(self, rng):
        # Three active features inside a wider feature space: the subset
        # family skips most coalitions, so the grand loss difference is not
        # recovered. (With the feature space itself 3 wide the family
        # happens to be complete and efficiency would hold.)
        data = random_dataset(rng, 50, 5)
        ens = annotate_probabilities(
            random_ensemble(rng, data, 6, 2, feature_pool=(0, 1, 2)), data
        )
        total = sum(
            subsage_estimate(ens, k, data, LossKind.SQUARED_ERROR).psi_hat
            for k in range(5)
        )
        v_empty = ens.base_score + cond_exp_batch(ens, (), data).sum(axis=1)
        v_full = ens.base_score + cond_exp_batch(ens, range(5), data).sum(axis=1)
        y = data.response
        grand = float(np.mean((y - v_empty) ** 2) - np.mean((y - v_full) ** 2))
        assert abs(total - grand) > 1e-6


class TestDisagreeingAnnotation:
    """The engine takes one probability per (feature, threshold), so nodes
    that share a split must share its annotation."""

    def _stumps(self, p_a, p_b):
        def stump(f, p, lo, hi):
            return Tree([branch(1, f, 0.0, 2, 3, p), leaf(2, lo), leaf(3, hi)])

        trees = (stump(0, p_a, -1.0, 1.0), stump(0, p_b, -0.5, 0.5), stump(1, 0.5, 0.2, -0.2))
        return Ensemble(trees=trees, n_features=3)

    def test_rejected(self, rng):
        data = random_dataset(rng, 200, 3)
        with pytest.raises(InputError) as exc:
            subsage_estimate(self._stumps(0.3, 0.7), 0, data, LossKind.SQUARED_ERROR)
        message = "nodes splitting feature 0 at 0.0 disagree on prob_left (0.3 vs 0.7)"
        assert str(exc.value) == message

    def test_agreeing_hand_annotation_matches_naive(self, rng):
        data = random_dataset(rng, 200, 3)
        ens = self._stumps(0.3, 0.3)
        got = subsage_estimate(ens, 0, data, LossKind.SQUARED_ERROR).psi_hat
        assert got == pytest.approx(naive_psi(ens, 0, data, LossKind.SQUARED_ERROR), abs=1e-12)


class TestSignedZeroThreshold:
    """Nodes may split one feature at -0.0 and at 0.0. Every value falls on
    the same side of both, so the engine takes them as one threshold."""

    def _ensemble(self, zero):
        """Feature 1 split at ``zero`` in two nodes and at 0.0 in two."""
        trees = (
            make_depth2(0, 0.0, 1, zero, 1, 0.0, (1.0, -2.0, 0.5, 3.0)),
            make_depth2(1, 0.0, 0, 0.5, 2, 0.0, (0.25, -1.0, 2.0, -0.5)),
            make_depth2(2, 0.3, 1, zero, 3, -0.2, (-1.5, 0.75, 1.0, 0.0)),
        )
        return Ensemble(trees=trees, n_features=4)

    def test_rest_ids_and_draws_match_one_zero(self, rng):
        data = random_dataset(rng, 60, 4)
        cols = data.columns.copy()
        cols[1] = rng.choice([-1.0, -0.0, 0.0, 1.0], size=60)
        data = Dataset(data.feature_names, cols, data.kinds, data.response)
        plain, signed = (
            annotate_probabilities(self._ensemble(zero), data) for zero in (0.0, -0.0)
        )
        engines = [SubSageEngine(e, data, 0, LossKind.SQUARED_ERROR) for e in (plain, signed)]
        assert np.array_equal(engines[0]._rest_ids, engines[1]._rest_ids)
        weights = [None, *rng.integers(0, 3, size=(4, 60)).astype(float)]
        draws = [[e.psi_for_weights(w) for w in weights] for e in engines]
        assert draws[0] == draws[1]
        naive = naive_psi(signed, 0, data, LossKind.SQUARED_ERROR)
        assert draws[1][0] == pytest.approx(naive, abs=1e-12)


class TestWeightedPathEquivalence:
    def test_weights_reproduce_materialized_replicate(self, rng):
        data = random_dataset(rng, 30, 4)
        ens = random_ensemble(rng, data, 6, 2, base_score=0.2)
        annotated = annotate_probabilities(ens, data)
        engine = SubSageEngine(annotated, data, 2, LossKind.SQUARED_ERROR)
        for it in range(5):
            idx = ResampleIndex.draw(30, seed=99, iteration=it)
            weights = np.bincount(idx.indices, minlength=30).astype(float)
            fast = engine.psi_for_weights(weights)
            replicate = resample(data, idx)
            re_annotated = annotate_probabilities(ens, replicate)
            slow = subsage_estimate(
                re_annotated, 2, replicate, LossKind.SQUARED_ERROR
            ).psi_hat
            assert fast == pytest.approx(slow, abs=1e-9)

    def test_uniform_weights_match_plain_estimate(self, rng):
        data = random_dataset(rng, 30, 4)
        ens = annotate_probabilities(random_ensemble(rng, data, 6, 2), data)
        engine = SubSageEngine(ens, data, 1, LossKind.SQUARED_ERROR)
        assert engine.psi_for_weights(np.ones(30)) == pytest.approx(
            engine.psi_for_weights(None), abs=1e-12
        )


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -5.0])
    def test_impossible_weight_rejected(self, rng, bad):
        data = random_dataset(rng, 30, 4)
        ens = annotate_probabilities(random_ensemble(rng, data, 6, 2), data)
        engine = SubSageEngine(ens, data, 1, LossKind.SQUARED_ERROR)
        weights = np.ones(30)
        weights[3] = bad
        for call in (engine.psi_for_weights, engine.estimate):
            with pytest.raises(InputError) as exc:
                call(weights)
            assert str(exc.value) == "weights must be finite and non-negative"

    @pytest.mark.parametrize("weights, message", [
        (np.ones(29), "weights length must match row count"),
        (np.zeros(30), "weights must have positive total"),
        (np.ones(31), "weights length must match row count"),
    ])
    def test_weight_shape_and_total_messages(self, rng, weights, message):
        data = random_dataset(rng, 30, 4)
        ens = annotate_probabilities(random_ensemble(rng, data, 6, 2), data)
        engine = SubSageEngine(ens, data, 1, LossKind.SQUARED_ERROR)
        for call in (engine.psi_for_weights, engine.estimate):
            with pytest.raises(InputError) as exc:
                call(weights)
            assert str(exc.value) == message


class TestSubsageStumps:
    def _stump_fixture(self, rng, n=80, m=4, n_trees=7):
        data = random_dataset(rng, n, m)
        trees = tuple(
            make_stump(
                int(rng.integers(0, m)),
                float(rng.normal(scale=0.5)),
                float(rng.normal()),
                float(rng.normal()),
            )
            for _ in range(n_trees)
        )
        ens = annotate_probabilities(Ensemble(trees=trees, n_features=m), data)
        return data, ens

    def test_equal_leaves_give_zero(self, rng):
        data = random_dataset(rng, 30, 3)
        ens = annotate_probabilities(
            Ensemble(trees=(make_stump(0, 0.0, 2.5, 2.5),), n_features=3), data
        )
        assert subsage_stumps(ens, 0, data).psi_hat == pytest.approx(0.0, abs=1e-12)

    def test_response_equal_to_stump_sum_gives_variance(self, rng):
        data = random_dataset(rng, 50, 3)
        stump = make_stump(0, 0.0, -1.0, 2.0)
        ens = annotate_probabilities(Ensemble(trees=(stump,), n_features=3), data)
        g = np.where(data.column(0) < 0.0, -1.0, 2.0)
        matched = Dataset(data.feature_names, data.columns, data.kinds, g)
        ens = annotate_probabilities(ens, matched)
        est = subsage_stumps(ens, 0, matched)
        assert est.psi_hat == pytest.approx(float(np.var(g, ddof=1)), abs=1e-9)
        assert est.psi_hat > 0.0

    def test_depth_two_rejected(self, rng):
        data = random_dataset(rng, 20, 3)
        ens = annotate_probabilities(random_ensemble(rng, data, 2, 2), data)
        with pytest.raises(InputError, match="depth"):
            subsage_stumps(ens, 0, data)

    def test_empty_set_delta_matches_rescaled_closed_form(self, rng):
        # With same-data annotation the general empty-set delta equals the
        # closed form up to the 1/(n-1) vs 1/n normalization exactly.
        for trial in range(20):
            data, ens = self._stump_fixture(rng)
            n = data.n_rows
            k = int(rng.integers(0, data.n_cols))
            stump_psi = subsage_stumps(ens, k, data).psi_hat
            d_empty = subsage_estimate(ens, k, data, LossKind.SQUARED_ERROR).per_subset_deltas[frozenset()]
            assert stump_psi * (n - 1) / n == pytest.approx(d_empty, abs=1e-9)

    def test_singleton_delta_shift_is_cross_covariance(self, rng):
        # For stump ensembles the singleton delta differs from the empty
        # delta by exactly -2 * Cov_n(h_m, g_k): h_m sums the other trees
        # split on m, g_k the trees split on k.
        data, ens = self._stump_fixture(rng, n=60)
        n = data.n_rows
        k = 0
        g = np.zeros(n)
        for tree in ens.trees:
            if tree.feature_set == (k,):
                root = tree.node(ROOT_ID)
                g += np.where(
                    data.column(k) < root.threshold,
                    tree.node(root.left).leaf_value,
                    tree.node(root.right).leaf_value,
                )
        deltas = subsage_estimate(ens, k, data, LossKind.SQUARED_ERROR).per_subset_deltas
        d_empty = deltas[frozenset()]
        for m in range(1, data.n_cols):
            h = np.zeros(n)
            for tree in ens.trees:
                if tree.feature_set == (m,):
                    root = tree.node(ROOT_ID)
                    h += np.where(
                        data.column(m) < root.threshold,
                        tree.node(root.left).leaf_value,
                        tree.node(root.right).leaf_value,
                    )
            d_single = deltas[frozenset({m})]
            cross = float(np.mean(h * g) - h.mean() * g.mean())
            assert d_single - d_empty == pytest.approx(-2.0 * cross, abs=1e-9)

    def test_needs_two_rows(self, rng):
        data = random_dataset(rng, 1, 3)
        ens = annotate_probabilities(
            Ensemble(trees=(make_stump(0, 0.0, -1, 1),), n_features=3), data
        )
        with pytest.raises(InputError, match="at least 2"):
            subsage_stumps(ens, 0, data)


class TestBaseScoreHandling:
    def test_base_cancels_exactly_on_stump_ensembles(self, rng):
        data = random_dataset(rng, 50, 3)
        trees = (make_stump(0, 0.0, -1.0, 1.0), make_stump(1, 0.3, 0.5, -0.5))
        plain = annotate_probabilities(Ensemble(trees=trees, n_features=3), data)
        shifted = annotate_probabilities(
            Ensemble(trees=trees, n_features=3, base_score=7.5), data
        )
        for k in range(3):
            a = subsage_estimate(plain, k, data, LossKind.SQUARED_ERROR)
            b = subsage_estimate(shifted, k, data, LossKind.SQUARED_ERROR)
            assert a.psi_hat == pytest.approx(b.psi_hat, abs=1e-9)

    def test_base_shift_identity_for_depth_two(self, rng):
        # Depth-2 trees mix empirical joint and product measures, so the
        # offset does not drop out of each delta; it enters each one as
        # exactly -2 * base * mean(informed-minus-blind gap of tau_k trees).
        data = random_dataset(rng, 200, 3)
        trees = tuple(
            make_depth2(0, 0.0, 1, 0.2, 2, -0.1, tuple(rng.normal(size=4)))
            for _ in range(4)
        )
        base = 5.0
        plain = annotate_probabilities(Ensemble(trees=trees, n_features=3), data)
        shifted = annotate_probabilities(
            Ensemble(trees=trees, n_features=3, base_score=base), data
        )
        k = 0
        family = build_subset_family(3, k)
        predicted_shift = 0.0
        for subset, w in zip(family.subsets, family.weights):
            v_s = cond_exp_batch(plain, subset, data).sum(axis=1)
            v_sk = cond_exp_batch(plain, set(subset) | {k}, data).sum(axis=1)
            predicted_shift += w * (-2.0 * base * float(np.mean(v_sk - v_s)))
        a = subsage_estimate(plain, k, data, LossKind.SQUARED_ERROR).psi_hat
        b = subsage_estimate(shifted, k, data, LossKind.SQUARED_ERROR).psi_hat
        assert b - a == pytest.approx(predicted_shift, abs=1e-9)
