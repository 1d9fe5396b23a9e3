import numpy as np
import pytest

from subsage.dataset import Dataset, FeatureKind
from subsage.errors import InputError, NumericalError
from subsage.estimator import LossKind
from subsage.trainer import TrainConfig, _best_split, eval_loss, train
from subsage.tree_model import ROOT_ID, predict_margin_batch, write_model

from conftest import random_dataset


def _dataset(columns, y, names=None):
    m = columns.shape[0]
    names = names or tuple(f"x{j}" for j in range(m))
    return Dataset(names, columns, (FeatureKind.CONTINUOUS,) * m, y)


class TestConfigValidation:
    def test_learning_rate_range(self):
        with pytest.raises(InputError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(InputError):
            TrainConfig(learning_rate=1.5)

    def test_max_rounds_at_least_one(self):
        with pytest.raises(InputError, match="max_rounds must be at least 1"):
            TrainConfig(max_rounds=0)

    def test_depth_values(self):
        with pytest.raises(InputError):
            TrainConfig(max_depth=3)

    def test_fraction_ranges(self):
        with pytest.raises(InputError):
            TrainConfig(subsample=0.0)
        with pytest.raises(InputError):
            TrainConfig(colsample=1.2)

    def test_non_negative_penalties(self):
        with pytest.raises(InputError):
            TrainConfig(reg_lambda=-1.0)
        with pytest.raises(InputError):
            TrainConfig(min_gain=-0.5)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("reg_lambda", float("nan")),
            ("reg_lambda", float("inf")),
            ("min_gain", float("nan")),
            ("min_gain", float("inf")),
            ("early_stopping_rounds", -3),
        ],
    )
    def test_impossible_values_name_the_field(self, field, value):
        with pytest.raises(InputError, match=field):
            TrainConfig(**{field: value})

    def test_zero_penalties_and_patience_accepted(self):
        TrainConfig(reg_lambda=0.0, min_gain=0.0, early_stopping_rounds=0)


class TestTrainRegression:
    def test_constant_response_recovered(self, rng):
        data = random_dataset(rng, 100, 3)
        const = Dataset(data.feature_names, data.columns, data.kinds, np.full(100, 4.25))
        cfg = TrainConfig(max_rounds=5, learning_rate=0.5, seed=1)
        model = train(const, const, cfg)
        preds = predict_margin_batch(model, const)
        np.testing.assert_allclose(preds, 4.25, atol=1e-9)

    def test_training_loss_non_increasing(self, rng):
        data = random_dataset(rng, 300, 4)
        y = (
            1.5 * data.column(0)
            - 0.5 * data.column(1) ** 2
            + 0.2 * rng.normal(size=300)
        )
        fit_data = Dataset(data.feature_names, data.columns, data.kinds, y)
        losses = []
        for rounds in (1, 5, 10, 20, 40):
            cfg = TrainConfig(
                max_rounds=rounds, learning_rate=0.3, subsample=1.0, colsample=1.0, seed=3
            )
            model = train(fit_data, fit_data, cfg)
            preds = predict_margin_batch(model, fit_data)
            losses.append(eval_loss(LossKind.SQUARED_ERROR, preds, y))
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))

    def test_fits_simple_signal(self, rng):
        data = random_dataset(rng, 500, 3)
        y = np.where(data.column(0) < 0.0, -2.0, 2.0)
        fit_data = Dataset(data.feature_names, data.columns, data.kinds, y)
        cfg = TrainConfig(max_rounds=60, learning_rate=0.3, seed=1)
        model = train(fit_data, fit_data, cfg)
        preds = predict_margin_batch(model, fit_data)
        assert eval_loss(LossKind.SQUARED_ERROR, preds, y) < 0.05

    def test_respects_max_depth(self, rng):
        data = random_dataset(rng, 200, 4)
        cfg = TrainConfig(max_rounds=20, max_depth=1, seed=5)
        model = train(data, data, cfg)
        assert model.max_depth <= 1
        cfg2 = TrainConfig(max_rounds=20, max_depth=2, seed=5)
        model2 = train(data, data, cfg2)
        assert model2.max_depth <= 2


class TestTrainLogistic:
    def test_separable_step_function(self, rng):
        n = 2000
        cols = rng.normal(size=(3, n))
        y = (cols[0] > 0.0).astype(float)
        data = _dataset(cols, y)
        valid_cols = rng.normal(size=(3, 500))
        valid = _dataset(valid_cols, (valid_cols[0] > 0.0).astype(float))
        cfg = TrainConfig(
            max_rounds=50,
            max_depth=1,
            learning_rate=0.4,
            loss=LossKind.BINARY_CROSS_ENTROPY,
            seed=2,
        )
        model = train(data, valid, cfg)
        assert model.objective == "binary-logistic"
        margins = predict_margin_batch(model, valid)
        accuracy = float(np.mean((margins > 0) == (valid.response > 0.5)))
        assert accuracy > 0.95
        # The first split should sit near the decision boundary.
        roots = [t.node(ROOT_ID) for t in model.trees]
        first_split_features = {r.feature for r in roots if not r.is_leaf}
        assert 0 in first_split_features

    def test_single_class_rejected(self, rng):
        data = random_dataset(rng, 50, 2)
        ones = Dataset(data.feature_names, data.columns, data.kinds, np.ones(50))
        cfg = TrainConfig(loss=LossKind.BINARY_CROSS_ENTROPY)
        with pytest.raises(InputError, match="degenerate single-valued"):
            train(ones, ones, cfg)

    def test_zero_hessian_leaf_without_lambda_is_numerical_error(self):
        # One row per round and no L2 penalty: each Newton step overshoots
        # until the sigmoid saturates and the leaf hessian is exactly zero.
        data = _dataset(np.array([[0.1, -0.1]]), np.array([0.0, 1.0]))
        cfg = TrainConfig(
            learning_rate=1.0,
            max_depth=1,
            subsample=0.8,
            reg_lambda=0.0,
            max_rounds=6,
            loss=LossKind.BINARY_CROSS_ENTROPY,
            seed=1,
        )
        with pytest.raises(NumericalError, match="zero hessian"):
            train(data, data, cfg)

    def test_non_binary_rejected(self, rng):
        data = random_dataset(rng, 50, 2)
        cfg = TrainConfig(loss=LossKind.BINARY_CROSS_ENTROPY)
        with pytest.raises(InputError, match="binary"):
            train(data, data, cfg)


class TestBestSplitZeroHessian:
    """With reg_lambda 0, a cut whose left or right hessian sum is 0 has no
    Newton step: the search skips it instead of dividing by zero (pytest
    turns the RuntimeWarning of such a division into an error). The search
    takes prefix sums of the sorted gradients and hessians, and scans this
    column without ties both by its sorted values and as all cuts."""

    col = np.array([2.0, 0.0, 3.0, 1.0])
    order = np.array([1, 3, 0, 2])  # col[order] is 0, 1, 2, 3
    gs = np.cumsum([1.0, -1.0, 2.0, 0.5])

    def split(self, gs, hs, lam):
        found = [_best_split(self.col, self.order, gs, hs, lam, 0.0, d) for d in (False, True)]
        assert found[0] == found[1]
        return found[0]

    def test_zero_hessian_prefix_skipped(self):
        # Cuts after rows 0 and 1 leave a left hessian sum of 0.
        hs = np.cumsum([0.0, 0.0, 1.0, 1.0])
        gain, t = self.split(self.gs, hs, 0.0)
        assert t == 2.5
        assert gain == 0.5 * (2.0**2 + 0.5**2 - 2.5**2 / 2.0)

    def test_zero_hessian_suffix_skipped(self):
        # Cuts after rows 1 and 2 leave a right hessian sum of 0.
        hs = np.cumsum([1.0, 1.0, 0.0, 0.0])
        gain, t = self.split(self.gs, hs, 0.0)
        assert t == 0.5
        assert gain == 0.5 * (1.0**2 + 1.5**2 - 2.5**2 / 2.0)

    def test_all_zero_hessians_give_no_split(self):
        assert self.split(self.gs, np.zeros(4), 0.0) is None

    def test_positive_lambda_keeps_every_cut(self):
        gs, hs = np.cumsum([3.0, 0.0, 0.0, -3.0]), np.cumsum([0.0, 1.0, 1.0, 0.0])
        # The cut after row 0 (left hessian sum 0) wins under lambda 1 ...
        assert self.split(gs, hs, 1.0) == (6.0, 0.5)
        # ... and is skipped under lambda 0, as is the cut after row 2.
        assert self.split(gs, hs, 0.0) == (9.0, 1.5)


class TestDeterminismAndStructure:
    def test_identical_config_identical_bytes(self, tmp_path, rng):
        data = random_dataset(rng, 150, 5)
        y = data.column(0) + rng.normal(size=150)
        fit_data = Dataset(data.feature_names, data.columns, data.kinds, y)
        cfg = TrainConfig(
            max_rounds=15, subsample=0.8, colsample=0.6, learning_rate=0.2, seed=42
        )
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_model(train(fit_data, fit_data, cfg), a)
        write_model(train(fit_data, fit_data, cfg), b)
        assert a.read_bytes() == b.read_bytes()

    def test_early_stopping_truncates(self, rng):
        data = random_dataset(rng, 200, 3)
        y = data.column(0) + 0.05 * rng.normal(size=200)
        fit_data = Dataset(data.feature_names, data.columns, data.kinds, y)
        # Validation data unrelated to the signal stalls quickly.
        noise_valid = Dataset(
            data.feature_names,
            rng.normal(size=(3, 100)),
            data.kinds,
            rng.normal(size=100),
        )
        cfg = TrainConfig(max_rounds=100, early_stopping_rounds=5, seed=1)
        model = train(fit_data, noise_valid, cfg)
        assert model.n_trees < 100

    def test_schema_mismatch(self, rng):
        a = random_dataset(rng, 30, 3)
        cols = rng.normal(size=(3, 30))
        b = Dataset(("p", "q", "r"), cols, (FeatureKind.CONTINUOUS,) * 3, rng.normal(size=30))
        with pytest.raises(InputError, match="schemas differ"):
            train(a, b, TrainConfig())

    def test_no_feature_column_is_input_error(self):
        data = _dataset(np.empty((0, 6)), np.arange(6.0))
        with pytest.raises(InputError, match="n_features must be at least 1, got 0"):
            train(data, data, TrainConfig(max_rounds=2))

    def test_no_row_is_input_error(self):
        data = _dataset(np.empty((3, 0)), np.empty(0))
        with pytest.raises(InputError, match="training data has no rows"):
            train(data, data, TrainConfig(max_rounds=2))

    @pytest.mark.parametrize("early_stopping_rounds", [0, 2])
    def test_no_validation_row_is_input_error(self, early_stopping_rounds):
        data = _dataset(np.arange(12.0).reshape(3, 4), np.arange(4.0))
        valid = _dataset(np.empty((3, 0)), np.empty(0))
        cfg = TrainConfig(max_rounds=2, early_stopping_rounds=early_stopping_rounds)
        with pytest.raises(InputError, match="validation data has no rows"):
            train(data, valid, cfg)
