import math
from itertools import combinations

import numpy as np
import pytest

from subsage.dataset import FeatureKind, split
from subsage.errors import InputError
from subsage.synthetic import (
    SyntheticConfig,
    config_sidecar,
    generate_synthetic,
    noise_feature_params,
    true_response,
)

from closed_forms import (
    TrueMoments,
    linreg_population_subsage,
    linreg_sample_subsage,
    true_shap,
)


def sample_signal_features(rng: np.random.Generator, n: int) -> np.ndarray:
    """Fresh draws of the six influential features, (6, n)."""
    return np.vstack(
        [
            rng.binomial(2, 0.4, n),
            rng.binomial(2, 0.04, n),
            rng.gamma(10.0, 0.5, n),
            rng.uniform(0.0, math.pi, n),
            rng.poisson(15.0, n),
            rng.normal(0.0, 10.0, n),
        ]
    ).astype(float)


def mc_shap_oracle(x_row, feature_1based: int, cfg, rng, n_draws: int):
    """Monte-Carlo brute-force Shapley value on the noise-free response.

    Players are the six influential features; every coalition expectation
    marginalizes the unknown features with fresh independent draws shared
    between the with-k and without-k evaluations. Returns (value, se).
    """
    k = feature_1based - 1
    others = [f for f in range(6) if f != k]
    total = 0.0
    var_total = 0.0
    for size in range(len(others) + 1):
        for sub in combinations(others, size):
            w = 1.0 / (6 * math.comb(5, size))
            # Fresh pool per coalition keeps terms independent, so the
            # total SE is the weighted quadrature of per-term SEs; the
            # with/without pair still shares draws for variance reduction.
            cols_without = sample_signal_features(rng, n_draws)
            for f in sub:
                cols_without[f] = x_row[f]
            cols_with = cols_without.copy()
            cols_with[k] = x_row[k]
            diff = true_response(cols_with, cfg) - true_response(cols_without, cfg)
            total += w * float(diff.mean())
            var_total += w**2 * float(diff.var(ddof=1)) / n_draws
    return total, math.sqrt(var_total)


class TestGenerator:
    def test_sample_moments(self):
        data = generate_synthetic(SyntheticConfig(n=100_000, seed=3))
        n = data.n_rows
        checks = [
            (0, 0.8, math.sqrt(2 * 0.4 * 0.6)),
            (2, 5.0, math.sqrt(10.0 / 4.0)),
            (4, 15.0, math.sqrt(15.0)),
        ]
        for col, mean, sd in checks:
            se = sd / math.sqrt(n)
            assert abs(data.column(col).mean() - mean) < 3 * se

    def test_deterministic(self):
        cfg = SyntheticConfig(n=500, seed=11)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        np.testing.assert_array_equal(a.columns, b.columns)
        np.testing.assert_array_equal(a.response, b.response)

    def test_shape_names_kinds(self):
        data = generate_synthetic(SyntheticConfig(n=50, seed=1))
        assert data.n_cols == 100
        assert data.feature_names[0] == "x1"
        assert data.feature_names[99] == "x100"
        assert data.kinds[0] is FeatureKind.ORDINAL_COUNT
        assert data.kinds[5] is FeatureKind.CONTINUOUS
        assert data.kinds[47] is FeatureKind.ORDINAL_COUNT

    def test_benchmark_partition_sizes(self):
        data = generate_synthetic(SyntheticConfig(n=16000, seed=2))
        train, valid, test = split(data, (0.5, 0.3, 0.2), seed=4)
        assert (train.n_rows, valid.n_rows, test.n_rows) == (8000, 4800, 3200)

    def test_sidecar_round_trips_defaults(self):
        cfg = SyntheticConfig(n=10, seed=0)
        doc = config_sidecar(cfg)
        assert doc["a0"] == -0.5
        assert doc["a1"] == 0.03
        assert doc["a21"] == 0.3
        assert doc["a5"] == -0.2
        assert doc["sigma_eps"] == 2.0
        assert len(doc["noise_params"]["normal_mu"]) == 41
        assert len(doc["noise_params"]["binom_p"]) == 53

    def test_noise_params_follow_noise_seed(self):
        a = noise_feature_params(SyntheticConfig(n=5, seed=1, noise_seed=7))
        b = noise_feature_params(SyntheticConfig(n=9, seed=2, noise_seed=7))
        c = noise_feature_params(SyntheticConfig(n=5, seed=1, noise_seed=8))
        assert a == b
        assert a != c

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            SyntheticConfig(n=0, seed=1)


class TestTrueMoments:
    def test_values(self):
        m = TrueMoments.exact()
        assert m.e_x1 == pytest.approx(0.8)
        assert m.e_x2 == pytest.approx(0.08)
        e_exp = 0.96**2 + 2 * 0.96 * 0.04 * math.e + 0.04**2 * math.e**2
        assert m.e_exp_x2 == pytest.approx(e_exp, abs=1e-15)
        assert m.e_x5 == pytest.approx(15.0)
        # Normal tail above 7 for sigma=10.
        assert m.p_x6_above == pytest.approx(0.2419637, abs=1e-6)


class TestTrueShap:
    def test_feature_12_always_zero(self, rng):
        m = TrueMoments.exact()
        for _ in range(20):
            x = rng.normal(size=100)
            assert true_shap(x, 12, m) == 0.0

    def test_feature_1_centering(self, rng):
        m = TrueMoments.exact()
        x = rng.normal(size=100)
        x[0] = m.e_x1
        assert true_shap(x, 1, m) == pytest.approx(0.0, abs=1e-15)

    def test_unsupported_feature(self, rng):
        with pytest.raises(InputError, match="closed-form"):
            true_shap(rng.normal(size=100), 3, TrueMoments.exact())

    def test_interaction_splits_against_two_player_shapley(self, rng):
        # Direct two-player Shapley on the x1/x2 sub-function: the x1 and
        # x2 closed forms must reproduce it exactly.
        m = TrueMoments.exact()
        cfg = SyntheticConfig(n=1, seed=0)
        for _ in range(50):
            x = np.zeros(100)
            x[0] = rng.integers(0, 3)
            x[1] = rng.integers(0, 3)
            e1, ee2 = m.e_x1, m.e_exp_x2
            g = lambda a, b: cfg.a1 * a + cfg.a2 * b + cfg.a21 * a * math.exp(b)
            v_empty = cfg.a1 * e1 + cfg.a2 * m.e_x2 + cfg.a21 * e1 * ee2
            v_1 = cfg.a1 * x[0] + cfg.a2 * m.e_x2 + cfg.a21 * x[0] * ee2
            v_2 = cfg.a1 * e1 + cfg.a2 * x[1] + cfg.a21 * e1 * math.exp(x[1])
            v_12 = g(x[0], x[1])
            phi1_direct = 0.5 * (v_1 - v_empty) + 0.5 * (v_12 - v_2)
            phi2_direct = 0.5 * (v_2 - v_empty) + 0.5 * (v_12 - v_1)
            assert true_shap(x, 1, m) == pytest.approx(phi1_direct, abs=1e-12)
            assert true_shap(x, 2, m) == pytest.approx(phi2_direct, abs=1e-12)

    @pytest.mark.parametrize("feature", [1, 2, 6])
    def test_against_monte_carlo_brute_force(self, feature):
        m = TrueMoments.exact()
        cfg = SyntheticConfig(n=1, seed=0)
        rng = np.random.default_rng(1234)
        x = sample_signal_features(rng, 1)[:, 0]
        x = np.concatenate([x, np.zeros(94)])
        mc, se = mc_shap_oracle(x, feature, cfg, rng, n_draws=200_000)
        exact = true_shap(x, feature, m, cfg)
        assert abs(exact - mc) < 3 * se + 1e-12


class TestLinregOracles:
    def test_population_dummy(self):
        assert linreg_population_subsage(0.0, 5.0, 2.0) == 0.0

    def test_population_direct_values(self):
        assert linreg_population_subsage(1.0, 1.0, 1.0) == 1.0
        assert linreg_population_subsage(-1.0, 1.0, 1.0) == -3.0

    def test_population_rejects_negative_variance(self):
        with pytest.raises(InputError):
            linreg_population_subsage(1.0, 0.0, -1.0)

    def test_sample_identity_when_response_equals_feature(self, rng):
        from subsage.dataset import Dataset

        x = rng.normal(size=300)
        data = Dataset(
            ("x0",), x[None, :], (FeatureKind.CONTINUOUS,), x.copy()
        )
        est = linreg_sample_subsage(1.0, data, 0)
        assert est == pytest.approx(float(np.var(x, ddof=1)), abs=1e-12)
        assert linreg_sample_subsage(0.0, data, 0) == 0.0

    def test_sample_converges_to_population(self, rng):
        from subsage.dataset import Dataset

        beta_hat, slope, sigma_x = 1.3, 0.7, 2.0
        n = 20_000
        x = rng.normal(0.0, sigma_x, size=n)
        y = slope * x + rng.normal(size=n)
        data = Dataset(("x0",), x[None, :], (FeatureKind.CONTINUOUS,), y)
        population = linreg_population_subsage(
            beta_hat, slope * sigma_x**2, sigma_x**2
        )
        sections = np.array_split(np.arange(n), 10)
        section_values = [
            linreg_sample_subsage(beta_hat, data.take_rows(rows), 0)
            for rows in sections
        ]
        se = float(np.std(section_values, ddof=1)) / math.sqrt(10)
        estimate = linreg_sample_subsage(beta_hat, data, 0)
        assert abs(estimate - population) < 3 * se

    def test_sample_needs_two_rows(self, rng):
        from subsage.dataset import Dataset

        data = Dataset(("x0",), np.ones((1, 1)), (FeatureKind.CONTINUOUS,), np.ones(1))
        with pytest.raises(InputError):
            linreg_sample_subsage(1.0, data, 0)
