import math

import numpy as np
import pytest
from scipy import special, stats

import subsage.bootstrap as bootstrap_module
from subsage.bootstrap import (
    BootstrapConfig,
    bca_interval,
    ndtr,
    ndtri,
    paired_bootstrap,
    percentile_interval,
    report_dict,
    subset_key,
)
from subsage.dataset import Dataset, FeatureKind
from subsage.errors import InputError, NumericalError
from subsage.estimator import LossKind
from subsage.tree_model import Ensemble, annotate_probabilities

from conftest import make_stump, random_dataset, random_ensemble


class TestPercentileInterval:
    def test_five_draws_alpha_point_two(self):
        assert percentile_interval([1, 2, 3, 4, 5], 0.2) == (1.0, 4.0)

    def test_thousand_draws_order_statistics(self):
        draws = np.arange(1.0, 1001.0)
        lo, hi = percentile_interval(draws, 0.025)
        assert lo == 25.0
        assert hi == 975.0

    def test_constant_draws(self):
        assert percentile_interval([3.3] * 10, 0.1) == (3.3, 3.3)

    def test_endpoints_are_draws(self, rng):
        for _ in range(1000):
            draws = rng.normal(size=rng.integers(2, 40))
            alpha = float(rng.uniform(0.01, 0.49))
            lo, hi = percentile_interval(draws, alpha)
            assert lo in draws and hi in draws
            assert lo <= hi

    def test_nesting(self, rng):
        draws = rng.normal(size=200)
        lo1, hi1 = percentile_interval(draws, 0.05)
        lo2, hi2 = percentile_interval(draws, 0.2)
        assert lo1 <= lo2 and hi2 <= hi1

    def test_determinism(self, rng):
        draws = rng.normal(size=333)
        assert percentile_interval(draws, 0.07) == percentile_interval(draws, 0.07)

    def test_empty_rejected(self):
        with pytest.raises(InputError, match="no draws"):
            percentile_interval([], 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_draw_rejected(self, bad):
        with pytest.raises(InputError, match="finite"):
            percentile_interval([1.0, bad, 2.0, 3.0], 0.25)


@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize(
    "interval",
    [
        lambda alpha: percentile_interval([1.0, 2.0, 3.0], alpha),
        lambda alpha: bca_interval([1.0, 2.0, 3.0], 2.0, alpha),
    ],
    ids=["percentile", "bca"],
)
def test_interval_alpha_out_of_range(interval, alpha):
    with pytest.raises(InputError, match=r"alpha must lie in \(0, 0.5\)"):
        interval(alpha)


class TestBcaInterval:
    def test_empty_rejected(self):
        with pytest.raises(InputError, match="bca_interval: no draws"):
            bca_interval([], 0.0, 0.1)

    def test_zero_accel_symmetric_reduces_to_percentile(self):
        # Symmetric draws around the point with median equal to the point.
        spread = np.linspace(-1.0, 1.0, 400)
        draws = 5.0 + spread
        lo, hi, z0, a = bca_interval(draws, 5.0, 0.025)
        assert z0 == 0.0
        assert a == 0.0
        assert (lo, hi) == percentile_interval(draws, 0.025)

    def test_skew_shifts_endpoints(self, rng):
        # Right-skewed draws with most mass below the point estimate give
        # z0 > 0, pushing both adjusted quantiles upward.
        draws = np.concatenate([np.linspace(0, 1, 700), np.linspace(1, 8, 300)])
        point = float(np.quantile(draws, 0.6))
        plo, phi_ = percentile_interval(draws, 0.05)
        blo, bhi, z0, a = bca_interval(draws, point, 0.05)
        assert z0 > 0.0
        assert blo >= plo and bhi >= phi_
        # Direct evaluation of the adjusted-quantile formulas.
        frac = (draws < point).mean()
        z0_direct = stats.norm.ppf(frac)
        for z_tail, endpoint in ((stats.norm.ppf(0.05), blo), (stats.norm.ppf(0.95), bhi)):
            alpha_adj = stats.norm.cdf(z0_direct + (z0_direct + z_tail))
            rank = int(np.ceil(len(draws) * alpha_adj - 1e-9))
            assert endpoint == np.sort(draws)[rank - 1]

    def test_jackknife_acceleration_formula(self, rng):
        jv = rng.normal(size=40)
        draws = rng.normal(size=200)
        point = float(np.median(draws))
        _, _, _, a = bca_interval(draws, point, 0.05, jackknife_values=jv)
        centered = jv.mean() - jv
        assert a == pytest.approx((centered**3).sum() / (6 * (centered @ centered) ** 1.5), abs=1e-15)

    @pytest.mark.parametrize("draws, point", [
        ([1.0, np.nan, 2.0, 3.0], 2.0),
        ([1.0, np.inf, 2.0, 3.0], 2.0),
        ([1.0, 2.0, 3.0], np.nan),
        ([1.0, 2.0, 3.0], -np.inf),
    ])
    def test_non_finite_draw_or_point_rejected(self, draws, point):
        with pytest.raises(InputError, match="finite"):
            bca_interval(draws, point, 0.25)

    @pytest.mark.parametrize("jv", [[], [0.1, np.nan, 0.2], [np.inf, 0.1]])
    def test_empty_or_non_finite_jackknife_rejected(self, jv):
        draws = np.linspace(-1.0, 1.0, 50)
        with pytest.raises(InputError, match="jackknife"):
            bca_interval(draws, 0.0, 0.05, jackknife_values=jv)

    def test_all_draws_on_one_side_is_error(self):
        draws = np.linspace(1.0, 2.0, 50)
        with pytest.raises(NumericalError, match="one side"):
            bca_interval(draws, 5.0, 0.05)

    def test_ties_at_point_count_half(self):
        draws = np.array([1.0, 1.0, 1.0, 1.0])
        lo, hi, z0, a = bca_interval(draws, 1.0, 0.1)
        assert z0 == 0.0
        assert (lo, hi) == (1.0, 1.0)


class TestStdlibNormal:
    """The stdlib normal cdf and quantile against scipy.special."""

    def test_ndtr_matches_scipy(self):
        x = np.linspace(-8.0, 8.0, 160_001)
        ours = np.array([ndtr(float(v)) for v in x])
        np.testing.assert_allclose(ours, special.ndtr(x), rtol=1.3e-14, atol=0.0)

    def test_ndtri_matches_scipy(self):
        tail = np.geomspace(1e-12, 0.5, 20_001)
        p = np.concatenate([np.linspace(1e-12, 1.0 - 1e-12, 100_001), tail, 1.0 - tail])
        p = np.concatenate([p, special.ndtr(np.linspace(-7.0, 7.0, 14_001))])
        ours = np.array([ndtri(float(v)) for v in p])
        # 1.04e-15 is the largest relative gap on this grid.
        np.testing.assert_allclose(ours, special.ndtri(p), rtol=1.1e-15, atol=0.0)

    @pytest.mark.parametrize("accel", np.round(np.linspace(-0.3, 0.3, 13), 3))
    def test_bca_ranks_match_scipy(self, monkeypatch, accel):
        """At B=1000 and alpha=0.025, over a grid of z0 and acceleration,
        both BCa order-statistic ranks equal the ones scipy's ndtr and
        ndtri give; the adjustment diverges on the same cells."""
        b, alpha = 1000, 0.025
        draws = np.arange(1.0, b + 1.0)  # the j-th smallest draw is j
        monkeypatch.setattr(bootstrap_module, "_acceleration_from_jackknife", lambda jv: jv[0])
        checked = 0
        for half_ranks in range(1, 2 * b, 7):
            # A point at j + 0.5 puts j draws below it, one at j counts half.
            point = half_ranks / 2.0 + 0.5 if half_ranks % 2 == 0 else (half_ranks + 1) / 2.0
            frac = half_ranks / (2.0 * b)
            z0 = special.ndtri(frac)
            expected = []
            for z_tail in (special.ndtri(alpha), special.ndtri(1.0 - alpha)):
                denom = 1.0 - accel * (z0 + z_tail)
                if denom <= 0.0:
                    break
                adj = special.ndtr(z0 + (z0 + z_tail) / denom)
                expected.append(float(min(max(math.ceil(b * adj - 1e-9), 1), b)))
            if len(expected) < 2:
                with pytest.raises(NumericalError, match="diverged"):
                    bca_interval(draws, point, alpha, jackknife_values=[accel])
                continue
            lo, hi, z0_ours, a = bca_interval(draws, point, alpha, jackknife_values=[accel])
            assert a == accel
            assert z0_ours == pytest.approx(z0, rel=1e-14, abs=1e-300)
            assert (lo, hi) == tuple(expected)
            checked += 1
        assert checked > 100


class TestConfigValidation:
    def test_requires_two_draws(self):
        with pytest.raises(InputError):
            BootstrapConfig(n_draws=1)

    def test_alpha_range(self):
        with pytest.raises(InputError):
            BootstrapConfig(alpha=0.5)
        with pytest.raises(InputError):
            BootstrapConfig(alpha=0.0)

    def test_unknown_bca_mode(self):
        with pytest.raises(InputError, match="bca mode must be one of"):
            BootstrapConfig(bca="bootstrap-t")

    def test_low_resolution_warns(self):
        with pytest.warns(UserWarning, match="order statistic") as caught:
            BootstrapConfig(n_draws=10, alpha=0.01)
        # Attributed to the caller, not to the generated __init__.
        assert [w.filename for w in caught] == [__file__]


def _fixture(rng, n=40, m=4, n_trees=5, pool=None):
    data = random_dataset(rng, n, m)
    ens = random_ensemble(rng, data, n_trees, 2, feature_pool=pool)
    return data, ens


class TestPairedBootstrap:
    def test_identical_rows_give_zero_width(self, rng):
        row = rng.normal(size=3)
        data = Dataset(
            ("a", "b", "c"),
            np.tile(row[:, None], 25),
            (FeatureKind.CONTINUOUS,) * 3,
            np.full(25, 1.3),
        )
        ens = Ensemble(trees=(make_stump(0, row[0] + 1.0, -1.0, 1.0),), n_features=3)
        cfg = BootstrapConfig(n_draws=50, alpha=0.1, seed=5)
        result = paired_bootstrap(ens, 0, data, LossKind.SQUARED_ERROR, cfg)
        assert np.all(result.draws == result.draws[0])
        assert result.percentile[0] == result.percentile[1]

    def test_bitwise_deterministic(self, rng):
        data, ens = _fixture(rng)
        cfg = BootstrapConfig(n_draws=30, alpha=0.1, seed=42)
        first = paired_bootstrap(ens, 1, data, LossKind.SQUARED_ERROR, cfg)
        second = paired_bootstrap(ens, 1, data, LossKind.SQUARED_ERROR, cfg)
        np.testing.assert_array_equal(first.draws, second.draws)
        assert first.percentile == second.percentile

    def test_seed_changes_draws(self, rng):
        data, ens = _fixture(rng)
        a = paired_bootstrap(
            ens, 1, data, LossKind.SQUARED_ERROR,
            BootstrapConfig(n_draws=30, alpha=0.1, seed=1),
        )
        b = paired_bootstrap(
            ens, 1, data, LossKind.SQUARED_ERROR,
            BootstrapConfig(n_draws=30, alpha=0.1, seed=2),
        )
        assert not np.array_equal(a.draws, b.draws)

    def test_unused_feature_all_draws_zero(self, rng):
        data, ens = _fixture(rng, m=5, pool=(0, 1))
        cfg = BootstrapConfig(n_draws=25, alpha=0.05, seed=3, bca="zero")
        result = paired_bootstrap(ens, 4, data, LossKind.SQUARED_ERROR, cfg)
        assert result.point_estimate == 0.0
        assert np.all(result.draws == 0.0)
        assert result.percentile == (0.0, 0.0)
        assert result.bca == (0.0, 0.0)

    def test_draw_matches_manual_replicate(self, rng):
        from subsage.dataset import ResampleIndex, resample
        from subsage.estimator import subsage_estimate

        data, ens = _fixture(rng, n=25)
        cfg = BootstrapConfig(n_draws=5, alpha=0.25, seed=17)
        result = paired_bootstrap(ens, 0, data, LossKind.SQUARED_ERROR, cfg)
        for b in (1, 3, 5):
            idx = ResampleIndex.draw(25, seed=17, iteration=b)
            replicate = resample(data, idx)
            re_annotated = annotate_probabilities(ens, replicate)
            manual = subsage_estimate(
                re_annotated, 0, replicate, LossKind.SQUARED_ERROR
            ).psi_hat
            assert result.draws[b - 1] == pytest.approx(manual, abs=1e-9)

    def test_jackknife_mode_produces_acceleration(self, rng):
        data, ens = _fixture(rng, n=20)
        cfg = BootstrapConfig(n_draws=40, alpha=0.1, seed=2, bca="jackknife")
        result = paired_bootstrap(ens, 0, data, LossKind.SQUARED_ERROR, cfg)
        assert result.bca is not None
        assert result.acceleration is not None
        assert result.acceleration != 0.0

    def test_single_row_rejected(self, rng):
        data = random_dataset(rng, 1, 3)
        ens = Ensemble(trees=(make_stump(0, 0.0, -1, 1),), n_features=3)
        with pytest.raises(InputError, match="at least 2"):
            paired_bootstrap(
                ens, 0, data, LossKind.SQUARED_ERROR,
                BootstrapConfig(n_draws=5, alpha=0.25),
            )


class TestReport:
    def test_report_layout(self, rng):
        data, ens = _fixture(rng, m=4)
        cfg = BootstrapConfig(n_draws=20, alpha=0.1, seed=9, bca="zero")
        result = paired_bootstrap(ens, 2, data, LossKind.SQUARED_ERROR, cfg)
        doc = report_dict(result, data.feature_names, include_draws=True)
        assert doc["feature"] == "x2"
        assert doc["loss"] == "squared_error"
        assert doc["B"] == 20
        assert len(doc["draws"]) == 20
        assert len(doc["percentile"]) == 2
        assert doc["bca"] is not None
        assert "empty" in doc["per_subset_deltas"]
        assert "rest" in doc["per_subset_deltas"]
        assert "x0" in doc["per_subset_deltas"]
        assert len(doc["per_subset_deltas"]) == 4 + 1  # empty, 3 singletons, rest

    @pytest.mark.parametrize("key", ["empty", "rest"])
    def test_feature_named_like_a_subset_key(self, rng, key):
        data, ens = _fixture(rng, m=4)
        names = ("x0", key, "x2", "x3")
        cfg = BootstrapConfig(n_draws=5, alpha=0.2, seed=1)
        result = paired_bootstrap(ens, 0, data, LossKind.SQUARED_ERROR, cfg)
        with pytest.raises(InputError, match=f"feature column '{key}' clashes"):
            report_dict(result, names)
        # As feature k the name is no singleton's key, so no delta is lost.
        result = paired_bootstrap(ens, 1, data, LossKind.SQUARED_ERROR, cfg)
        deltas = report_dict(result, names)["per_subset_deltas"]
        assert len(deltas) == len(result.per_subset_deltas) == 5
        assert deltas["empty"] == result.per_subset_deltas[frozenset()]
        assert deltas["rest"] == result.per_subset_deltas[frozenset({0, 2, 3})]

    def test_subset_key_forms(self):
        names = ("a", "b", "c")
        assert subset_key(frozenset(), names) == "empty"
        assert subset_key(frozenset({1}), names) == "b"
        assert subset_key(frozenset({1, 2}), names) == "rest"
