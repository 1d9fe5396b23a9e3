"""Acceptance suite: every release criterion with its stated tolerance.

Criteria 1-10 are exact or tight-tolerance properties that run in seconds.
Criteria 11-13 reproduce the synthetic benchmark end to end at desk scale
through the CLI (a few minutes; one shared pipeline fixture).

Each test prints one "CRITERION n: PASS/FAIL" line; the lines are repeated
in the terminal summary. Criterion 5 is expected to fail as stated and is
marked strict-xfail: the depth-1 closed form and the general plug-in path
differ by O(1/n) normalization and finite-sample cross-covariance terms,
which no correct implementation can reduce below 1e-9. The exact
relationships between the two estimators are verified in its companion
test.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from subsage.bootstrap import BootstrapConfig, bca_interval, paired_bootstrap, percentile_interval
from subsage.cli import main as cli_main
from subsage.cond_expect import cond_exp_batch
from subsage.dataset import Dataset, FeatureKind, concat_rows, load_csv, split, write_csv
from subsage.estimator import (
    LossKind,
    build_subset_family,
    subsage_estimate,
)
from subsage.shap_erfc import shap_exact
from subsage.synthetic import SyntheticConfig
from subsage.tree_model import (
    ROOT_ID,
    Ensemble,
    annotate_probabilities,
    load_model,
)

from closed_forms import TrueMoments, subsage_stumps, true_shap
from cond_exp_oracle import SubsetMask, cond_exp_tree, predict_margin
from conftest import (
    dense_phi,
    make_depth2,
    make_stump,
    random_dataset,
    random_ensemble,
    record_criterion,
)
from test_cond_expect import product_enumeration_oracle
from test_estimator import naive_delta
from test_shap_erfc import brute_force_tree_shap
from test_synthetic import mc_shap_oracle, sample_signal_features

SIM_SEED = 20260808
SPLIT_SEED = 1
TRAIN_SEED = 7
BOOT_SEED = 11


# ---------------------------------------------------------------------------
# Fast property criteria
# ---------------------------------------------------------------------------


def test_criterion_1_subset_weights():
    worst_sum = 0.0
    worst_class = 0.0
    for m in range(3, 65):
        for k in range(m):
            family = build_subset_family(m, k)
            worst_sum = max(worst_sum, abs(sum(family.weights) - 1.0))
            for size in (0, 1, m - 1):
                class_total = sum(
                    w for s, w in zip(family.subsets, family.weights) if len(s) == size
                )
                worst_class = max(worst_class, abs(class_total - 1.0 / 3.0))
    ok = worst_sum <= 1e-12 and worst_class <= 1e-12
    record_criterion(
        "1", ok, f"max |sum-1|={worst_sum:.2e}, max class dev={worst_class:.2e}"
    )
    assert ok


def test_criterion_2_dummy_property(rng):
    data = random_dataset(rng, 60, 6)
    ens = random_ensemble(rng, data, 8, 2, feature_pool=(0, 1, 2))
    annotated = annotate_probabilities(ens, data)
    k = 5
    est = subsage_estimate(annotated, k, data, LossKind.SQUARED_ERROR)
    cfg = BootstrapConfig(n_draws=200, alpha=0.05, seed=3)
    boot = paired_bootstrap(ens, k, data, LossKind.SQUARED_ERROR, cfg)
    ok = (
        est.psi_hat == 0.0
        and np.all(boot.draws == 0.0)
        and boot.percentile == (0.0, 0.0)
    )
    record_criterion("2", ok, "psi, all draws, and interval identically zero")
    assert ok


def test_criterion_3_symmetry(rng):
    col = rng.normal(size=80)
    other = rng.normal(size=80)
    y = 0.7 * col + rng.normal(size=80)
    data = Dataset(
        ("a", "b", "c"),
        np.vstack([col, col, other]),
        (FeatureKind.CONTINUOUS,) * 3,
        y,
    )
    trees = (
        make_stump(0, 0.15, -1.2, 0.8),
        make_stump(1, 0.15, -1.2, 0.8),
        make_stump(2, -0.2, 0.4, -0.4),
    )
    ens = annotate_probabilities(Ensemble(trees=trees, n_features=3), data)
    psi = [
        subsage_estimate(ens, k, data, LossKind.SQUARED_ERROR).psi_hat for k in (0, 1)
    ]
    gap = abs(psi[0] - psi[1])
    ok = gap < 1e-9
    record_criterion("3", ok, f"|psi_a - psi_b| = {gap:.2e}")
    assert ok


def test_criterion_4_efficiency_not_satisfied(rng):
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
    gap = abs(total - grand)
    ok = gap > 1e-6
    record_criterion("4", ok, f"|sum psi - grand difference| = {gap:.3g}")
    assert ok


def _random_stump_ensembles(count=100):
    rng = np.random.default_rng(5150)
    for _ in range(count):
        n = int(rng.integers(30, 501))
        m = int(rng.integers(3, 7))
        t = int(rng.integers(3, 51))
        data = random_dataset(rng, n, m)
        trees = tuple(
            make_stump(
                int(rng.integers(0, m)),
                float(rng.normal(scale=0.5)),
                float(rng.normal()),
                float(rng.normal()),
            )
            for _ in range(t)
        )
        ens = annotate_probabilities(Ensemble(trees=trees, n_features=m), data)
        k = int(rng.integers(0, m))
        yield data, ens, k


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable as stated: the depth-1 closed form uses 1/(n-1) "
        "covariance normalization while the general plug-in uses 1/n sample "
        "moments, and single-feature coalitions shift the plug-in by "
        "empirical cross-covariances between tree groups; both effects are "
        "O(1/n) >> 1e-9. The companion test pins the exact relationships."
    ),
)
def test_criterion_5_stump_equivalence_as_stated():
    worst_gap = 0.0
    worst_spread = 0.0
    for data, ens, k in _random_stump_ensembles():
        closed = subsage_stumps(ens, k, data).psi_hat
        general = subsage_estimate(ens, k, data, LossKind.SQUARED_ERROR)
        worst_gap = max(worst_gap, abs(closed - general.psi_hat))
        deltas = list(general.per_subset_deltas.values())
        worst_spread = max(worst_spread, max(deltas) - min(deltas))
    ok = worst_gap < 1e-9 and worst_spread < 1e-9
    record_criterion(
        "5",
        ok,
        f"as stated; max |closed - general| = {worst_gap:.3g}, "
        f"max per-subset spread = {worst_spread:.3g}; expected failure, "
        "see companion",
    )
    assert ok


def test_criterion_5_companion_sharp_relationships():
    """What is actually true of the two stump estimators, at 1e-9:

    (i) rescaling the closed form by (n-1)/n reproduces the general
        empty-coalition loss difference exactly, and
    (ii) each singleton coalition shifts the general estimate by exactly
        -2 * Cov_n(other-tree sum on m, k-tree sum), vanishing as n grows.
    """
    worst_i = 0.0
    worst_ii = 0.0
    for count, (data, ens, k) in enumerate(_random_stump_ensembles()):
        n = data.n_rows
        closed = subsage_stumps(ens, k, data).psi_hat
        general = subsage_estimate(ens, k, data, LossKind.SQUARED_ERROR)
        d_empty = general.per_subset_deltas[frozenset()]
        worst_i = max(worst_i, abs(closed * (n - 1) / n - d_empty))
        if count < 10:
            g = np.zeros(n)
            sums = {}
            for tree in ens.trees:
                f = tree.feature_set[0]
                root = tree.node(ROOT_ID)
                vals = np.where(
                    data.column(f) < root.threshold,
                    tree.node(root.left).leaf_value,
                    tree.node(root.right).leaf_value,
                )
                if f == k:
                    g += vals
                else:
                    sums[f] = sums.get(f, 0.0) + vals
            for m, h in sums.items():
                d_m = general.per_subset_deltas[frozenset({m})]
                cross = float(np.mean(h * g) - h.mean() * g.mean())
                worst_ii = max(worst_ii, abs((d_m - d_empty) + 2.0 * cross))
    ok = worst_i < 1e-9 and worst_ii < 1e-9
    record_criterion(
        "5*", ok,
        f"companion identities; rescaled-empty dev = {worst_i:.2e}, "
        f"singleton cross-covariance dev = {worst_ii:.2e}",
    )
    assert ok


def test_criterion_6_cancellation_form_equivalence(rng):
    worst = 0.0
    for trial in range(4):
        data = random_dataset(rng, 50, 4)
        ens = annotate_probabilities(
            random_ensemble(rng, data, 6, 2, base_score=0.2), data
        )
        bdata = random_dataset(rng, 50, 4, binary_response=True)
        bens = annotate_probabilities(
            random_ensemble(
                rng, bdata, 6, 2, objective="binary-logistic", base_score=-0.1
            ),
            bdata,
        )
        for k in range(4):
            family = build_subset_family(4, k)
            sq = subsage_estimate(ens, k, data, LossKind.SQUARED_ERROR)
            ce = subsage_estimate(bens, k, bdata, LossKind.BINARY_CROSS_ENTROPY)
            for subset in family.subsets:
                worst = max(
                    worst,
                    abs(
                        sq.per_subset_deltas[subset]
                        - naive_delta(ens, k, subset, data, LossKind.SQUARED_ERROR)
                    ),
                    abs(
                        ce.per_subset_deltas[subset]
                        - naive_delta(
                            bens, k, subset, bdata, LossKind.BINARY_CROSS_ENTROPY
                        )
                    ),
                )
    ok = worst < 1e-9
    record_criterion("6", ok, f"max |reduced - naive| = {worst:.2e} over both losses")
    assert ok


def test_criterion_7_conditional_expectation_oracle(rng):
    worst = 0.0
    for trial in range(3):
        data = random_dataset(rng, 40, 4)
        tree = make_depth2(
            0, float(rng.normal(scale=0.3)),
            1, float(rng.normal(scale=0.3)),
            2, float(rng.normal(scale=0.3)),
            tuple(rng.normal(size=4)),
        )
        ens = annotate_probabilities(Ensemble(trees=(tree,), n_features=4), data)
        annotated = ens.trees[0]
        for known in [(), (0,), (1,), (2,), (0, 1), (3,)]:
            mask = SubsetMask.from_row(data.columns[:, trial], known)
            oracle = product_enumeration_oracle(annotated, mask, data)
            worst = max(worst, abs(cond_exp_tree(annotated, mask) - oracle))
    ok = worst < 1e-9
    record_criterion("7", ok, f"max |recursive - enumeration| = {worst:.2e}")
    assert ok


def test_criterion_8_shap_efficiency_and_brute_force(rng):
    worst_eff = 0.0
    exact_mismatches = 0
    for trial in range(3):
        data = random_dataset(rng, 30, 4)
        ens = annotate_probabilities(
            random_ensemble(rng, data, 5, 2, base_score=0.4), data
        )
        shap = shap_exact(ens, data)
        phi = dense_phi(shap)
        for i in range(data.n_rows):
            x = data.columns[:, i]
            worst_eff = max(
                worst_eff,
                abs(shap.phi0 + phi[i].sum() - predict_margin(ens, x)),
            )
        for tree in ens.trees:
            single = Ensemble(trees=(tree,), n_features=4)
            phi_tree = dense_phi(shap_exact(single, data))
            for i in range(data.n_rows):
                oracle = brute_force_tree_shap(tree, data.columns[:, i])
                for k, value in oracle.items():
                    if phi_tree[i, k] != value:
                        exact_mismatches += 1
    ok = worst_eff < 1e-9 and exact_mismatches == 0
    record_criterion(
        "8", ok,
        f"max efficiency dev = {worst_eff:.2e}, brute-force mismatches = "
        f"{exact_mismatches}",
    )
    assert ok


def test_criterion_9_percentile_conventions(rng):
    ok = percentile_interval([1, 2, 3, 4, 5], 0.2) == (1.0, 4.0)
    for _ in range(1000):
        draws = rng.normal(size=int(rng.integers(3, 60)))
        alpha = float(rng.uniform(0.01, 0.45))
        wider = float(rng.uniform(alpha, 0.49))
        lo1, hi1 = percentile_interval(draws, alpha)
        lo2, hi2 = percentile_interval(draws, wider)
        ok &= lo1 <= lo2 and hi2 <= hi1
        ok &= percentile_interval(draws, alpha) == (lo1, hi1)
        ok &= lo1 in draws and hi1 in draws
    record_criterion("9", bool(ok), "stated example, nesting, determinism")
    assert ok


def test_criterion_10_bca_reduction():
    draws = 2.5 + np.linspace(-1.0, 1.0, 500)
    point = 2.5
    lo, hi, z0, a = bca_interval(draws, point, 0.025)
    pct = percentile_interval(draws, 0.025)
    ok = (lo, hi) == pct and z0 == 0.0 and a == 0.0
    record_criterion("10", ok, "symmetric draws reduce BCa to percentile exactly")
    assert ok


# ---------------------------------------------------------------------------
# Desk-scale benchmark reproduction
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """simulate -> split -> train -> rank -> subsage, driven by the CLI."""
    root = tmp_path_factory.mktemp("bench")

    assert cli_main(
        ["--quiet", "simulate", "--n", "16000", "--seed", str(SIM_SEED),
         "--out-dir", str(root)]
    ) == 0
    full = load_csv(root / "synthetic.csv", response="y")
    train_d, valid_d, test_d = split(full, (0.5, 0.3, 0.2), seed=SPLIT_SEED)
    for name, part in (("train", train_d), ("valid", valid_d), ("test", test_d)):
        write_csv(part, root / f"{name}.csv")
    write_csv(concat_rows(train_d, valid_d), root / "trainvalid.csv")

    model_path = root / "model.json"
    assert cli_main(
        ["--quiet", "train",
         "--train", str(root / "train.csv"), "--valid", str(root / "valid.csv"),
         "--loss", "squared", "--rounds", "500", "--eta", "0.05",
         "--max-depth", "2", "--subsample", "0.7", "--colsample", "0.8",
         "--lambda", "1.0", "--gamma", "0.0", "--early-stop", "20",
         "--seed", str(TRAIN_SEED), "--out", str(model_path)]
    ) == 0

    rank_out = io.StringIO()
    with contextlib.redirect_stdout(rank_out):
        assert cli_main(
            ["--quiet", "rank", "--model", str(model_path),
             "--data", str(root / "trainvalid.csv"), "--top", "10"]
        ) == 0
    ranked = []
    for line in rank_out.getvalue().strip().splitlines()[1:]:
        name, kappa = line.split(",")
        ranked.append((name, float(kappa)))

    report_path = root / "subsage_report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(
            ["--quiet", "subsage", "--model", str(model_path),
             "--test", str(root / "test.csv"),
             "--feature", "x6", "--feature", "x12", "--feature", "x2",
             "--loss", "squared", "--bootstrap", "1000", "--alpha", "0.025",
             "--bca", "zero", "--seed", str(BOOT_SEED),
             "--train-path", str(root / "train.csv"),
             "--out", str(report_path)]
        ) == 0
    reports = {doc["feature"]: doc for doc in json.loads(report_path.read_text())}

    return {
        "root": root,
        "model": load_model(model_path),
        "test": test_d,
        "trainvalid": concat_rows(train_d, valid_d),
        "ranked": ranked,
        "reports": reports,
    }


def test_criterion_11a_erfc_leader(pipeline):
    ranked = pipeline["ranked"]
    ratio = ranked[0][1] / ranked[1][1]
    ok = ranked[0][0] == "x6" and ratio > 3.0
    record_criterion("11a", ok, f"top = {ranked[0][0]}, top/second = {ratio:.2f}")
    assert ok


def test_criterion_11b_influential_features_in_top8(pipeline):
    top8 = {name for name, _ in pipeline["ranked"][:8]}
    ok = {"x1", "x3", "x5", "x6"}.issubset(top8)
    record_criterion("11b", ok, f"top 8 = {sorted(top8)}")
    assert ok


def test_criterion_11c_strong_feature_interval(pipeline):
    lo, hi = pipeline["reports"]["x6"]["percentile"]
    ok = 30.0 < lo <= hi < 55.0 and lo > 0.0
    record_criterion("11c", ok, f"x6 interval = ({lo:.3f}, {hi:.3f})")
    assert ok


def test_criterion_11d_null_feature_interval(pipeline):
    lo, hi = pipeline["reports"]["x12"]["percentile"]
    half_width = (hi - lo) / 2.0
    ok = lo <= 0.0 <= hi and half_width < 0.1
    record_criterion(
        "11d", ok, f"x12 interval = ({lo:.4f}, {hi:.4f}), half-width {half_width:.4f}"
    )
    assert ok


def test_criterion_11e_weak_feature_interval(pipeline):
    lo, hi = pipeline["reports"]["x2"]["percentile"]
    ok = lo <= 0.0 <= hi
    record_criterion("11e", ok, f"x2 interval = ({lo:.4f}, {hi:.4f})")
    assert ok


def test_criterion_11f_bca_close_to_percentile(pipeline):
    doc = pipeline["reports"]["x6"]
    lo, hi = doc["percentile"]
    blo, bhi = doc["bca"]
    width = hi - lo
    dev = max(abs(blo - lo), abs(bhi - hi)) / width
    ok = dev < 0.1
    record_criterion("11f", ok, f"max endpoint shift = {100 * dev:.2f}% of width")
    assert ok


def test_criterion_12_true_shap_oracle(pipeline):
    moments = TrueMoments.exact()
    cfg = SyntheticConfig(n=1, seed=0)
    rng = np.random.default_rng(321)

    # Closed forms vs Monte-Carlo brute force at one million draws each.
    mc_ok = True
    details = []
    for feature in (1, 2, 6):
        x = sample_signal_features(rng, 1)[:, 0]
        x = np.concatenate([x, np.zeros(94)])
        mc, se = mc_shap_oracle(x, feature, cfg, rng, n_draws=1_000_000)
        exact = true_shap(x, feature, moments, cfg)
        mc_ok &= abs(exact - mc) < 3 * se + 1e-12
        details.append(f"x{feature}: |diff|={abs(exact - mc):.2e} (3se={3 * se:.2e})")
    zero_ok = all(
        true_shap(np.concatenate([sample_signal_features(rng, 1)[:, 0], np.zeros(94)]),
                  12, moments, cfg) == 0.0
        for _ in range(20)
    )

    # Fitted-model SHAP against the analytic values on the test split.
    test_d = pipeline["test"]
    annotated = annotate_probabilities(pipeline["model"], test_d)
    phi = dense_phi(shap_exact(annotated, test_d))
    scatter_dir = pipeline["root"]
    correlations = {}
    for feature in (1, 2, 6, 12):
        k = test_d.feature_index(f"x{feature}")
        model_phi = phi[:, k]
        true_phi = np.array(
            [
                true_shap(test_d.columns[:, i], feature, moments, cfg)
                for i in range(test_d.n_rows)
            ]
        )
        path = scatter_dir / f"shap_scatter_x{feature}.csv"
        with path.open("w") as fh:
            fh.write("true_shap,model_shap\n")
            for t, m_ in zip(true_phi, model_phi):
                fh.write(f"{t!r},{m_!r}\n")
        if true_phi.std() > 0 and model_phi.std() > 0:
            correlations[feature] = float(np.corrcoef(model_phi, true_phi)[0, 1])
    corr_ok = correlations[6] > 0.95
    ok = mc_ok and zero_ok and corr_ok
    record_criterion(
        "12", ok,
        f"MC: {'; '.join(details)}; x12 oracle all zero: {zero_ok}; "
        f"model-vs-true r(x6) = {correlations[6]:.4f}; scatter CSVs in "
        f"{scatter_dir}",
    )
    assert ok


def test_criterion_13_linear_regression_oracle():
    rng = np.random.default_rng(777)
    from closed_forms import linreg_population_subsage, linreg_sample_subsage

    beta_hat, slope, sigma_x = 1.3, 0.7, 2.0
    n = 100_000
    x = rng.normal(0.0, sigma_x, size=n)
    y = slope * x + rng.normal(size=n)
    data = Dataset(("x0",), x[None, :], (FeatureKind.CONTINUOUS,), y)
    population = linreg_population_subsage(beta_hat, slope * sigma_x**2, sigma_x**2)
    sections = np.array_split(np.arange(n), 10)
    section_values = [
        linreg_sample_subsage(beta_hat, data.take_rows(rows), 0) for rows in sections
    ]
    se = float(np.std(section_values, ddof=1)) / math.sqrt(len(sections))
    estimate = linreg_sample_subsage(beta_hat, data, 0)
    gap = abs(estimate - population)
    ok = gap < 3 * se
    record_criterion("13", ok, f"|estimate - population| = {gap:.4f}, 3se = {3 * se:.4f}")
    assert ok
