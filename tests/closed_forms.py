"""The paper's analytic references: exact SHAP values of the synthetic
process, the linear-model sub-SAGE 2*beta*Cov - beta^2*Var, and the
depth-1 form 2*Cov(y, g_k) - Var(g_k). Tests check the package's
estimators against them; the package itself never calls them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from subsage.dataset import Dataset
from subsage.errors import InputError
from subsage.estimator import SubSageEstimate, build_subset_family
from subsage.synthetic import (
    X1_P,
    X1_TRIALS,
    X2_P,
    X2_TRIALS,
    X5_LAMBDA,
    X6_CUT,
    X6_MU,
    X6_SIGMA,
    SyntheticConfig,
)
from subsage.tree_model import Ensemble, trees_containing


@dataclass(frozen=True)
class TrueMoments:
    """Exact moments of the generating distributions entering the
    closed-form SHAP expressions."""

    e_x1: float
    e_x2: float
    e_exp_x2: float
    e_x5: float
    p_x6_above: float

    @classmethod
    def exact(cls) -> "TrueMoments":
        e_exp = sum(
            math.comb(X2_TRIALS, j)
            * X2_P**j
            * (1.0 - X2_P) ** (X2_TRIALS - j)
            * math.exp(j)
            for j in range(X2_TRIALS + 1)
        )
        return cls(
            e_x1=X1_TRIALS * X1_P,
            e_x2=X2_TRIALS * X2_P,
            e_exp_x2=e_exp,
            e_x5=X5_LAMBDA,
            p_x6_above=0.5 * math.erfc((X6_CUT - X6_MU) / (X6_SIGMA * math.sqrt(2.0))),
        )


TRUE_SHAP_FEATURES = (1, 2, 6, 12)


def true_shap(
    x,
    feature: int,
    moments: TrueMoments,
    cfg: SyntheticConfig | None = None,
) -> float:
    """Exact SHAP value of one feature under the true response surface.

    ``feature`` uses the 1-based x1..x100 naming; ``x`` is a full feature
    row in storage order. Supported features: 1, 2, 6 (closed forms) and
    12 (identically zero; it never enters the response).
    """
    if feature not in TRUE_SHAP_FEATURES:
        raise InputError(
            f"no closed-form SHAP for feature {feature}; "
            f"supported: {TRUE_SHAP_FEATURES}"
        )
    c = cfg if cfg is not None else SyntheticConfig(n=1, seed=0)
    x1, x2 = float(x[0]), float(x[1])
    x5, x6 = float(x[4]), float(x[5])
    if feature == 12:
        return 0.0
    if feature == 1:
        dev = x1 - moments.e_x1
        without_2 = c.a1 * dev + c.a21 * moments.e_exp_x2 * dev
        with_2 = c.a1 * dev + c.a21 * math.exp(x2) * dev
        return 0.5 * without_2 + 0.5 * with_2
    if feature == 2:
        dev = math.exp(x2) - moments.e_exp_x2
        without_1 = c.a2 * (x2 - moments.e_x2) + c.a21 * moments.e_x1 * dev
        with_1 = c.a2 * (x2 - moments.e_x2) + c.a21 * x1 * dev
        return 0.5 * without_1 + 0.5 * with_1
    dev = float(x6 > X6_CUT) - moments.p_x6_above
    without_5 = c.a6 * moments.e_x5 * dev
    with_5 = c.a6 * x5 * dev
    return 0.5 * without_5 + 0.5 * with_5


def linreg_population_subsage(beta_k: float, cov_yk: float, var_k: float) -> float:
    """Closed-form sub-SAGE of one feature in a fitted linear model with
    independent features: 2*beta*Cov(Y, X_k) - beta^2*Var(X_k)."""
    if var_k < 0:
        raise InputError("variance must be non-negative")
    return 2.0 * beta_k * cov_yk - beta_k**2 * var_k


def linreg_sample_subsage(beta_k: float, test: Dataset, k: int) -> float:
    """Plug-in version of the linear closed form with 1/(n-1) moments."""
    n = test.n_rows
    if n < 2:
        raise InputError("sample estimate needs at least 2 rows")
    x = test.column(k)
    y = test.response
    xc = x - x.mean()
    yc = y - y.mean()
    cov = float(yc @ xc) / (n - 1)
    var = float(xc @ xc) / (n - 1)
    return linreg_population_subsage(beta_k, cov, var)


def subsage_stumps(ensemble: Ensemble, k: int, test: Dataset) -> SubSageEstimate:
    """Closed-form sub-SAGE for depth-1 regression ensembles.

    For stumps the loss difference is subset-independent in expectation and
    reduces to 2*Cov(y, g_k) - Var(g_k), where g_k sums the stumps that
    split on k. Covariance and variance use 1/(n-1) normalization; g_k is
    centered at its annotated expectation.
    """
    if ensemble.objective != "regression":
        raise InputError("stump closed form requires the regression objective")
    if not ensemble.annotated:
        raise InputError("ensemble is not probability-annotated")
    if any(tree.depth > 1 for tree in ensemble.trees):
        raise InputError("stump closed form requires every tree depth <= 1")
    if test.n_rows < 2:
        raise InputError("stump closed form needs at least 2 rows")
    tau, _ = trees_containing(ensemble, k)

    n = test.n_rows
    g = np.zeros(n)
    anchor = 0.0
    for tree in (ensemble.trees[t] for t in tau):
        g += tree.sweep(test.columns, (k,))
        anchor += tree.sweep(test.columns, ())

    y = test.response
    centered_y = y - y.mean()
    centered_g = g - anchor
    cov = float(centered_y @ centered_g) / (n - 1)
    var = float(centered_g @ centered_g) / (n - 1)
    psi = 2.0 * cov - var

    family = build_subset_family(ensemble.n_features, k)
    deltas = {subset: psi for subset in family.subsets}
    return SubSageEstimate(psi_hat=psi, per_subset_deltas=deltas)
