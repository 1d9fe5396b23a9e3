"""Synthetic benchmark: a fully specified data-generating process with six
influential features, closed-form single-feature SHAP values for ground
truth, and the linear-regression closed form used as an estimator oracle.

The response is

    y = a0 + a1*x1 + a2*x2 + a21*x1*exp(x2) + a3*x3^2 + a4*sin(x4)
        + a5*log(1 + x5) + a6*x5*[x6 > 7] + eps,    eps ~ N(0, sigma_eps)

with x1 ~ Binom(2, 0.4), x2 ~ Binom(2, 0.04), x3 ~ Gamma(shape 10, rate 2),
x4 ~ Unif(0, pi), x5 ~ Poisson(15), x6 ~ N(0, 10), plus 94 noise features
(x7..x47 normal, x48..x100 binomial) whose hyperparameters are drawn once
from configurable uniform ranges under a dedicated seed.

Every column owns an independent seeded stream, so generation is
deterministic and column order independent.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import ndtr

from .dataset import Dataset, FeatureKind, check_seed
from .errors import InputError

# Fixed distribution constants of the signal features.
X1_TRIALS, X1_P = 2, 0.4
X2_TRIALS, X2_P = 2, 0.04
X3_SHAPE, X3_RATE = 10.0, 2.0
X4_LOW, X4_HIGH = 0.0, math.pi
X5_LAMBDA = 15.0
X6_MU, X6_SIGMA = 0.0, 10.0
X6_CUT = 7.0

N_SIGNAL = 6


@dataclass(frozen=True)
class SyntheticConfig:
    n: int
    seed: int
    a0: float = -0.5
    a1: float = 0.03
    a2: float = -0.05
    a21: float = 0.3
    a3: float = 0.02
    a4: float = 0.35
    a5: float = -0.2
    a6: float = -1.0
    sigma_eps: float = 2.0
    n_noise_normal: int = 41
    n_noise_binom: int = 53
    noise_seed: int = 101
    noise_mu_range: tuple[float, float] = (-5.0, 5.0)
    noise_sigma_range: tuple[float, float] = (0.5, 5.0)
    noise_p_range: tuple[float, float] = (0.05, 0.5)

    def __post_init__(self):
        if self.n < 1:
            raise InputError("sample count must be at least 1")
        check_seed(self.seed)
        check_seed(self.noise_seed, "noise_seed")
        if not 0.0 <= self.sigma_eps < math.inf:
            raise InputError(f"sigma_eps must be finite and non-negative, got {self.sigma_eps}")

    @property
    def n_features(self) -> int:
        return N_SIGNAL + self.n_noise_normal + self.n_noise_binom


@dataclass(frozen=True)
class NoiseParams:
    """Hyperparameters of the noise features, fixed by the noise seed."""

    normal_mu: tuple[float, ...]
    normal_sigma: tuple[float, ...]
    binom_p: tuple[float, ...]


def noise_feature_params(cfg: SyntheticConfig) -> NoiseParams:
    rng = np.random.default_rng(cfg.noise_seed)
    mus = rng.uniform(*cfg.noise_mu_range, size=cfg.n_noise_normal)
    sigmas = rng.uniform(*cfg.noise_sigma_range, size=cfg.n_noise_normal)
    ps = rng.uniform(*cfg.noise_p_range, size=cfg.n_noise_binom)
    return NoiseParams(tuple(mus), tuple(sigmas), tuple(ps))


def _column_rng(seed: int, position: int) -> np.random.Generator:
    return np.random.default_rng([seed, position])


def generate_synthetic(cfg: SyntheticConfig) -> Dataset:
    """Draw a deterministic dataset from the synthetic process."""
    n = cfg.n
    noise = noise_feature_params(cfg)

    columns = np.empty((cfg.n_features, n))
    kinds: list[FeatureKind] = []
    columns[0] = _column_rng(cfg.seed, 1).binomial(X1_TRIALS, X1_P, n)
    columns[1] = _column_rng(cfg.seed, 2).binomial(X2_TRIALS, X2_P, n)
    columns[2] = _column_rng(cfg.seed, 3).gamma(X3_SHAPE, 1.0 / X3_RATE, n)
    columns[3] = _column_rng(cfg.seed, 4).uniform(X4_LOW, X4_HIGH, n)
    columns[4] = _column_rng(cfg.seed, 5).poisson(X5_LAMBDA, n)
    columns[5] = _column_rng(cfg.seed, 6).normal(X6_MU, X6_SIGMA, n)
    kinds += [
        FeatureKind.ORDINAL_COUNT,
        FeatureKind.ORDINAL_COUNT,
        FeatureKind.CONTINUOUS,
        FeatureKind.CONTINUOUS,
        FeatureKind.ORDINAL_COUNT,
        FeatureKind.CONTINUOUS,
    ]
    pos = N_SIGNAL
    for j in range(cfg.n_noise_normal):
        columns[pos] = _column_rng(cfg.seed, pos + 1).normal(
            noise.normal_mu[j], noise.normal_sigma[j], n
        )
        kinds.append(FeatureKind.CONTINUOUS)
        pos += 1
    for j in range(cfg.n_noise_binom):
        columns[pos] = _column_rng(cfg.seed, pos + 1).binomial(
            2, noise.binom_p[j], n
        )
        kinds.append(FeatureKind.ORDINAL_COUNT)
        pos += 1

    eps = _column_rng(cfg.seed, 0).normal(0.0, cfg.sigma_eps, n)
    y = true_response(columns, cfg) + eps
    names = tuple(f"x{i}" for i in range(1, cfg.n_features + 1))
    return Dataset(names, columns, tuple(kinds), y)


def true_response(columns: np.ndarray, cfg: SyntheticConfig) -> np.ndarray:
    """Noise-free response surface evaluated on (M, N) columns."""
    x1, x2, x3, x4, x5, x6 = columns[:N_SIGNAL]
    return (
        cfg.a0
        + cfg.a1 * x1
        + cfg.a2 * x2
        + cfg.a21 * x1 * np.exp(x2)
        + cfg.a3 * x3**2
        + cfg.a4 * np.sin(x4)
        + cfg.a5 * np.log1p(x5)
        + cfg.a6 * x5 * (x6 > X6_CUT)
    )


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
            p_x6_above=float(ndtr(-(X6_CUT - X6_MU) / X6_SIGMA)),
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


def config_sidecar(cfg: SyntheticConfig) -> dict:
    """Everything needed to regenerate a dataset byte-for-byte, including
    the sampled noise hyperparameters."""
    noise = noise_feature_params(cfg)
    doc = asdict(cfg)
    doc["n_features"] = cfg.n_features
    doc["noise_params"] = {
        "normal_mu": list(noise.normal_mu),
        "normal_sigma": list(noise.normal_sigma),
        "binom_p": list(noise.binom_p),
    }
    return doc
