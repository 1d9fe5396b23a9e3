"""Synthetic benchmark: a fully specified data-generating process with six
influential features.

The response is

    y = a0 + a1*x1 + a2*x2 + a21*x1*exp(x2) + a3*x3^2 + a4*sin(x4)
        + a5*log(1 + x5) + a6*x5*[x6 > 7] + eps,    eps ~ N(0, sigma_eps)

with x1 ~ Binom(2, 0.4), x2 ~ Binom(2, 0.04), x3 ~ Gamma(shape 10, rate 2),
x4 ~ Unif(0, pi), x5 ~ Poisson(15), x6 ~ N(0, 10), plus 94 noise features
(x7..x47 normal, x48..x100 binomial) whose hyperparameters are drawn once
from fixed uniform ranges under a dedicated seed.

Every column owns an independent seeded stream, so generation is
deterministic and column order independent.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

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

# Noise features: counts, and the uniform ranges of their hyperparameters.
N_NOISE_NORMAL, N_NOISE_BINOM = 41, 53
NOISE_MU_RANGE = (-5.0, 5.0)
NOISE_SIGMA_RANGE = (0.5, 5.0)
NOISE_P_RANGE = (0.05, 0.5)

N_SIGNAL = 6
N_FEATURES = N_SIGNAL + N_NOISE_NORMAL + N_NOISE_BINOM

COEFFICIENTS = ("a0", "a1", "a2", "a21", "a3", "a4", "a5", "a6")


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
    noise_seed: int = 101

    def __post_init__(self):
        if self.n < 1:
            raise InputError("sample count must be at least 1")
        check_seed(self.seed)
        check_seed(self.noise_seed, "noise_seed")
        for name in COEFFICIENTS:
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 <= self.sigma_eps < math.inf:
            raise InputError(f"sigma_eps must be finite and non-negative, got {self.sigma_eps}")


@dataclass(frozen=True)
class NoiseParams:
    """Hyperparameters of the noise features, fixed by the noise seed."""

    normal_mu: tuple[float, ...]
    normal_sigma: tuple[float, ...]
    binom_p: tuple[float, ...]


def noise_feature_params(cfg: SyntheticConfig) -> NoiseParams:
    rng = np.random.default_rng(cfg.noise_seed)
    mus = rng.uniform(*NOISE_MU_RANGE, size=N_NOISE_NORMAL)
    sigmas = rng.uniform(*NOISE_SIGMA_RANGE, size=N_NOISE_NORMAL)
    ps = rng.uniform(*NOISE_P_RANGE, size=N_NOISE_BINOM)
    return NoiseParams(tuple(mus), tuple(sigmas), tuple(ps))


def _column_rng(seed: int, position: int) -> np.random.Generator:
    return np.random.default_rng([seed, position])


def generate_synthetic(cfg: SyntheticConfig) -> Dataset:
    """Draw a deterministic dataset from the synthetic process."""
    n = cfg.n
    noise = noise_feature_params(cfg)

    columns = np.empty((N_FEATURES, n))
    columns[0] = _column_rng(cfg.seed, 1).binomial(X1_TRIALS, X1_P, n)
    columns[1] = _column_rng(cfg.seed, 2).binomial(X2_TRIALS, X2_P, n)
    columns[2] = _column_rng(cfg.seed, 3).gamma(X3_SHAPE, 1.0 / X3_RATE, n)
    columns[3] = _column_rng(cfg.seed, 4).uniform(X4_LOW, X4_HIGH, n)
    columns[4] = _column_rng(cfg.seed, 5).poisson(X5_LAMBDA, n)
    columns[5] = _column_rng(cfg.seed, 6).normal(X6_MU, X6_SIGMA, n)
    for j in range(N_NOISE_NORMAL):
        pos = N_SIGNAL + j
        columns[pos] = _column_rng(cfg.seed, pos + 1).normal(
            noise.normal_mu[j], noise.normal_sigma[j], n
        )
    for j in range(N_NOISE_BINOM):
        pos = N_SIGNAL + N_NOISE_NORMAL + j
        columns[pos] = _column_rng(cfg.seed, pos + 1).binomial(
            2, noise.binom_p[j], n
        )
    count, cont = FeatureKind.ORDINAL_COUNT, FeatureKind.CONTINUOUS
    kinds = (count, count, cont, cont, count, cont, *(cont,) * N_NOISE_NORMAL,
             *(count,) * N_NOISE_BINOM)

    eps = _column_rng(cfg.seed, 0).normal(0.0, cfg.sigma_eps, n)
    y = true_response(columns, cfg) + eps
    names = tuple(f"x{i}" for i in range(1, N_FEATURES + 1))
    return Dataset(names, columns, kinds, y)


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


def config_sidecar(cfg: SyntheticConfig) -> dict:
    """Everything needed to regenerate a dataset byte-for-byte, including
    the sampled noise hyperparameters."""
    noise = noise_feature_params(cfg)
    doc = asdict(cfg)
    doc["n_features"] = N_FEATURES
    doc["noise_params"] = {
        "normal_mu": list(noise.normal_mu),
        "normal_sigma": list(noise.normal_sigma),
        "binom_p": list(noise.binom_p),
    }
    return doc
