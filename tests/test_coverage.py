"""Coverage of the bootstrap intervals on an estimand known in closed form.

Three independent N(0, 1) features, y = x0 + 0.5 x1 + N(0, 1), and a fixed
stump ensemble: x0 split at 0.3 with leaves (-0.4, 0.6), x1 at -0.2 with
(-0.3, 0.2), x2 at 0.5 with (0.05, -0.05). Each stump g_k depends on x_k
alone, so under squared error every loss difference in Q_k is
2 Cov(y, g_k) - Var(g_k), and so is the population sub-SAGE. A stump with
leaves (a, b) at t is linear in the indicator of x_k >= t with slope b - a,
so this is the linear form with Cov(y, 1[x_k >= t]) = beta_k phi(t) and
Var(1[x_k >= t]) = Phi(t) (1 - Phi(t)).

Replicate r draws n = 400 rows from ``default_rng([SEED, r])`` and runs
``paired_bootstrap`` with B = 200, alpha = 0.025, bootstrap seed r and BCa
with the jackknife acceleration; from the same draws it also forms the BCa
interval with zero acceleration (``bca_interval`` without jackknife
values), and it counts whether each interval holds the estimand. The test
runs replicates 0-99 and asserts each count is at least the exact binomial
0.1% quantile, at 100 replicates, of the rate of the full run over
replicates 0-999, recorded in ``FULL_RUN``. To repeat the full run (about
two minutes on 2 vCPUs):

    PYTHONPATH=src python tests/test_coverage.py 1000
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from scipy import stats

from subsage.bootstrap import BootstrapConfig, bca_interval, paired_bootstrap
from subsage.dataset import Dataset, FeatureKind
from subsage.estimator import LossKind
from subsage.tree_model import Ensemble

from closed_forms import linreg_population_subsage
from conftest import make_stump

SEED, N_ROWS, N_DRAWS, ALPHA = 1, 400, 200, 0.025
BETA = (1.0, 0.5, 0.0)
STUMPS = ((0.3, -0.4, 0.6), (-0.2, -0.3, 0.2), (0.5, 0.05, -0.05))  # (t, left, right)
FEATURES = (0, 2)
KINDS = ("percentile", "bca", "bca-jackknife")
ENSEMBLE = Ensemble(trees=tuple(make_stump(k, *s) for k, s in enumerate(STUMPS)), n_features=3)

# Hits out of 1000 replicates per (feature, interval kind), with their 95%
# Clopper-Pearson intervals: every one holds the nominal 0.95 but x0's
# BCa-jackknife, whose interval ends just below it.
FULL_RUN = {
    (0, "percentile"): (942, 1000),  # [0.9257, 0.9557]
    (0, "bca"): (937, 1000),  # [0.9201, 0.9513]
    (0, "bca-jackknife"): (935, 1000),  # [0.9179, 0.9495]
    (2, "percentile"): (946, 1000),  # [0.9301, 0.9592]
    (2, "bca"): (944, 1000),  # [0.9279, 0.9574]
    (2, "bca-jackknife"): (944, 1000),  # [0.9279, 0.9574]
}


def population_subsage(k: int) -> float:
    t, a, b = STUMPS[k]
    cdf = 0.5 * math.erfc(-t / math.sqrt(2.0))
    pdf = math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    return linreg_population_subsage(b - a, BETA[k] * pdf, cdf * (1.0 - cdf))


def coverage_hits(replicates) -> dict[tuple[int, str], int]:
    """Per (feature, interval kind), the replicates whose interval holds
    the population sub-SAGE."""
    hits = dict.fromkeys(((k, kind) for k in FEATURES for kind in KINDS), 0)
    for r in replicates:
        rng = np.random.default_rng([SEED, r])
        x = rng.normal(size=(3, N_ROWS))
        y = x[0] + 0.5 * x[1] + rng.normal(size=N_ROWS)
        data = Dataset(("x0", "x1", "x2"), x, (FeatureKind.CONTINUOUS,) * 3, y)
        cfg = BootstrapConfig(n_draws=N_DRAWS, alpha=ALPHA, seed=r, bca="jackknife")
        for k in FEATURES:
            result = paired_bootstrap(ENSEMBLE, k, data, LossKind.SQUARED_ERROR, cfg)
            zero = bca_interval(result.draws, result.point_estimate, ALPHA)[:2]
            psi = population_subsage(k)
            for kind, (lo, hi) in zip(KINDS, (result.percentile, zero, result.bca)):
                hits[k, kind] += lo <= psi <= hi
    return hits


def test_population_subsage_closed_form():
    assert population_subsage(0) == pytest.approx(0.52668, abs=5e-6)
    assert population_subsage(2) == pytest.approx(-0.0021334, abs=5e-8)


def test_intervals_cover_at_the_full_run_rate():
    replicates = 100
    hits = coverage_hits(range(replicates))
    for key, count in hits.items():
        full, total = FULL_RUN[key]
        floor = stats.binom.ppf(0.001, replicates, full / total)
        assert count >= floor, (key, count, floor)


def clopper_pearson(hits: int, total: int, level: float = 0.95) -> tuple[float, float]:
    tail = (1.0 - level) / 2.0
    lo = stats.beta.ppf(tail, hits, total - hits + 1) if hits else 0.0
    hi = stats.beta.ppf(1.0 - tail, hits + 1, total - hits) if hits < total else 1.0
    return float(lo), float(hi)


if __name__ == "__main__":
    total = int(sys.argv[1]) if len(sys.argv) > 1 else 1000
    for (k, kind), count in coverage_hits(range(total)).items():
        lo, hi = clopper_pearson(count, total)
        print(f"x{k} {kind:>13}: {count}/{total} = {count / total:.4f}, "
              f"95% Clopper-Pearson [{lo:.4f}, {hi:.4f}], population {population_subsage(k):.7g}")
