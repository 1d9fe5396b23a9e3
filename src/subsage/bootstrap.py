"""Uncertainty quantification for sub-SAGE estimates: paired bootstrap,
percentile intervals, and BCa intervals.

Each bootstrap iteration resamples (x, y) rows jointly with replacement,
refreshes every branch probability from the replicate's column fractions,
and recomputes the plug-in estimate. Draw b is a pure function of
(seed, b), so results are reproducible regardless of scheduling.

Interval endpoints are order statistics of the draws, never interpolated:
the lower endpoint is the ceil(B*alpha)-th smallest draw and the upper the
ceil(B*(1-alpha))-th, 1-indexed. Ceiling is the monotone completion of the
integer-B*alpha convention; a 1e-9 slack absorbs float noise on exact
integers.
"""

from __future__ import annotations

import math
import statistics
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, ResampleIndex, check_seed
from .errors import InputError, NumericalError
from .estimator import LossKind, SubSageEngine
from .tree_model import Ensemble, annotate_probabilities

BCA_MODES = ("off", "zero", "jackknife")


@dataclass(frozen=True)
class BootstrapConfig:
    n_draws: int = 1000
    alpha: float = 0.025
    seed: int = 0
    bca: str = "off"

    def __post_init__(self):
        if self.n_draws < 2:
            raise InputError("bootstrap needs at least 2 draws")
        if not 0.0 < self.alpha < 0.5:
            raise InputError("alpha must lie in (0, 0.5)")
        if self.bca not in BCA_MODES:
            raise InputError(f"bca mode must be one of {BCA_MODES}")
        check_seed(self.seed)
        if self.n_draws * self.alpha < 1.0:
            warnings.warn(
                f"B*alpha = {self.n_draws * self.alpha:.3g} < 1: the lower "
                "order statistic is the sample minimum",
                stacklevel=3,
            )


@dataclass(frozen=True)
class BootstrapResult:
    feature: int
    loss: LossKind
    point_estimate: float
    draws: np.ndarray
    percentile: tuple[float, float]
    n_draws: int
    alpha: float
    seed: int
    per_subset_deltas: dict[frozenset[int], float]
    bca: tuple[float, float] | None = None
    z0: float | None = None
    acceleration: float | None = None


def _order_stat(sorted_draws: np.ndarray, q: float) -> float:
    b = len(sorted_draws)
    rank = math.ceil(b * q - 1e-9)
    rank = min(max(rank, 1), b)
    return float(sorted_draws[rank - 1])


def percentile_interval(draws, alpha: float) -> tuple[float, float]:
    """Order-statistic percentile interval with coverage 1 - 2*alpha."""
    draws = np.asarray(draws, dtype=np.float64)
    if draws.size == 0:
        raise InputError("percentile_interval: no draws")
    if not np.isfinite(draws).all():
        raise InputError("percentile_interval: draws must be finite")
    if not 0.0 < alpha < 0.5:
        raise InputError("alpha must lie in (0, 0.5)")
    s = np.sort(draws)
    return _order_stat(s, alpha), _order_stat(s, 1.0 - alpha)


def ndtr(x: float) -> float:
    """Standard normal cdf; ``ndtri`` below is its quantile function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


ndtri = statistics.NormalDist().inv_cdf


def _bias_correction(draws: np.ndarray, point: float) -> float:
    """z0 from the fraction of draws below the point estimate.

    Draws exactly equal to the point count half, so a symmetric or fully
    degenerate draw set yields z0 = 0 instead of an infinity.
    """
    b = len(draws)
    frac = (np.count_nonzero(draws < point) + 0.5 * np.count_nonzero(draws == point)) / b
    if frac <= 0.0 or frac >= 1.0:
        raise NumericalError(
            "degenerate bootstrap distribution: all draws on one side of "
            "the point estimate"
        )
    return ndtri(frac)


def _acceleration_from_jackknife(jackknife_values) -> float:
    jv = np.asarray(jackknife_values, dtype=np.float64)
    if jv.size == 0 or not np.isfinite(jv).all():
        raise InputError("bca_interval: jackknife values must be non-empty and finite")
    centered = jv.mean() - jv
    denom = float(centered @ centered) ** 1.5
    if denom == 0.0:
        return 0.0
    return float((centered**3).sum() / (6.0 * denom))


def bca_interval(
    draws,
    point: float,
    alpha: float,
    jackknife_values=None,
) -> tuple[float, float, float, float]:
    """Bias-corrected and accelerated interval from existing draws.

    ``jackknife_values`` are leave-one-out point estimates used for the
    acceleration constant; passing None sets the acceleration to zero,
    which is usually adequate when the draw distribution shows little
    skew and avoids the n leave-one-out refits.

    Returns (lo, hi, z0, acceleration).
    """
    draws = np.asarray(draws, dtype=np.float64)
    if draws.size == 0:
        raise InputError("bca_interval: no draws")
    if not (np.isfinite(draws).all() and np.isfinite(point)):
        raise InputError("bca_interval: draws and point must be finite")
    if not 0.0 < alpha < 0.5:
        raise InputError("alpha must lie in (0, 0.5)")
    z0 = _bias_correction(draws, point)
    a = 0.0 if jackknife_values is None else _acceleration_from_jackknife(jackknife_values)

    def adjusted(z_tail: float) -> float:
        denom = 1.0 - a * (z0 + z_tail)
        if denom <= 0.0:
            raise NumericalError("BCa quantile adjustment diverged")
        return ndtr(z0 + (z0 + z_tail) / denom)

    alpha1 = adjusted(ndtri(alpha))
    alpha2 = adjusted(ndtri(1.0 - alpha))
    s = np.sort(draws)
    return _order_stat(s, alpha1), _order_stat(s, alpha2), z0, a


def paired_bootstrap(
    ensemble: Ensemble,
    k: int,
    test: Dataset,
    loss: LossKind,
    cfg: BootstrapConfig,
) -> BootstrapResult:
    """Bootstrap the sub-SAGE estimate of feature ``k`` on ``test``.

    The ensemble is annotated on ``test`` for the point estimate. A draw
    is a row-weight vector: the engine re-annotates from the weights summed
    per joint grid cell, exactly as on the materialized replicate, and sums
    loss gaps per cell. The jackknife makes n draws, one weight zeroed each.
    """
    if test.n_rows < 2:
        raise InputError("paired bootstrap needs at least 2 rows")
    annotated = annotate_probabilities(ensemble, test)
    engine = SubSageEngine(annotated, test, k, loss)
    point = engine.estimate()

    n = test.n_rows
    draws = np.empty(cfg.n_draws)
    for b in range(1, cfg.n_draws + 1):
        idx = ResampleIndex.draw(n, cfg.seed, b)
        weights = np.bincount(idx.indices, minlength=n).astype(np.float64)
        draws[b - 1] = engine.psi_for_weights(weights)
    draws.setflags(write=False)

    lo, hi = percentile_interval(draws, cfg.alpha)
    bca = z0 = accel = None
    if cfg.bca != "off":
        jv = None
        if cfg.bca == "jackknife":
            jv = np.empty(n)
            for i in range(n):
                w = np.ones(n)
                w[i] = 0.0
                jv[i] = engine.psi_for_weights(w)
        blo, bhi, z0, accel = bca_interval(draws, point.psi_hat, cfg.alpha, jv)
        bca = (blo, bhi)

    return BootstrapResult(
        feature=k,
        loss=loss,
        point_estimate=point.psi_hat,
        draws=draws,
        percentile=(lo, hi),
        n_draws=cfg.n_draws,
        alpha=cfg.alpha,
        seed=cfg.seed,
        per_subset_deltas=point.per_subset_deltas,
        bca=bca,
        z0=z0,
        acceleration=accel,
    )


def subset_key(subset: frozenset[int], feature_names) -> str:
    """Stable report key: 'empty', the feature name, or 'rest'."""
    if not subset:
        return "empty"
    if len(subset) == 1:
        (m,) = subset
        return feature_names[m]
    return "rest"


def check_subset_keys(feature_names, k: int) -> None:
    """Reject a feature other than ``k`` named 'empty' or 'rest': its key
    would overwrite that subset's delta in the report of feature ``k``."""
    for j, name in enumerate(feature_names):
        if j != k and name in ("empty", "rest"):
            raise InputError(f"feature column {name!r} clashes with the per-subset key "
                             f"{name!r} in the report of feature {feature_names[k]!r}")


def report_dict(
    result: BootstrapResult,
    feature_names,
    include_draws: bool = False,
) -> dict:
    """JSON-ready report for one feature."""
    check_subset_keys(feature_names, result.feature)
    deltas = {
        subset_key(s, feature_names): v
        for s, v in result.per_subset_deltas.items()
    }
    doc = {
        "feature": feature_names[result.feature],
        "psi_hat": result.point_estimate,
        "loss": result.loss.value,
        "B": result.n_draws,
        "alpha": result.alpha,
        "seed": result.seed,
        "percentile": [result.percentile[0], result.percentile[1]],
        "bca": None if result.bca is None else [result.bca[0], result.bca[1]],
        "z0": result.z0,
        "a": result.acceleration,
        "per_subset_deltas": deltas,
    }
    if include_draws:
        doc["draws"] = result.draws.tolist()
    return doc
