"""Output checks, run outside the timed region.

Each check recomputes a reported value by an independent route through
the package's public functions and returns a ``Check``; a failed check
counts as a failed operation.

- ``psi_hat`` against the naive mean-loss difference built from
  ``cond_exp_batch`` (no tree-split reduction, no row weights).
- One bootstrap draw per feature against the materialised replicate:
  ``resample`` + ``annotate_probabilities`` + a fresh point estimate.
- SHAP efficiency on the rank rows against ``predict_margin_batch``, and
  the printed ranking against one recomputed from those SHAP values.
- A non-degenerate BCa interval where one is required.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from subsage.cond_expect import cond_exp_batch
from subsage.dataset import ResampleIndex, resample
from subsage.estimator import LossKind, build_subset_family, subsage_estimate
from subsage.shap_erfc import erfc, rank_features, shap_exact
from subsage.tree_model import annotate_probabilities, predict_margin_batch

PSI_RTOL = 1e-9
DRAW_RTOL = 1e-12
EFFICIENCY_TOL = 1e-9


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _rel_gap(a: float, b: float, floor: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def _mean_loss(values: np.ndarray, y: np.ndarray, loss: LossKind) -> float:
    if loss is LossKind.SQUARED_ERROR:
        return float(np.mean((y - values) ** 2))
    return float(np.mean((1.0 - y) * values + np.logaddexp(0.0, -values)))


def check_psi_naive(model, test, reports, loss: LossKind) -> list[Check]:
    """Every report's ``psi_hat`` against sum_S w_S [L(S) - L(S+k)], with
    L(S) the mean loss of base + sum of ``cond_exp_batch`` columns.

    A tree that splits on no feature of S keeps its empty-set column, so
    ``cond_exp_batch`` is called only on the trees S touches; L is cached
    on the features of S that some tree uses.
    """
    annotated = annotate_probabilities(model, test)
    trees = annotated.trees
    empty = cond_exp_batch(annotated, (), test)
    empty_sum = empty.sum(axis=1)
    used = frozenset().union(*(t.feature_set for t in trees))
    cache: dict[frozenset[int], float] = {}

    def mean_loss(subset) -> float:
        key = frozenset(subset) & used
        if key not in cache:
            touched = [t for t, tree in enumerate(trees) if key & set(tree.feature_set)]
            values = model.base_score + empty_sum
            if touched:
                part = replace(annotated, trees=tuple(trees[t] for t in touched))
                values = values + (cond_exp_batch(part, key, test).sum(axis=1)
                                   - empty[:, touched].sum(axis=1))
            cache[key] = _mean_loss(values, test.response, loss)
        return cache[key]

    out = []
    for rep in reports:
        k = test.feature_index(rep["feature"])
        family = build_subset_family(model.n_features, k)
        naive = sum(
            w * (mean_loss(s) - mean_loss(s | {k}))
            for s, w in zip(family.subsets, family.weights)
        )
        gap = _rel_gap(rep["psi_hat"], naive, 1.0)
        out.append(Check(
            f"psi_naive.{rep['feature']}", gap <= PSI_RTOL,
            f"reported {rep['psi_hat']!r} naive {naive!r} rel gap {gap:.2e}",
        ))
    return out


def check_draw_rebuild(model, test, reports, loss: LossKind, seed: int) -> list[Check]:
    """Draw 1 of every report against the materialised replicate
    (``report['draws']`` must be present)."""
    idx = ResampleIndex.draw(test.n_rows, seed, 1)
    replicate = resample(test, idx)
    annotated = annotate_probabilities(model, replicate)
    out = []
    for rep in reports:
        k = test.feature_index(rep["feature"])
        rebuilt = subsage_estimate(annotated, k, replicate, loss).psi_hat
        reported = rep["draws"][0]
        gap = _rel_gap(reported, rebuilt, 1e-300)
        out.append(Check(
            f"draw_rebuild.{rep['feature']}", gap <= DRAW_RTOL,
            f"reported {reported!r} rebuilt {rebuilt!r} rel gap {gap:.2e}",
        ))
    return out


def parse_ranking(stdout: str) -> list[tuple[str, str]]:
    lines = stdout.strip().splitlines()
    return [tuple(line.split(",")) for line in lines[1:]]


def check_shap_efficiency(shap, margins: np.ndarray) -> Check:
    """phi0 + sum of a row's SHAP values equals its margin."""
    err = float(np.max(np.abs(shap.phi0 + shap.phi.sum(axis=1) - margins)))
    scale = max(1.0, float(np.max(np.abs(margins))))
    return Check("shap_efficiency", err <= EFFICIENCY_TOL * scale,
                 f"max |phi0 + sum phi - margin| = {err:.2e} over {len(margins)} rows")


def check_rank(model, data, printed: list[tuple[str, str]], top: int) -> list[Check]:
    """SHAP efficiency on ``data`` and the printed ERFC ranking against one
    recomputed from the same SHAP values."""
    shap = shap_exact(annotate_probabilities(model, data), data)
    expected = [
        (data.feature_names[k], repr(kappa))
        for k, kappa in rank_features(erfc(shap), min(top, data.n_cols))
    ]
    return [
        check_shap_efficiency(shap, predict_margin_batch(model, data)),
        Check("rank_output", printed == expected,
              f"{len(printed)} printed rows, leader {printed[:1]}"),
    ]


def check_bca(rep) -> Check:
    """BCa interval present, finite, of positive width, with a finite
    bias correction and a non-zero jackknife acceleration."""
    bca, z0, a = rep.get("bca"), rep.get("z0"), rep.get("a")
    ok = (
        bca is not None
        and all(math.isfinite(v) for v in bca)
        and bca[0] < bca[1]
        and z0 is not None and math.isfinite(z0)
        and a is not None and math.isfinite(a) and a != 0.0
    )
    return Check(f"bca_nondegenerate.{rep['feature']}", ok,
                 f"bca {bca} z0 {z0} a {a}")
