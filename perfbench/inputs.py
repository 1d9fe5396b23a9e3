"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the workload seed: synthetic data
splits drawn from ``subsage.synthetic`` and boosted-tree JSON dumps with a
fixed shape. The shape (tree count, depth, distinct features per tree,
trees that split on the signal feature) does not depend on the seed, so the
work a command does stays the same from seed to seed; only thresholds, leaf
values and data rows move.

Library functions are called through their modules (``dataset.split``,
``synthetic.generate_synthetic``) so that the traced run's wrappers see
the calls.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from subsage import dataset, synthetic

REG_LAMBDA = 1.0  # L2 penalty in the leaf Newton step, the trainer's default


def synthetic_split(n: int, fractions: tuple[float, float, float], seed: int):
    """Draw ``n`` rows of the synthetic process and split them three ways."""
    data = synthetic.generate_synthetic(synthetic.SyntheticConfig(n=n, seed=seed))
    return dataset.split(data, fractions, seed)


def binarize(data, cut: float):
    """Same rows with the response replaced by ``y > cut`` as 0/1."""
    return dataset.Dataset(
        data.feature_names,
        data.columns,
        data.kinds,
        (data.response > cut).astype(np.float64),
    )


@dataclass(frozen=True)
class DumpSpec:
    """Shape of a generated boosted-tree dump.

    Every tree is complete to ``depth``. The first ``signal_trees`` trees
    split on ``signal`` at the root; every tree splits on exactly
    ``features_per_tree`` distinct features: the signal where it is present,
    the rest drawn from a seeded pool of ``pool_size`` other features.
    Thresholds sit between distinct column values at one of ``levels``
    quantile levels per feature, so trees share thresholds as in a trained
    model.
    """

    n_trees: int
    depth: int
    features_per_tree: int
    signal: int
    signal_trees: int
    pool_size: int
    levels: int
    objective: str
    eta: float


DEEP_LOGISTIC_DUMP = DumpSpec(
    n_trees=12, depth=5, features_per_tree=9, signal=5, signal_trees=12,
    pool_size=60, levels=64, objective="binary-logistic", eta=0.3,
)

LARGE_N_DUMP = DumpSpec(
    n_trees=250, depth=2, features_per_tree=3, signal=5, signal_trees=100,
    pool_size=55, levels=64, objective="regression", eta=0.05,
)


def _threshold_grid(column: np.ndarray, levels: int) -> np.ndarray:
    """``levels`` split points at central quantiles, each halfway between
    two adjacent distinct values so both sides of every split hold rows."""
    values = np.unique(column)
    qs = 0.1 + 0.8 * (np.arange(levels) + 0.5) / levels
    at = np.quantile(column, qs, method="inverted_cdf")
    pos = np.clip(np.searchsorted(values, at), 0, len(values) - 2)
    return 0.5 * (values[pos] + values[pos + 1])


def _tree_features(rng, spec: DumpSpec, pool: np.ndarray, has_signal: bool) -> list[int]:
    """Feature of each branch node in heap order (index 0 is the root)."""
    n_branch = 2**spec.depth - 1
    n_other = spec.features_per_tree - int(has_signal)
    others = rng.choice(pool, size=n_other, replace=False).tolist()
    chosen = [spec.signal, *others] if has_signal else others
    feats = [-1] * n_branch
    free = list(range(n_branch))
    if has_signal:
        feats[0] = spec.signal
        free.remove(0)
        required = others
    else:
        required = chosen
    slots = rng.choice(free, size=len(required), replace=False)
    for slot, f in zip(slots.tolist(), required):
        feats[slot] = f
    for slot in range(n_branch):
        if feats[slot] < 0:
            feats[slot] = int(chosen[rng.integers(len(chosen))])
    return [int(f) for f in feats]


def _loss_grad_hess(objective: str, margins: np.ndarray, y: np.ndarray):
    if objective == "regression":
        return margins - y, np.ones_like(margins)
    p = 1.0 / (1.0 + np.exp(-margins))
    return p - y, p * (1.0 - p)


def make_dump(spec: DumpSpec, fit, seed: int, grid_rows=None) -> tuple[list[dict], float]:
    """Boosted-tree dump and base score for ``spec``, fitted on ``fit``.

    Thresholds come from the columns of ``grid_rows`` (default ``fit``).
    Leaves take one Newton step per tree on ``fit``'s response, given the
    margins of the trees before it, as a boosting round would.
    Returns the JSON-ready dump (0-based node ids, ``yes`` = ``x < t``)
    and the base score to pass to ``convert``.
    """
    rng = np.random.default_rng([seed, 1])
    others = np.array([j for j in range(fit.n_cols) if j != spec.signal])
    pool = np.sort(rng.choice(others, size=spec.pool_size, replace=False))
    grid_rows = fit if grid_rows is None else grid_rows
    grids = {
        int(j): _threshold_grid(grid_rows.column(j), spec.levels)
        for j in (*pool.tolist(), spec.signal)
    }
    y = fit.response
    if spec.objective == "regression":
        base = float(y.mean())
    else:
        mean = float(y.mean())
        base = math.log(mean / (1.0 - mean))
    margins = np.full(fit.n_rows, base)
    n_branch = 2**spec.depth - 1
    dump = []
    for t in range(spec.n_trees):
        feats = _tree_features(rng, spec, pool, t < spec.signal_trees)
        thresholds = [
            float(grids[f][rng.integers(spec.levels)]) for f in feats
        ]
        node = np.zeros(fit.n_rows, dtype=np.int64)
        for _ in range(spec.depth):
            f = np.asarray(feats)[node]
            thr = np.asarray(thresholds)[node]
            go_left = fit.columns[f, np.arange(fit.n_rows)] < thr
            node = 2 * node + np.where(go_left, 1, 2)
        leaf_pos = node - n_branch
        g, h = _loss_grad_hess(spec.objective, margins, y)
        n_leaves = 2**spec.depth
        g_sum = np.bincount(leaf_pos, weights=g, minlength=n_leaves)
        h_sum = np.bincount(leaf_pos, weights=h, minlength=n_leaves)
        leaves = -spec.eta * g_sum / (h_sum + REG_LAMBDA)
        margins = margins + leaves[leaf_pos]

        def record(i: int, depth: int) -> dict:
            if i >= n_branch:
                return {"nodeid": i, "leaf": float(leaves[i - n_branch])}
            return {
                "nodeid": i, "depth": depth, "split": f"f{feats[i]}",
                "split_condition": thresholds[i],
                "yes": 2 * i + 1, "no": 2 * i + 2, "missing": 2 * i + 1,
                "children": [record(2 * i + 1, depth + 1), record(2 * i + 2, depth + 1)],
            }

        dump.append(record(0, 0))
    return dump, base


def dump_bytes(dump: list[dict]) -> bytes:
    return (json.dumps(dump, indent=1) + "\n").encode()
