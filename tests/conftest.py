"""Shared fixture builders: hand-made trees, random datasets, and random
shallow ensembles with data-driven thresholds."""

from __future__ import annotations

import numpy as np
import pytest

from subsage.dataset import Dataset, FeatureKind
from subsage.tree_model import Ensemble, Tree, branch, leaf


def make_stump(feature: int, threshold: float, left_value: float, right_value: float) -> Tree:
    return Tree(
        [
            branch(1, feature, threshold, 2, 3),
            leaf(2, left_value),
            leaf(3, right_value),
        ]
    )


def make_depth2(
    root_feature: int,
    root_t: float,
    left_feature: int,
    left_t: float,
    right_feature: int,
    right_t: float,
    leaves: tuple[float, float, float, float],
) -> Tree:
    return Tree(
        [
            branch(1, root_feature, root_t, 2, 3),
            branch(2, left_feature, left_t, 4, 5),
            branch(3, right_feature, right_t, 6, 7),
            leaf(4, leaves[0]),
            leaf(5, leaves[1]),
            leaf(6, leaves[2]),
            leaf(7, leaves[3]),
        ]
    )


def random_dataset(
    rng: np.random.Generator,
    n: int,
    m: int,
    binary_response: bool = False,
) -> Dataset:
    cols = rng.normal(size=(m, n))
    if binary_response:
        y = (rng.random(n) < 0.5).astype(float)
    else:
        y = rng.normal(size=n)
    names = tuple(f"x{j}" for j in range(m))
    kinds = tuple(FeatureKind.CONTINUOUS for _ in range(m))
    return Dataset(names, cols, kinds, y)


def random_tree(
    rng: np.random.Generator,
    data: Dataset,
    depth: int,
    feature_pool=None,
) -> Tree:
    """Random complete tree of the given depth with thresholds drawn from
    central quantiles of each split feature's column."""

    pool = list(feature_pool) if feature_pool is not None else list(range(data.n_cols))
    nodes = []

    def build(node_id: int, level: int):
        if level == depth:
            nodes.append(leaf(node_id, float(rng.normal())))
            return
        f = int(pool[rng.integers(0, len(pool))])
        t = float(np.quantile(data.column(f), rng.uniform(0.2, 0.8)))
        nodes.append(branch(node_id, f, t, 2 * node_id, 2 * node_id + 1))
        build(2 * node_id, level + 1)
        build(2 * node_id + 1, level + 1)

    build(1, 0)
    return Tree(nodes)


def random_ensemble(
    rng: np.random.Generator,
    data: Dataset,
    n_trees: int,
    depth: int,
    objective: str = "regression",
    base_score: float = 0.0,
    feature_pool=None,
) -> Ensemble:
    trees = tuple(
        random_tree(rng, data, depth, feature_pool) for _ in range(n_trees)
    )
    return Ensemble(
        trees=trees,
        n_features=data.n_cols,
        objective=objective,
        base_score=base_score,
    )


def dense_phi(shap) -> np.ndarray:
    """A ShapMatrix's values as rows x n_features, 0 in the column of each
    feature it keeps no column for."""
    out = np.zeros((shap.phi.shape[0], shap.n_features))
    out[:, shap.features] = shap.phi
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


# Acceptance-criterion reporting: one line per criterion, echoed both when
# the test runs and in the terminal summary block.

_ACCEPTANCE_LINES: list[str] = []


def record_criterion(label: str, ok: bool, detail: str = "") -> None:
    line = f"CRITERION {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    _ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
