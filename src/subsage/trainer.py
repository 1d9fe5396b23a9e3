"""Minimal second-order gradient boosting for shallow trees.

Implements Newton boosting with exact greedy split search: leaf values are
-G/(H + lambda), split gains are the usual half-sum of per-child score
improvements minus the min-gain penalty, and thresholds are midpoints
between consecutive distinct sorted values. Desk scale only; no histogram
binning, sparsity handling, or multiclass objectives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, check_seed
from .errors import InputError, NumericalError
from .estimator import LOSS_OBJECTIVE, LossKind
from .tree_model import Ensemble, Node, Tree, branch, leaf


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    max_depth: int = 2
    subsample: float = 1.0
    colsample: float = 1.0
    reg_lambda: float = 1.0
    min_gain: float = 0.0
    max_rounds: int = 100
    early_stopping_rounds: int = 0
    loss: LossKind = LossKind.SQUARED_ERROR
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.learning_rate <= 1.0:
            raise InputError("learning rate must lie in (0, 1]")
        if self.max_depth not in (1, 2):
            raise InputError("max_depth must be 1 or 2")
        for name in ("subsample", "colsample"):
            f = getattr(self, name)
            if not 0.0 < f <= 1.0:
                raise InputError(f"{name} must lie in (0, 1]")
        for name in ("reg_lambda", "min_gain"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise InputError(f"{name} must be finite and non-negative")
        if self.max_rounds < 1:
            raise InputError("max_rounds must be at least 1")
        if self.early_stopping_rounds < 0:
            raise InputError("early_stopping_rounds must be non-negative (0 disables it)")
        check_seed(self.seed)


def _sigmoid(m: np.ndarray) -> np.ndarray:
    out = np.empty_like(m)
    pos = m >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-m[pos]))
    em = np.exp(m[~pos])
    out[~pos] = em / (1.0 + em)
    return out


def _grad_hess(loss: LossKind, margins: np.ndarray, y: np.ndarray):
    if loss is LossKind.SQUARED_ERROR:
        return margins - y, np.ones_like(margins)
    p = _sigmoid(margins)
    return p - y, p * (1.0 - p)


def eval_loss(loss: LossKind, margins: np.ndarray, y: np.ndarray) -> float:
    if loss is LossKind.SQUARED_ERROR:
        return float(np.mean((y - margins) ** 2))
    return float(np.mean((1.0 - y) * margins + np.logaddexp(0.0, -margins)))


def _best_split(xs: np.ndarray, gs: np.ndarray, hs: np.ndarray, lam: float, gamma: float):
    """Best (gain, threshold) for one feature, or None.

    Scans a node's values sorted ascending with the prefix sums ``gs`` and
    ``hs`` of its gradients and hessians in that order; candidate thresholds
    are midpoints between consecutive distinct values, so any value equal
    to the left endpoint routes left under the strict-below convention.
    """
    if xs[0] == xs[-1]:
        return None
    g_tot, h_tot = gs[-1], hs[-1]
    cut = np.nonzero(xs[:-1] < xs[1:])[0]
    gl, hl = gs[cut], hs[cut]
    gr, hr = g_tot - gl, h_tot - hl
    if hl[0] + lam == 0.0 or hr[-1] + lam == 0.0:
        # A child whose hessian sum plus lambda is 0 has no Newton step; hl
        # only grows and hr only shrinks, so the ends are the ones to check.
        ok = (hl + lam > 0.0) & (hr + lam > 0.0)
        if not ok.any():
            return None
        cut, gl, hl, gr, hr = cut[ok], gl[ok], hl[ok], gr[ok], hr[ok]
    parent = g_tot**2 / (h_tot + lam)
    gains = 0.5 * (gl**2 / (hl + lam) + gr**2 / (hr + lam) - parent) - gamma
    best = int(np.argmax(gains))
    if gains[best] <= 0.0:
        return None
    t = 0.5 * (xs[cut[best]] + xs[cut[best] + 1])
    if not (xs[cut[best]] < t <= xs[cut[best] + 1]):
        return None
    return float(gains[best]), t


def _grow_tree(
    columns: np.ndarray,
    presorted: np.ndarray,
    rows: np.ndarray,
    features: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    cfg: TrainConfig,
) -> Tree:
    """Grow one tree on the ascending ``rows`` over ``features``.

    ``presorted[f]`` is the stable argsort of ``columns[f]``. A node that
    searches keeps, of each of its parent's sorted lists, the rows inside
    it, so it scans them in the order a stable argsort would give.
    """
    nodes: list[Node] = []
    inside = np.zeros(columns.shape[1], dtype=bool)
    inside[rows] = True
    # Under squared loss every hessian is 1, so every feature's hessian
    # prefix is 1..n, exact in float64 and shared by the whole node.
    unit_h = bool((h == 1.0).all())
    # Nodes to grow: (id, rows, parent's sorted lists as one features x rows
    # array, rows-inside mask, depth).
    stack = [(1, rows, presorted[features], inside, 0)]
    while stack:
        node_id, idx, lists, inside, depth = stack.pop()
        if depth < cfg.max_depth and len(idx) >= 2:
            # Each parent list holds every row of the node once, so each
            # keeps exactly len(idx) entries and one compress filters all.
            lists = np.compress(np.take(inside, lists).ravel(), lists)
            lists = lists.reshape(len(features), len(idx))
            h_prefix = np.arange(1.0, len(idx) + 1.0) if unit_h else None
            best = None
            for f, order in zip(features, lists):
                found = _best_split(
                    columns[f][order],
                    np.cumsum(g[order]),
                    h_prefix if unit_h else np.cumsum(h[order]),
                    cfg.reg_lambda,
                    cfg.min_gain,
                )
                if found is not None and (best is None or found[0] > best[0]):
                    best = (found[0], int(f), found[1])
            if best is not None:
                _, f, t = best
                nodes.append(branch(node_id, f, t, 2 * node_id, 2 * node_id + 1))
                go_left = columns[f] < t
                keep = go_left[idx]
                stack.append((2 * node_id + 1, idx[~keep], lists, ~go_left, depth + 1))
                stack.append((2 * node_id, idx[keep], lists, go_left, depth + 1))
                continue
        g_sum = float(g[idx].sum())
        h_sum = float(h[idx].sum())
        if h_sum + cfg.reg_lambda == 0.0:
            raise NumericalError(f"leaf {node_id} has zero hessian; use reg_lambda > 0")
        value = -g_sum / (h_sum + cfg.reg_lambda) * cfg.learning_rate
        nodes.append(leaf(node_id, value))
    return Tree(nodes)


def train(train_data: Dataset, valid_data: Dataset, cfg: TrainConfig) -> Ensemble:
    """Boost shallow trees until max_rounds or validation stalls.

    With early stopping enabled the returned ensemble is truncated at the
    best validation round. Identical (data, cfg) inputs produce an
    identical model, including file bytes.
    """
    if train_data.feature_names != valid_data.feature_names:
        raise InputError("train/valid schemas differ")
    y = train_data.response
    if cfg.loss is LossKind.BINARY_CROSS_ENTROPY:
        for name, resp in (("train", y), ("valid", valid_data.response)):
            if not np.isin(resp, (0.0, 1.0)).all():
                raise InputError(f"{name} response must be binary for logistic loss")
        pbar = float(y.mean())
        if pbar in (0.0, 1.0):
            raise InputError("degenerate single-valued response")
        base = float(np.log(pbar / (1.0 - pbar)))
    else:
        base = float(y.mean())

    n, m = train_data.n_rows, train_data.n_cols
    cols = train_data.columns
    margins = np.full(n, base)
    margins_valid = np.full(valid_data.n_rows, base)
    rng = np.random.default_rng(cfg.seed)
    presorted = np.argsort(cols, axis=1, kind="stable")

    trees: list[Tree] = []
    best_loss = np.inf
    best_round = -1
    for rnd in range(cfg.max_rounds):
        g, h = _grad_hess(cfg.loss, margins, y)
        rows = np.arange(n)
        if cfg.subsample < 1.0:
            rows = np.sort(rng.choice(n, size=max(1, int(cfg.subsample * n)), replace=False))
        feats = np.arange(m)
        if cfg.colsample < 1.0:
            feats = np.sort(rng.choice(m, size=max(1, int(cfg.colsample * m)), replace=False))
        tree = _grow_tree(cols, presorted, rows, feats, g, h, cfg)
        trees.append(tree)
        margins += tree.sweep(cols, tree.feature_set)
        margins_valid += tree.sweep(valid_data.columns, tree.feature_set)
        vloss = eval_loss(cfg.loss, margins_valid, valid_data.response)
        if vloss < best_loss:
            best_loss = vloss
            best_round = rnd
        elif cfg.early_stopping_rounds and rnd - best_round >= cfg.early_stopping_rounds:
            break
    if cfg.early_stopping_rounds:
        trees = trees[: best_round + 1]
    return Ensemble(
        trees=tuple(trees),
        n_features=m,
        objective=LOSS_OBJECTIVE[cfg.loss],
        base_score=base,
    )
