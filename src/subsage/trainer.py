"""Minimal second-order gradient boosting for shallow trees.

Implements Newton boosting with exact greedy split search: leaf values are
-G/(H + lambda), split gains are the usual half-sum of per-child score
improvements minus the min-gain penalty, and thresholds are midpoints
between consecutive distinct sorted values. Per-value sums of a column
with ties only rule out columns that cannot win; every split is found by
the exact scan. Desk scale only; no histogram binning, sparsity handling,
or multiclass objectives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import Dataset, check_seed
from .errors import InputError, NumericalError
from .estimator import _BLOCK_FLOATS, LOSS_OBJECTIVE, LossKind, _blocks
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


def _best_split(col, order, gs, hs, lam, gamma, distinct, den=None):
    """Best (gain, threshold) for one feature, or None.

    Scans the node's rows ``order``, which sort ``col`` ascending, with the
    prefix sums ``gs`` and ``hs`` of their gradients and hessians in that
    order; candidate thresholds are midpoints between consecutive distinct
    values, so any value equal to the left endpoint routes left under the
    strict-below convention. In a ``distinct`` column every position is a
    cut, found without reading values. ``den`` may hold the per-position
    ``hs[:-1] + lam`` and ``(hs[-1] - hs[:-1]) + lam``.
    """
    g_tot, h_tot = gs[-1], hs[-1]
    if distinct:
        cut, gl = None, gs[:-1]
    else:
        xs = col[order]
        if xs[0] == xs[-1]:
            return None
        cut = (xs[:-1] < xs[1:]).nonzero()[0]
        gl = gs[cut]
    if den is None:
        hl = hs[:-1] if distinct else hs[cut]
        dl, dr = hl + lam, (h_tot - hl) + lam
    else:
        dl, dr = den if distinct else (den[0][cut], den[1][cut])
    if dl[0] == 0.0 or dr[-1] == 0.0:
        # A child whose hessian sum plus lambda is 0 has no Newton step; hl
        # only grows and hr only shrinks, so the ends are the ones to check.
        ok = (dl > 0.0) & (dr > 0.0)
        if not ok.any():
            return None
        cut = ok.nonzero()[0] if distinct else cut[ok]
        gl, dl, dr = gl[ok], dl[ok], dr[ok]
    gains = _gains(g_tot, h_tot, gl, dl, dr, lam, gamma)
    best = int(gains.argmax())
    if gains[best] <= 0.0:
        return None
    c = best if cut is None else cut[best]
    lo, hi = col[order[c]], col[order[c + 1]]
    t = 0.5 * (lo + hi)
    if not (lo < t <= hi):
        return None
    return float(gains[best]), t


def _gains(g_tot, h_tot, gl, dl, dr, lam, gamma):
    """Gain 0.5 * (gl**2 / dl + gr**2 / dr - parent) - gamma at each cut,
    with gr = g_tot - gl, evaluated in place in this operation order."""
    parent = g_tot**2 / (h_tot + lam)
    gr = g_tot - gl
    gains = np.square(gl)
    gains /= dl
    gains += np.divide(np.square(gr, out=gr), dr, out=gr)
    gains -= parent
    gains *= 0.5
    gains -= gamma
    return gains


# Unit roundoff of float64, and gamma_k = k*u / (1 - k*u), which bounds the
# relative error of any float sum of k + 1 terms (Higham 2002, ch. 3-4).
_U = np.finfo(np.float64).eps / 2


def _gamma(k: int) -> float:
    return k * _U / (1.0 - k * _U)


# Bound terms at or above this stay a factor 2**27 below float64 overflow;
# a column with one scans exactly, so an overflow raises as it always has.
_NEAR_OVERFLOW = 2.0**996
# Relative slack for the rounding of the gain formula and of the bound's own
# arithmetic. Each term of the gain passes through at most about ten
# roundings, each of relative size u, so 64u covers them with room to spare;
# an absolute 1e-300 covers gradients small enough to round as subnormals.
_ROUNDING = 64 * _U
_TINY = 1e-300


@np.errstate(all="ignore")
def _value_sums(codes, g_node, h_node, width):
    """Per-value gradient sums, hessian sums and row counts of the columns
    of ``codes`` (node rows x columns), as one (3, columns, width) array,
    in one ``bincount`` each. ``h_node`` None means unit hessians, whose
    sums are the counts."""
    n, b = codes.shape
    key = np.empty((n, b), dtype=np.intp)
    np.add(codes, np.arange(0, b * width, width), out=key)
    key = key.ravel()
    size = b * width
    sums = np.empty((3, b, width))
    sums[2] = np.bincount(key, minlength=size).reshape(b, width)
    sums[0] = np.bincount(key, np.repeat(g_node, b), size).reshape(b, width)
    sums[1] = sums[2] if h_node is None else np.bincount(key, np.repeat(h_node, b), size).reshape(b, width)
    return sums


def _value_groups(n_values):
    """Runs (lo, hi, width) of the ascending value counts ``n_values``, each
    as long as fits ``_BLOCK_FLOATS`` values at its widest count ``width``,
    so that a node's per-value sums pad every column only to its run's."""
    groups, lo = [], 0
    while lo < len(n_values):
        # k columns from lo take k * n_values[lo + k - 1] values, which
        # grows with k.
        size = np.arange(1, len(n_values) - lo + 1) * n_values[lo:]
        hi = lo + max(1, int(np.count_nonzero(size <= _BLOCK_FLOATS)))
        groups.append((lo, hi, int(n_values[hi - 1])))
        lo = hi
    return groups


@np.errstate(all="ignore")
def _node_sums(codes, groups, idx, g, h, unit_h):
    """Per-value gradient sums, hessian sums and row counts of the node rows
    ``idx`` over every column of ``codes`` (rows x columns), as one
    (3, columns, width) array per group ``(lo, hi, width)`` of
    ``_value_groups``, filled by ``_value_sums`` a block of about
    ``_BLOCK_FLOATS`` codes at a time, and their error scale (t, A, A_h).
    Summed over a column's values, the gradient sums lie within gamma_t * A
    of the exact ones and the hessian sums within gamma_t * A_h: here
    t = len(idx), A = sum|g| and A_h = sum h, or 0 under unit hessians,
    whose sums are the counts. A larger sibling's sums are the parent's
    minus these, with the scale ``_gain_bounds`` proves for them."""
    if len(idx) < len(codes):
        codes = np.take(codes, idx, axis=0)
    g_node = g[idx]
    h_node = None if unit_h else h[idx]
    parts = []
    for lo, hi, width in groups:
        part = np.empty((3, hi - lo, width))
        for a, b in _blocks(hi - lo, max(len(idx), 1)):
            part[:, a:b] = _value_sums(codes[:, lo + a : lo + b], g_node, h_node, width)
        parts.append(part)
    return parts, (len(idx), float(np.abs(g_node).sum()), 0.0 if unit_h else float(h_node.sum()))


@np.errstate(all="ignore")
def _sibling_sums(sums, part):
    """A child's per-value sums as its parent's ``sums`` minus its
    sibling's ``part``, with the error scale ``_gain_bounds`` proves."""
    (whole, (t, a, a_h)), (values, (_, a_s, a_hs)) = sums, part
    return [w - v for w, v in zip(whole, values)], (t + 1, a + a_s, a_h + a_hs)


@np.errstate(all="ignore")
def _gain_bounds(sums, scale, n, lam, gamma):
    """Upper bound on ``_best_split``'s computed gain at each value
    boundary of each column, from its per-value sums at a node of ``n``
    rows with error scale (t, A, A_h) as ``_node_sums`` gives; -inf where
    no cut falls, +inf where no bound is safe.

    Let gamma_k = k*u / (1 - k*u). Scale (t, A, A_h) means that the
    per-value gradient sums S_v of a column lie within e_v of the exact
    sums, with sum_v e_v <= gamma_t * A and A at least the node's sum|g|,
    and the hessian sums likewise with A_h. Rows summed directly give
    t = n (``_node_sums``). A larger child's sums are its parent's minus
    its smaller sibling's, one rounded subtraction per value. With parent
    scale (t, A, A_h), sibling scale (t_s, A_s, A_h,s), t_s <= t, and L_v
    the child's exact sum, |L_v| summing to at most A,

        |fl(S_v - S'_v) - L_v| <= (1 + u) * (e_v + e'_v) + u * |L_v|,

    which sums over v to at most (gamma_t + u * gamma_t + u) * (A + A_s)
    <= gamma_{t+1} * (A + A_s), since gamma_k + u + u * gamma_k <=
    gamma_{k+1} (Higham 2002, lemma 3.3). So the child's scale is
    (t + 1, A + A_s, A_h + A_h,s), and its counts, and hessians under
    squared loss, stay exact integers.

    At the boundary after value v the exact scan's gl is a sequential prefix
    sum over the node's rows in sorted order, within gamma_n * A of the
    exact sum. The cumulative sum GL of the K per-value sums here is within
    gamma_t * A + gamma_K * (1 + gamma_t) * A <= gamma_{t+K+1} * A of it.
    So |gl - GL| <= (gamma_n + gamma_{t+K+1}) * A =: eg, and the totals
    differ by as much, so |gr - (G - GL)| <= 2 eg; the hessian sums likewise
    within eh, with A_h for A. Then

        gl**2 / dl <= (|GL| + eg)**2 / (HL - eh + lam),
        gr**2 / dr <= (|G - GL| + 2 eg)**2 / (H - HL - 2 eh + lam),
        parent     >= max(|G| - eg, 0)**2 / (H + eh + lam),

    and the rounding of the gain formula adds at most ``_ROUNDING`` times
    the sum of its terms. eg and eh are doubled to cover the rounding of
    A, of A + A_s and of themselves. A non-positive denominator, a
    non-finite term or one near overflow leaves the boundary unbounded
    (+inf), so its column is scanned exactly.
    """
    t, abs_g, abs_h = scale
    gl, hl, cl = np.cumsum(sums, axis=2)
    g_tot, h_tot = gl[:, -1:], hl[:, -1:]
    err = 2.0 * (_gamma(n) + _gamma(t + sums.shape[2] + 1))
    eg, eh = err * abs_g, err * abs_h
    gl_up = np.abs(gl) + eg
    gr_up = np.abs(g_tot - gl) + 2.0 * eg
    dl = (hl - eh) + lam
    dr = ((h_tot - hl) - 2.0 * eh) + lam
    left = np.square(gl_up) / dl
    right = np.square(gr_up) / dr
    g_lo = np.maximum(np.abs(g_tot) - eg, 0.0)
    g_hi = np.abs(g_tot) + eg
    p_lo = np.square(g_lo) / ((h_tot + eh) + lam)
    p_hi = np.square(g_hi) / ((h_tot - eh) + lam)
    bound = 0.5 * ((left + right) - p_lo) - gamma
    bound += _ROUNDING * (left + right + p_hi + gamma) + _TINY
    safe = (dl > 0.0) & (dr > 0.0) & ((h_tot - eh) + lam > 0.0)
    for term in (np.square(gl_up), np.square(gr_up), left, right, np.square(g_hi), p_hi):
        safe &= term < _NEAR_OVERFLOW
    safe &= abs_g < _NEAR_OVERFLOW
    bound = np.where(safe, bound, np.inf)
    # A cut needs rows on both sides; padding values past a column's own
    # count hold no rows and end with cl == n.
    return np.where((cl > 0) & (cl < n), bound, -np.inf)


def _tied_bounds(sums, idx, lam, gamma):
    """Per screened column, an upper bound on ``_best_split``'s gain on
    the node rows ``idx``, from the node's sums and their scale: one
    ``_gain_bounds`` call per group of ``_value_groups``."""
    parts, scale = sums
    return np.concatenate([_gain_bounds(part, scale, len(idx), lam, gamma).max(axis=1) for part in parts])


class _Columns(NamedTuple):
    """The training columns with what a fit knows of their sort order.

    ``distinct[f]`` says column f has no ties, and ``screened[f]`` that it
    has ties and few values. ``slot[f]`` is its row in ``presorted`` (the
    stable argsort of each column not screened) or else its column in
    ``codes``, which numbers each row of a screened column by the rank of
    its value among the column's ``n_values`` distinct values. ``codes`` is
    rows x columns, so a node gathers whole rows, and its columns ascend by
    value count.
    """

    values: np.ndarray
    distinct: np.ndarray
    screened: np.ndarray
    slot: np.ndarray
    presorted: np.ndarray
    codes: np.ndarray
    n_values: np.ndarray


def _encode(cols: np.ndarray) -> _Columns:
    """Sort every column once: code the columns to screen in the smallest
    unsigned dtype that fits, and keep the sorted rows of the others."""
    n = cols.shape[1]
    presorted = np.argsort(cols, axis=1, kind="stable")
    # Every subset of a column without ties has none either; -0.0 ties 0.0.
    steps = [x[:-1] < x[1:] for x in map(np.take, cols, presorted)]
    n_values = np.array([int(s.sum()) + 1 for s in steps])
    distinct = n_values == n
    # A node bounds each screened column at every one of its values, so a
    # column with many values costs more to bound than to scan. Timed fits
    # of 40 such columns (BENCH_18.json) put the crossover at about 8 sqrt(n)
    # values for n = 1000 and 12-16 sqrt(n) for n = 4000 to 32000, so a
    # column with more than 8 sqrt(n) keeps its presorted rows and the
    # exact scan.
    screened = ~distinct & (n_values <= 8.0 * math.sqrt(n))
    # Codes ascend by value count, so that a node's sums pad each column
    # only to about its own count (``_value_groups``).
    coded = np.flatnonzero(screened)
    coded = coded[np.argsort(n_values[coded], kind="stable")]
    dtype = np.min_scalar_type(int(n_values[coded].max()) - 1) if len(coded) else np.uint8
    codes = np.empty((n, len(coded)), dtype)
    for t, j in enumerate(coded):
        codes[presorted[j, 0], t] = 0
        codes[presorted[j, 1:], t] = np.cumsum(steps[j], dtype=dtype)
    slot = np.empty(len(cols), dtype=np.intp)
    slot[~screened] = np.arange(len(cols) - len(coded))
    slot[coded] = np.arange(len(coded))
    if len(coded):
        presorted = presorted[~screened]
    return _Columns(cols, distinct, screened, slot, presorted, codes, n_values[coded])


# Under logistic loss with reg_lambda 0 a saturated sigmoid leaves hessian
# sums so small that a split gain overflows; one errstate per tree raises it.
@np.errstate(over="raise", invalid="raise")
def _grow_tree(
    enc: _Columns,
    rows: np.ndarray,
    features: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    cfg: TrainConfig,
) -> Tree:
    """Grow one tree on the ascending ``rows`` over ``features``.

    A node scans every drawn column that is not screened exactly, down its
    sorted lists: the root keeps the rows of ``rows`` from each presorted
    list, and a node whose children will search splits each of its lists
    in two with one gather of the split side, so every node scans its rows
    in the order a stable argsort would give. It then bounds each drawn
    screened column from per-value sums and scans exactly, in bound order,
    every one whose bound is not below the best gain found so far; such a
    scan stably sorts the column's codes over the node's ascending rows,
    which is the same order. Any column it skips gains less than the split
    taken. The root sums its own rows. When the larger child will search,
    the smaller one sums its rows and the larger takes the node's sums
    minus the smaller's, with the error scale ``_gain_bounds`` gives for it.
    """
    columns = enc.values
    nodes: list[Node] = []
    # Under squared loss every hessian is 1, so every feature's hessian
    # prefix is 1..n, exact in float64, and its per-cut Newton denominators
    # are shared by the whole node.
    unit_h = bool((h == 1.0).all())
    listed = features[~enc.screened[features]]
    screened = features[enc.screened[features]]
    # In code column order, which ascends by value count.
    screened = screened[np.argsort(enc.slot[screened])]
    # Lists are never written in place, so the root reads ``presorted``
    # itself when every such feature and every row is drawn.
    lists = enc.presorted if len(listed) == len(enc.presorted) else enc.presorted[enc.slot[listed]]
    if len(rows) < columns.shape[1]:
        # Each list holds every row once, so each keeps exactly len(rows)
        # entries and one compress filters all.
        inside = np.zeros(columns.shape[1], dtype=bool)
        inside[rows] = True
        lists = np.compress(np.take(inside, lists).ravel(), lists).reshape(len(listed), len(rows))
    codes = enc.codes if len(screened) == enc.codes.shape[1] else enc.codes[:, enc.slot[screened]]
    groups = _value_groups(enc.n_values[enc.slot[screened]])
    # Nodes to grow: (id, rows, sorted lists as one features x rows array,
    # per-value sums or None to sum the rows, depth).
    stack = [(1, rows, lists, None, 0)]
    while stack:
        node_id, idx, lists, sums, depth = stack.pop()
        if depth < cfg.max_depth and len(idx) >= 2:
            lam, den = cfg.reg_lambda, None
            if unit_h:
                hs = np.arange(1.0, len(idx) + 1.0)
                den = (hs[:-1] + lam, (hs[-1] - hs[:-1]) + lam)
            best = None

            def scan(f, order, distinct):
                # Highest gain wins, then the earliest feature, as a scan
                # of every feature in order would choose.
                nonlocal best
                found = _best_split(
                    columns[f], order, g[order].cumsum(), hs if unit_h else h[order].cumsum(),
                    lam, cfg.min_gain, distinct, den,
                )
                if found is not None and (
                    best is None or found[0] > best[0] or (found[0] == best[0] and f < best[1])
                ):
                    best = (found[0], int(f), found[1])

            try:
                for f, order in zip(listed, lists):
                    scan(f, order, enc.distinct[f])
                if len(screened):
                    if sums is None:
                        sums = _node_sums(codes, groups, idx, g, h, unit_h)
                    bounds = _tied_bounds(sums, idx, lam, cfg.min_gain)
                    for j in np.argsort(-bounds, kind="stable"):
                        # Every later bound is lower still; a gain must be > 0.
                        if bounds[j] < (0.0 if best is None else best[0]):
                            break
                        scan(screened[j], idx[np.argsort(codes[idx, j], kind="stable")], False)
            except FloatingPointError:
                raise NumericalError(
                    f"node {node_id}: split gain overflows; use reg_lambda > 0"
                ) from None
            if best is not None:
                _, f, t = best
                nodes.append(branch(node_id, f, t, 2 * node_id, 2 * node_id + 1))
                go_left = columns[f] < t
                left = go_left[idx]
                kids = [idx[left], idx[~left]]
                kid_lists, kid_sums = [None, None], [None, None]
                if depth + 1 < cfg.max_depth:
                    side = np.take(go_left, lists).ravel()
                    kid_lists = [
                        np.compress(side, lists).reshape(len(listed), len(kids[0])),
                        np.compress(~side, lists).reshape(len(listed), len(kids[1])),
                    ]
                    if len(screened) and max(len(kids[0]), len(kids[1])) >= 2:
                        small = int(len(kids[1]) < len(kids[0]))
                        kid_sums[small] = _node_sums(codes, groups, kids[small], g, h, unit_h)
                        kid_sums[1 - small] = _sibling_sums(sums, kid_sums[small])
                stack.append((2 * node_id + 1, kids[1], kid_lists[1], kid_sums[1], depth + 1))
                stack.append((2 * node_id, kids[0], kid_lists[0], kid_sums[0], depth + 1))
                continue
        g_sum = float(g[idx].sum())
        h_sum = float(h[idx].sum())
        if h_sum + cfg.reg_lambda == 0.0:
            raise NumericalError(f"leaf {node_id} has zero hessian; use reg_lambda > 0")
        value = -g_sum / (h_sum + cfg.reg_lambda) * cfg.learning_rate
        if not math.isfinite(value):
            raise NumericalError(f"leaf {node_id} step overflows; use reg_lambda > 0")
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
    if train_data.n_rows == 0:
        raise InputError("training data has no rows")
    if valid_data.n_rows == 0:
        raise InputError("validation data has no rows")
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
    enc = _encode(cols)

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
        tree = _grow_tree(enc, rows, feats, g, h, cfg)
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
