"""Sub-SAGE point estimation for tree ensembles.

The sub-SAGE score of feature k weighs estimated loss-difference terms over
the reduced coalition family Q_k: the empty set, every other single feature,
and the set of all features except k. Weights follow the Shapley pattern
renormalized so each of the three subset-size classes carries total weight
one third.

Loss differences are estimated in the tree-split form: only trees that
split on k (the set tau_k) change between S and S-union-{k}, so the margin
gap d^S is summed over tau_k alone and each loss difference is a weighted
mean of d^S against the margin given S. The reduced form is algebraically
identical to the naive difference of mean losses and is verified against
it in tests.

All estimates support row weights, which serve bootstrap replicates
(weights = multiplicity counts) and jackknife (one weight zeroed) without
materializing resampled datasets; unit weights reproduce the plain
estimate exactly because annotation probabilities are integer counts
divided by the effective sample size either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dataset import Dataset
from .errors import InputError
from .tree_model import Ensemble, trees_containing

__all__ = [
    "LossKind",
    "SubsetFamily",
    "SubSageEstimate",
    "build_subset_family",
    "subsage_estimate",
    "SubSageEngine",
]


class LossKind(Enum):
    SQUARED_ERROR = "squared_error"
    BINARY_CROSS_ENTROPY = "binary_cross_entropy"


LOSS_OBJECTIVE = {
    LossKind.SQUARED_ERROR: "regression",
    LossKind.BINARY_CROSS_ENTROPY: "binary-logistic",
}


@dataclass(frozen=True)
class SubsetFamily:
    """The coalition family Q_k with per-subset weights summing to one."""

    n_features: int
    subsets: tuple[frozenset[int], ...]
    weights: tuple[float, ...]


@dataclass(frozen=True)
class SubSageEstimate:
    """Point estimate with the per-subset loss differences that formed it."""

    psi_hat: float
    per_subset_deltas: dict[frozenset[int], float]


def build_subset_family(m: int, k: int) -> SubsetFamily:
    """Q_k for feature k in an m-feature space.

    Requires m >= 3: with fewer features the all-but-k subset collapses
    onto a singleton and the three size classes degenerate. The Shapley
    weights |S|! (m-|S|-1)! / (3 (m-1)!) reduce to 1/3 for the empty and
    the all-but-k subsets and to 1/(3(m-1)) for each singleton.
    """
    if m < 3:
        raise InputError(f"subset family needs at least 3 features, got {m}")
    if k < 0 or k >= m:
        raise InputError(f"feature index {k} out of range for m={m}")
    others = [j for j in range(m) if j != k]
    single = 1.0 / (3 * (m - 1))
    return SubsetFamily(
        n_features=m,
        subsets=(frozenset(), *(frozenset((j,)) for j in others), frozenset(others)),
        weights=(1.0 / 3, *(single for _ in others), 1.0 / 3),
    )


# ---------------------------------------------------------------------------
# Evaluation engine
# ---------------------------------------------------------------------------

# Trees that split on k share one rest table while the product of their
# cut counts + 1 over features other than k stays at or below this: each
# shared table saves a gather over every row, and the product bounds the
# leaf sets its rows reach. The groups fix which leaves add up in one rest
# row before the rows add up per data row, so another grouping would move
# d^rest in the last bits.
_REST_CELLS = 128

# Float64 values per block of a draw's code rows, about 1 MB: a
# block stays in cache however many features the trees use, while on few
# data rows one numpy call still covers many subsets.
_BLOCK_FLOATS = 2**17


def _blocks(n_rows: int, width: int) -> list[tuple[int, int]]:
    """Bounds (lo, hi) splitting ``range(n_rows)`` into blocks of at most
    ``_BLOCK_FLOATS`` values of ``width`` each, and at least one row."""
    size = max(1, _BLOCK_FLOATS // width)
    return [(lo, min(lo + size, n_rows)) for lo in range(0, n_rows, size)]


def _dense_rank(code: np.ndarray, bound: int) -> tuple[np.ndarray, int]:
    """Codes in [0, bound) renumbered 0, 1, ... in ascending order, as
    ``np.unique(code, return_inverse=True)`` numbers them, and their count."""
    seen = np.zeros(bound, bool)
    seen[code] = True
    rank = np.cumsum(seen)
    return rank[code] - 1, int(rank[-1])


def _pack(dims: np.ndarray, slot: int):
    """Lay out lattices of (rows, columns) ``dims[:, i]`` from table index
    ``slot`` in padded blocks, largest first: a block takes the next lattice
    while its padded size stays within twice the cells it holds, so a draw
    makes a few prefix sums over little padding. Returns each lattice's
    first index and row stride, the blocks as (start, stop, (lattices, rows,
    columns)), and the next free index."""
    order = np.argsort(-dims.prod(axis=0), kind="stable").tolist()
    origin, stride = np.zeros((2, len(order)), np.intp)
    blocks = []
    while order:
        a, b, cells, n = 0, 0, 0, 0
        for i in order:
            size = int(dims[0, i] * dims[1, i])
            wide = max(a, int(dims[0, i])), max(b, int(dims[1, i]))
            if n and (n + 1) * wide[0] * wide[1] > 2 * (cells + size):
                break
            (a, b), cells, n = wide, cells + size, n + 1
        same, order = order[:n], order[n:]
        origin[same], stride[same] = slot + np.arange(n) * a * b, b
        blocks.append((slot, slot + n * a * b, (n, a, b)))
        slot += n * a * b
    return origin, stride, blocks, slot


def _ranges(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The integer ranges [first[i], first[i] + count[i]), one after another."""
    start = np.cumsum(count) - count
    return np.arange(count.sum()) + np.repeat(first - start, count)


class SubSageEngine:
    """Shared state for estimating one feature's sub-SAGE on one dataset.

    One table numbers the distinct (feature, threshold) pairs of all splits.
    A row's grid cell on a feature counts its thresholds at or below the
    row's value, so the row goes left exactly where its cell is at most the
    threshold's rank: cells alone decide which side a row takes, and rows in
    one cell of a set of thresholds share every conditional expectation that
    tests only those. A row enters the loss difference of the empty set and
    of each singleton m only through its grid cells of k and m and its
    response, so it keeps one joint cell code per such subset. For the rest
    subset it keeps, per group of trees that split on k, the id of the leaf
    set it reaches with k unknown. A draw sums the weights and weighted
    responses per joint cell, reads the branch probabilities off their grid
    marginals, and sums closed-form loss gaps per cell; only the rest subset
    gathers per row.

    Grid and pair tables are filled from leaf-box corners: a leaf adds its
    coefficient at the low corner of its box and takes it off past each
    high side, so prefix sums over the threshold lattice give every cell the
    leaves whose box holds it, at O(leaves) entries per (tree, known-set)
    term whatever the number of cells.
    """

    def __init__(self, ensemble: Ensemble, data: Dataset, k: int, loss: LossKind):
        if not ensemble.annotated:
            raise InputError("ensemble is not probability-annotated")
        ensemble.check_width(data)
        if data.n_rows < 1:
            raise InputError("sub-SAGE estimate needs at least 1 row")
        tau, _ = trees_containing(ensemble, k)
        want = LOSS_OBJECTIVE[loss]
        if ensemble.objective != want:
            raise InputError(
                f"{loss.value} requires objective {want!r}, "
                f"model has {ensemble.objective!r}"
            )
        self.loss = loss
        self.k = k
        self.ensemble = ensemble
        self.n = data.n_rows
        self.y = data.response
        if loss is LossKind.BINARY_CROSS_ENTROPY and not np.isin(self.y, (0.0, 1.0)).all():
            raise InputError("binary cross-entropy requires responses in {0, 1}")
        self.family = build_subset_family(ensemble.n_features, k)
        trees = ensemble.trees
        self.used_features = frozenset(f for tree in trees for f in tree.feature_set)
        # Features whose singleton has its own delta: those some tree uses.
        self._singles = sorted(self.used_features - {k})
        s = len(self._singles)
        self._rest_row = s + 1 if s > 1 else s
        if not tau:
            return  # no tree splits on k: every delta is exactly zero
        shared = set().union(*(trees[t].feature_set for t in tau)) - {k}
        # Singletons of features sharing a tree with k first: their d^{m}
        # differs from d^{} by a correction over those trees.
        self._singles.sort(key=lambda m: m not in shared)
        self._n_pairs = pairs = len(shared)

        # Threshold ids number the distinct (feature row, threshold) pairs, k
        # first, thresholds ascending; p0 is the annotation of each pair's
        # first node, which all its nodes must share. Per tree, the threshold
        # id of each node (-1 at leaves); per used feature, each row's cell.
        feats = [k, *self._singles]
        row_of = np.full(ensemble.n_features, -1)
        row_of[feats] = np.arange(s + 1)
        at = np.concatenate([tree.left for tree in trees]) >= 0
        feat, thr, p = (np.concatenate([getattr(tree, name) for tree in trees])[at]
                        for name in ("feature", "threshold", "prob_left"))
        distinct, first, tid = np.unique(np.stack((row_of[feat], thr), axis=1), axis=0,
                                         return_index=True, return_inverse=True)
        self._p0 = p[first]
        i = np.argmax(p != self._p0[tid])
        if p[i] != self._p0[tid[i]]:
            raise InputError(f"nodes splitting feature {feat[i]} at {float(thr[i])!r} disagree on "
                             f"prob_left ({float(self._p0[tid[i]])!r} vs {float(p[i])!r})")
        sizes = np.bincount(distinct[:, 0].astype(np.intp))
        self._thr_feat = np.repeat(feats, sizes)
        self._thr_rank = np.concatenate([np.arange(m) for m in sizes])
        iv = [np.searchsorted(thresholds, data.column(f), side="right")
              for f, thresholds in zip(feats, np.split(distinct[:, 1], np.cumsum(sizes)[:-1]))]
        node_tid = np.full(len(at), -1)
        node_tid[at] = tid
        self._node_tid = np.split(node_tid, np.cumsum([len(tree.left) for tree in trees])[:-1])

        # Flat over the leaves of every tree, each leaf's value, step count
        # and first step, and per step (leaf after leaf, root first) its index
        # into a draw's (p, 1 - p). A box entry is a leaf's grid cells [lo, hi)
        # on one split feature of its tree, hi = ``none`` if unbounded; a
        # leaf's entries follow its tree's features in ascending order. With a
        # rest subset, also the margin prediction and its part from tau_k
        # trees, the all-known term of d^rest, which no draw changes.
        none = int(sizes.max()) + 1
        values, n_steps, pq, at_box, above, left = [], [], [], [], [], []
        n_boxes = 0
        self._pred, self._tau_pred = np.full(self.n, ensemble.base_score), np.zeros(self.n)
        for tree, tids in zip(trees, self._node_tid):
            if s > 1:
                margin = tree.sweep(data.columns, tree.feature_set)
                self._pred += margin
                if k in tree.feature_set:
                    self._tau_pred += margin
            leaves, n, steps, went_left = tree.leaf_steps
            tid, width = tids[steps], len(tree.feature_set)
            at_box.append(n_boxes + np.repeat(np.arange(len(leaves)) * width, n)
                          + np.searchsorted(tree.feature_set, tree.feature[steps]))
            n_boxes += len(leaves) * width
            values.append(tree.value[leaves])
            n_steps.append(n)
            pq.append(np.where(went_left, tid, tid + len(self._p0)))
            above.append(self._thr_rank[tid] + 1)
            left.append(went_left)
        at_box, above, left = (np.concatenate(a) for a in (at_box, above, left))
        lo = np.zeros(n_boxes, np.intp)
        np.maximum.at(lo, at_box[~left], above[~left])
        hi = np.full(n_boxes, none)
        np.minimum.at(hi, at_box[left], above[left])
        del at_box, above, left
        self._n_leaves = np.array([len(v) for v in values])
        self._leaf0 = np.cumsum(self._n_leaves) - self._n_leaves
        self._values, self._leaf_n = np.concatenate(values), np.concatenate(n_steps)
        self._step0 = np.cumsum(self._leaf_n) - self._leaf_n
        self._pq = np.concatenate(pq)
        leaf_tree = np.repeat(np.arange(len(trees)), self._n_leaves)
        widths = np.array([len(tree.feature_set) for tree in trees])[leaf_tree]
        box0 = np.cumsum(widths) - widths
        box_leaf = np.repeat(np.arange(len(leaf_tree)), widths)
        box_tree = leaf_tree[box_leaf]
        box_feat = np.concatenate([
            np.tile(np.array(tree.feature_set, np.intp), n) for tree, n in zip(trees, self._n_leaves)
        ])

        # Rest tables share trees of tau_k while the cut cells of their
        # splits on features other than k stay few.
        def n_cells(group):
            tids = np.unique(np.concatenate([self._node_tid[t] for t in group]))
            feats = self._thr_feat[tids[tids >= 0]]
            return np.prod(np.unique(feats[feats != k], return_counts=True)[1] + 1.0)

        groups: list[list[int]] = []
        for t in tau if s > 1 else ():
            if groups and n_cells(groups[-1] + [t]) <= _REST_CELLS:
                groups[-1].append(t)
            else:
                groups.append([t])
        # Each row's leaf-set id in each rest table, as a table index.
        self._rest_ids = np.empty((len(groups), self.n), np.intp)
        self._n_rest = len(groups)

        # Table entries: each adds a signed leaf coefficient of one class
        # (tree, known features) at one table index. A class key packs the
        # tree, up to two features a and b or -1, and whether the leaf's
        # unknown steps are those on a or b (inv 1) or all others (inv 0).
        dims = (len(trees), ensemble.n_features + 1, ensemble.n_features + 1, 2)
        entries: list[tuple] = []

        def key(t, a=-1, b=-1, inv=0):
            return np.ravel_multi_index((t, a + 1, b + 1, inv), dims)

        def add(at, keys, leaf, neg, keep=slice(None)):
            neg = np.broadcast_to(neg, at.shape)
            entries.append((at[keep], keys[keep], leaf[keep], neg[keep]))

        # Table layout: k's grid row, then the singletons' grid rows, whose
        # prefix sums hold k's d^{} and each singleton m's margin given x_m;
        # the empty set's margin; each pair space's (cuts_k + 1) x (cuts_m + 1)
        # lattice, whose 2-D prefix sums hold d^{m} - d^{} over the tau_k
        # trees that use m; a slot that stays 0; then the rest tables' sets.
        rows = np.stack((np.ones(s + 1, np.intp), sizes + 1))
        grid0, _, self._lattices, self._grid1 = _pack(rows[:, :1], 0)
        grid1, _, blocks, self._grids_end = _pack(rows[:, 1:], self._grid1)
        grid0 = np.concatenate((grid0, grid1))
        self._lattices += blocks
        self._empty_slot = self._grids_end
        # Weighted count below threshold j of f = cumulative weight of f's
        # grid cells 0..j; integer weights keep every partial sum exact.
        self._count_lo = np.repeat(grid0, sizes)
        self._count_hi = self._count_lo + self._thr_rank + 1
        base = grid0[row_of[box_feat]]
        opened = lo < hi
        closed = opened & (hi < none)
        known = key(box_tree, box_feat)
        add(base + lo, known, box_leaf, False, opened)
        add(base + hi, known, box_leaf, True, closed)
        add(base, key(box_tree), box_leaf, True)
        add(np.full(len(leaf_tree), self._empty_slot), key(leaf_tree), np.arange(len(leaf_tree)), False)

        # Pair lattices: their axes are the cuts of k and of m in the trees
        # the two share. pos[axis, pair] maps a grid cell (or ``none``) to its
        # lattice position, the number of cuts below it, for cells and corners.
        pair_of = np.full(ensemble.n_features, -1)
        pair_of[self._singles[:pairs]] = np.arange(pairs)
        pos = np.zeros((2, pairs, none + 1), np.intp)
        for t in tau:
            tids = self._node_tid[t][self._node_tid[t] >= 0]
            on_k = self._thr_feat[tids] == k
            i = pair_of[self._thr_feat[tids[~on_k]]]
            pos[0][np.ix_(i, self._thr_rank[tids[on_k]] + 1)] = 1
            pos[1, i, self._thr_rank[tids[~on_k]] + 1] = 1
        pos = pos.cumsum(axis=2)
        origin, stride, blocks, slot = _pack(pos[:, :, -1] + 1, self._empty_slot + 1)
        self._lattices += blocks
        # Joint cells: the empty set's are k's grid cells, and singleton m's
        # the occupied (k cell, m cell) pairs, ranked densely; codes number
        # them one subset after another. Per cell, the table indices of its
        # margin F, its gap d^{} and, if m shares a tree with k, its pair
        # lattice position; other cells take the next slot, which stays 0.
        k_rank, n_k = _dense_rank(iv[0], sizes[0] + 1)
        self._codes = np.empty((s + 1, self.n), np.intp)
        self._codes[0] = iv[0]
        cells, self._cell0 = [np.stack((np.arange(sizes[0] + 1),) * 2)], [0, sizes[0] + 1]
        for row, m in enumerate(self._singles, 1):
            width = sizes[row] + 1
            code, count = _dense_rank(k_rank * width + iv[row], n_k * width)
            np.add(code, self._cell0[-1], out=self._codes[row])
            cells.append(np.empty((2, count), np.intp))
            cells[-1][:, code] = iv[0], iv[row]
            self._cell0.append(self._cell0[-1] + count)
        self._code_blocks = _blocks(s + 1, self.n)
        at_k, at_m = np.concatenate(cells, axis=1)
        subset = np.repeat(np.arange(s + 1), np.diff(self._cell0))
        self._cell_slots = np.stack((grid0[subset] + at_m, at_k, np.full_like(at_k, slot)))
        self._cell_slots[0, : self._cell0[1]] = self._empty_slot
        at = slice(self._cell0[1], self._cell0[pairs + 1])
        i = subset[at] - 1
        self._cell_slots[2, at] = origin[i] + pos[0, i, at_k[at]] * stride[i] + pos[1, i, at_m[at]]
        slot += 1
        # Corners of each shared tree's leaf boxes: both features known, then
        # k only, m only, and neither.
        has_k = np.array([k in tree.feature_set for tree in trees])
        at_k = np.array([np.searchsorted(tree.feature_set, k) for tree in trees])
        sel = np.flatnonzero((pair_of[box_feat] >= 0) & has_k[box_tree])
        leaf, t, m = box_leaf[sel], box_tree[sel], box_feat[sel]
        i = pair_of[m]
        kb = box0[leaf] + at_k[t]
        ok_k, ok_m = lo[kb] < hi[kb], lo[sel] < hi[sel]
        cap_k, cap_m = ok_k & (hi[kb] < none), ok_m & (hi[sel] < none)
        k_lo, k_hi = pos[0, i, lo[kb]] * stride[i], pos[0, i, hi[kb]] * stride[i]
        m_lo, m_hi = pos[1, i, lo[sel]], pos[1, i, hi[sel]]
        base = origin[i]
        both, only_k, only_m = key(t, k, m), key(t, k), key(t, m)
        add(base + k_lo + m_lo, both, leaf, False, ok_k & ok_m)
        add(base + k_hi + m_lo, both, leaf, True, cap_k & ok_m)
        add(base + k_lo + m_hi, both, leaf, True, ok_k & cap_m)
        add(base + k_hi + m_hi, both, leaf, False, cap_k & cap_m)
        add(base + k_lo, only_k, leaf, True, ok_k)
        add(base + k_hi, only_k, leaf, False, cap_k)
        add(base + m_lo, only_m, leaf, True, ok_m)
        add(base + m_hi, only_m, leaf, False, cap_m)
        add(base, key(t), leaf, False)

        # Rest tables: minus the margin of their tau_k trees given every
        # feature but k, the sum of the leaves a row reaches when it takes
        # both branches at each split on k. Walking each tree parents first,
        # a row's code doubles at each split off k and adds 1 if the row
        # reaches it and goes right, its grid cell past the split's threshold
        # rank. Whether a row reaches a split follows from the digits above
        # it, so equal codes mean equal leaf sets.
        # Codes are ranked densely whenever their bound passes the rows, and
        # each set's slot gets one entry per leaf it holds, in leaf order.
        for row, group in enumerate(groups):
            code, bound, reach = np.zeros(self.n, np.intp), 1, []
            for t in group:
                tree, tids = trees[t], self._node_tid[t]
                at = np.zeros((len(tree.feature), self.n), bool)
                at[0] = True
                for v in np.flatnonzero(tree.left >= 0).tolist():
                    l, r, f = tree.left[v], tree.right[v], tree.feature[v]
                    if f == k:
                        at[l] = at[r] = at[v]
                        continue
                    left = iv[row_of[f]] <= self._thr_rank[tids[v]]
                    at[l], at[r] = at[v] & left, at[v] & ~left
                    if bound > self.n:
                        code, bound = _dense_rank(code, bound)
                    code, bound = 2 * code + at[r], 2 * bound
                reach.append(at[tree.left < 0])
            code, bound = _dense_rank(code, bound)
            np.add(code, slot, out=self._rest_ids[row])
            one = np.empty(bound, np.intp)
            one[code] = np.arange(self.n)  # any row of a set reaches its leaves
            c, at = np.nonzero(np.concatenate([hit[:, one] for hit in reach]))
            leaves = _ranges(self._leaf0[group], self._n_leaves[group])[c]
            add(slot + at, key(leaf_tree[leaves], k, inv=1), leaves, True)
            slot += bound
        self._n_slots = slot

        at, keys, leaf, neg = (np.concatenate(a) for a in zip(*entries))
        del entries
        classes, of = np.unique(keys, return_inverse=True)
        t, a, b, inv = np.unravel_index(classes, dims)
        first, rank = self._classes(t, a - 1, b - 1, inv.astype(bool))
        self._entry_at = at
        self._entry_src = rank[first[of] + leaf - self._leaf0[leaf_tree[leaf]]] + neg * len(rank)
        del self._node_tid, self._values, self._leaf_n, self._step0, self._pq
        del self._n_leaves, self._leaf0

    # -- build helpers -------------------------------------------------------

    def _classes(self, tree, a, b, inv):
        """Set up the leaf coefficients of the classes (tree, a, b, inv), in
        that order: a leaf's value times the probabilities of its unknown
        steps, root first; its steps on features a and b are known unless
        ``inv``, when only those are unknown. A draw computes them most
        unknown steps first (ties in class order). Returns each class's
        first coefficient in class order and each coefficient's draw index."""
        count = self._n_leaves[tree]
        leaves = _ranges(self._leaf0[tree], count)
        owner = np.repeat(np.arange(len(tree)), count)
        n_all = self._leaf_n[leaves]
        n_unknown = np.zeros(len(leaves), np.intp)
        steps = [np.zeros(0, np.intp)]
        # Chunks of about 2**18 steps bound the build's temporaries.
        ends = np.searchsorted(np.cumsum(n_all), np.arange(2**18, n_all.sum(), 2**18))
        for lo, hi in zip([0, *ends], [*ends, len(leaves)]):
            at = np.repeat(np.arange(hi - lo), n_all[lo:hi])
            pq = self._pq[_ranges(self._step0[leaves[lo:hi]], n_all[lo:hi])]
            c = owner[lo:hi][at]
            f = self._thr_feat[pq % len(self._p0)]
            unknown = ((f != a[c]) & (f != b[c])) != inv[c]
            steps.append(pq[unknown])
            n_unknown[lo:hi] = np.bincount(at[unknown], minlength=hi - lo)
        steps = np.concatenate(steps)
        order = np.argsort(-n_unknown, kind="stable")
        first = (np.cumsum(n_unknown) - n_unknown)[order]
        self._steps = [
            steps[first[: np.count_nonzero(n_unknown > j)] + j]
            for j in range(n_unknown.max(initial=0))
        ]
        self._leaf_value = self._values[leaves][order]
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        return np.cumsum(count) - count, rank

    # -- draws ---------------------------------------------------------------

    def _weights(self, weights) -> tuple[np.ndarray, float]:
        """Row weights as float64 and their total; they must be one per row,
        finite, non-negative and not all zero."""
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (self.n,):
            raise InputError("weights length must match row count")
        total = float(w.sum())
        # A finite sum rules out every NaN and infinity.
        if not (np.isfinite(total) and w.min() >= 0.0):
            raise InputError("weights must be finite and non-negative")
        if total <= 0:
            raise InputError("weights must have positive total")
        return w, total

    def _cell_sums(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Weights and weighted responses summed per joint cell: one
        ``np.add.at`` per block of code rows adds w + i wy into complex
        sums, whose two parts add as two separate float sums. A cell's rows
        share a code row, so they add in row order whatever the blocks."""
        cw = np.empty(self.n, np.complex128)
        cw.real, cw.imag = w, w * self.y
        blocks = _blocks(len(self._codes), 2 * self.n)
        tiled = np.tile(cw, blocks[0][1])
        sums = np.zeros(self._cell0[-1], np.complex128)
        for lo, hi in blocks:
            codes = self._codes[lo:hi].ravel()
            # Values as long as the codes: add.at can mis-add broadcast ones.
            np.add.at(sums, codes, tiled[: len(codes)])
        return sums.real, sums.imag

    def _grid_probs(self, sw: np.ndarray, total: float) -> np.ndarray:
        """Branch probabilities from the joint cells' weight sums ``sw``
        added up per grid cell: under multiplicity weights, exact integer
        counts divided by the total, as on the materialized replicate."""
        c0 = self._cell0[1]
        grid = np.bincount(self._cell_slots[0, c0:], sw[c0:], self._grids_end)
        grid[:c0] = sw[:c0]
        cum = np.concatenate(([0.0], np.cumsum(grid)))
        return (cum[self._count_hi] - cum[self._count_lo]) / total

    def _coefficients(self, p: np.ndarray) -> np.ndarray:
        """Leaf coefficients of every class under branch probabilities
        ``p``, most unknown steps first: each signed leaf value times the
        probabilities of its unknown steps, multiplied root first."""
        pq = np.concatenate((p, 1.0 - p))
        coef = self._leaf_value.copy()
        for col in self._steps:
            coef[: len(col)] *= pq[col]
        return coef

    def _table(self, p: np.ndarray) -> np.ndarray:
        """Every table under branch probabilities ``p``: one bincount of the
        signed coefficients, then prefix sums along both axes of every block
        of grid rows and pair lattices."""
        coef = self._coefficients(p)
        signed = np.concatenate((coef, -coef))
        table = np.bincount(self._entry_at, signed[self._entry_src], self._n_slots)
        for lo, hi, shape in self._lattices:
            lattice = table[lo:hi].reshape(shape)
            lattice.cumsum(axis=2, out=lattice)
            if shape[1] > 1:
                lattice.cumsum(axis=1, out=lattice)
        table[self._empty_slot] += self.ensemble.base_score
        table[self._grid1 : self._grids_end] += table[self._empty_slot]
        return table

    def _delta_rows(self, weights) -> np.ndarray:
        """Loss differences for the empty set, each used feature's
        singleton and, with two or more of those, the rest subset; all
        zero when no tree splits on k."""
        w, total = (np.ones(self.n), float(self.n)) if weights is None else self._weights(weights)
        if self.k not in self.used_features:
            return np.zeros(self._rest_row + 1)
        sw, swy = self._cell_sums(w)
        table = self._table(self._p0 if weights is None else self._grid_probs(sw, total))
        # Per block, cells' F and d (d^{} + pair term), and each subset's gaps.
        delta = np.empty(len(self._codes) + (self._n_rest > 0))
        for lo, hi in self._code_blocks:
            a, b = self._cell0[lo], self._cell0[hi]
            f, d, pair = (np.take(table, c[a:b], mode="clip") for c in self._cell_slots)
            gaps = self._gaps(f, np.add(d, pair, out=d), sw[a:b], swy[a:b])
            delta[lo:hi] = np.add.reduceat(gaps, np.subtract(self._cell0[lo:hi], a))
        if self._n_rest:
            # d^rest is the rest rows added one by one in table order, as an
            # axis-0 sum adds them, then the tau_k trees' prediction.
            d, row = np.zeros(self.n), np.empty(self.n)
            for ids in self._rest_ids:
                d += np.take(table, ids, out=row, mode="clip")
            d += self._tau_pred
            delta[-1] = self._gaps(self._pred - d, d, w, w * self.y).sum()
        return delta / total

    def _gaps(self, f, d, sw, swy):
        """L(f) - L(f + d) summed over the rows of cells that share the
        margin f and gap d, from their sums of weights and weighted responses
        (a row is a cell of its own): the sum of w d (2 (y - f) - d), or of
        w ((y - 1) d + softplus(-f) - softplus(-f - d)) for cross-entropy."""
        if self.loss is LossKind.SQUARED_ERROR:
            return d * (2.0 * (swy - f * sw) - d * sw)
        return (swy - sw) * d + sw * (np.logaddexp(0.0, -f) - np.logaddexp(0.0, -f - d))

    def _psi(self, delta) -> float:
        s = len(self._singles)
        weights = self.family.weights
        # Singletons of features no tree uses carry the empty set's delta.
        singles = float(delta[1 : 1 + s].sum()) + (self.family.n_features - 1 - s) * delta[0]
        return float(
            weights[0] * delta[0] + weights[1] * singles + weights[-1] * delta[self._rest_row]
        )

    def _by_subset(self, delta) -> dict[frozenset[int], float]:
        """Per-subset deltas; a subset's delta depends only on its features
        that some tree uses, so subsets agreeing on those share one value."""
        row = {frozenset((m,)): i for i, m in enumerate(self._singles, 1)}
        row[self.family.subsets[-1]] = self._rest_row
        return {s: delta[row.get(s, 0)].item() for s in self.family.subsets}

    def psi_for_weights(self, weights: np.ndarray | None = None) -> float:
        return self._psi(self._delta_rows(weights))

    def estimate(self, weights: np.ndarray | None = None) -> SubSageEstimate:
        delta = self._delta_rows(weights)
        return SubSageEstimate(psi_hat=self._psi(delta), per_subset_deltas=self._by_subset(delta))


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def subsage_estimate(
    ensemble: Ensemble, k: int, test: Dataset, loss: LossKind
) -> SubSageEstimate:
    """Sub-SAGE point estimate for feature k on held-out data.

    The caller attests that ``test`` is independent of the data the model
    was fitted on; the library cannot verify this.
    """
    return SubSageEngine(ensemble, test, k, loss).estimate()
