"""Per-cell slot tables, the reference for the engine's corner tables.

``SlotEngine`` builds its grid, pair and rest tables as the engine did
before corner tables: one slot per cell of each space, and one entry per
(cell, leaf) whose box holds the cell, for every (tree, known-set, sign)
class. Its pair and rest spaces are cut cells, ranked by
``cells_oracle.sorted_cells``; the engine's rest spaces are reached-leaf
sets instead. Terms with nothing known add to one scalar slot per space,
which a draw adds to each of its cells. Each row keeps a slot per space,
and draws go through the per-row kernel of ``row_kernel``.
"""

from __future__ import annotations

import numpy as np

from subsage.errors import InputError
from subsage.estimator import (
    _REST_CELLS,
    LOSS_OBJECTIVE,
    LossKind,
    SubSageEngine,
    build_subset_family,
)
from subsage.tree_model import predict_margin_batch, trees_containing

from cells_oracle import sorted_cells
from row_kernel import RowKernel


def leaf_paths(tree):
    """Leaf positions, and per leaf the positions of its root-to-leaf
    branch steps as a (leaves, depth) array (-1 past the leaf) with whether
    each step goes left."""
    leaves, n_steps, steps, went_left = tree.leaf_steps
    path = np.full((len(leaves), tree.depth), -1)
    left = np.zeros(path.shape, bool)
    rows = np.repeat(np.arange(len(leaves)), n_steps)
    cols = np.arange(len(steps)) - np.repeat(np.cumsum(n_steps) - n_steps, n_steps)
    path[rows, cols] = steps
    left[rows, cols] = went_left
    return leaves, path, left


class SlotEngine(RowKernel, SubSageEngine):
    """The engine with per-cell slot tables and per-row draws."""

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
        with_m = {m: [t for t in tau if m in trees[t].feature_set] for m in self._singles}
        # Singletons of features sharing a tree with k first: their d^{m}
        # differs from d^{} by a correction over those trees.
        self._singles.sort(key=lambda m: not with_m[m])
        self._n_pairs = sum(map(bool, with_m.values()))

        # Distinct (feature, threshold) pairs grouped by feature, k first,
        # sorted by threshold; p0 is the annotation their nodes must share.
        p_of: dict[tuple[int, float], float] = {}
        for tree in trees:
            at = tree.left >= 0
            fields = (tree.feature[at], tree.threshold[at], tree.prob_left[at])
            for f, t, p in zip(*(a.tolist() for a in fields)):
                if p_of.setdefault((f, t), p) != p:
                    raise InputError(
                        f"nodes splitting feature {f} at {t!r} disagree on prob_left "
                        f"({p_of[f, t]!r} vs {p!r})"
                    )
        feats = [k, *self._singles]
        grids = {g: np.unique([t for f, t in p_of if f == g]) for g in feats}
        sizes = np.array([len(grids[f]) for f in feats])
        thr0 = dict(zip(feats, np.cumsum(sizes) - sizes))
        self._p0 = np.array([p_of[(f, t)] for f in feats for t in grids[f]])
        self._thr_feat = np.repeat(feats, sizes)
        self._thr_rank = np.concatenate([np.arange(m) for m in sizes])
        # Grid cell of each row: the number of thresholds at or below it.
        self._iv = {f: np.searchsorted(g, data.column(f), side="right") for f, g in grids.items()}

        # Per tree: leaf values; the leaf paths as (leaves, depth) arrays of
        # the threshold id (-1 past the leaf), split feature and direction of
        # each step; and per split feature the grid cells [lo, hi) of each
        # leaf's box.
        self._paths = []
        for tree in trees:
            leaves, path, left = leaf_paths(tree)
            # Threshold id per node position, and -1 read through step -1.
            tids = np.full(len(tree.feature) + 1, -1)
            for f in tree.feature_set:
                at = np.flatnonzero(tree.feature == f)
                tids[at] = thr0[f] + np.searchsorted(grids[f], tree.threshold[at])
            tid, feat = tids[path], np.append(tree.feature, -1)[path]
            above = self._thr_rank[tid] + 1
            box = {
                f: (np.where((feat == f) & ~left, above, 0).max(axis=1),
                    np.where((feat == f) & left, above, len(self._thr_rank) + 1).min(axis=1))
                for f in tree.feature_set
            }
            self._paths.append((tree.value[leaves], tid, feat, left, box))
        self._classes: dict[tuple[int, frozenset[int], float], int] = {}
        self._leaf_value, self._steps, self._n_steps, self._n_coef = [], [], [], 0
        self._slot, self._slot_leaf = [], []
        self._scalar_of, self._n_slots = [], 0

        # Rest tables share trees of tau_k while their joint cells stay few.
        def n_cells(group):
            _, counts = np.unique(self._thr_feat[self._tids(group)], return_counts=True)
            return np.prod(counts + 1.0)

        groups: list[list[int]] = []
        for t in tau if s > 1 else ():
            if groups and n_cells(groups[-1] + [t]) <= _REST_CELLS:
                groups[-1].append(t)
            else:
                groups.append([t])
        # Gather rows: each singleton's margin F, then d^{} (the empty set's
        # gap and that of every singleton sharing no tree with k), then the
        # pair and rest tables. The empty set's F is one slot.
        self._ids = np.empty((s + 1 + self._n_pairs + len(groups), self.n), np.intp)

        empty, only_k = frozenset(), frozenset((k,))
        # Grid tables, k first: k's holds d^{} (tau_k trees, {k} minus the
        # empty set), each singleton m's the margin given x_m, minus f0.
        offs = []
        for row, f in zip([s, *range(s)], feats):
            with_f = tau if f == k else [t for t, tr in enumerate(trees) if f in tr.feature_set]
            known = frozenset((f,))
            terms = [(t, c, sign) for t in with_f for c, sign in ((known, 1.0), (empty, -1.0))]
            offs.append(self._space({f: np.arange(len(grids[f]) + 1)}, terms))
            np.add(self._iv[f], offs[-1], out=self._ids[row])
        self._grids_end = self._n_slots
        self._grid1 = offs[1] if s else self._grids_end
        # Weighted count below threshold j of f = cumulative weight of f's
        # grid cells 0..j; integer weights keep every partial sum exact.
        self._count_lo = np.repeat(offs, sizes)
        self._count_hi = self._count_lo + self._thr_rank + 1
        self._empty_slot = self._space({}, [(t, empty, 1.0) for t in range(len(trees))])

        # Pair tables: d^{m} - d^{} over the tau_k trees that use m.
        for row, m in enumerate(self._singles[: self._n_pairs], s + 1):
            only_m, both = frozenset((m,)), frozenset((k, m))
            cells, rep = sorted_cells(self, self._tids(with_m[m], k, m))
            np.add(cells, self._space(rep, [
                (t, c, sign) for t in with_m[m] for c, sign in
                ((both, 1.0), (only_k, -1.0), (only_m, -1.0), (empty, 1.0))
            ]), out=self._ids[row])
        # Rest tables: minus the margin of their tau_k trees given every
        # feature but k; the draw kernel adds those trees' prediction.
        for row, group in enumerate(groups, s + 1 + self._n_pairs):
            cells, rep = sorted_cells(self, self._tids(group))
            np.add(cells, self._space(rep, [
                (t, frozenset(trees[t].feature_set) - only_k, -1.0) for t in group
            ]), out=self._ids[row])
        self._n_rest = len(groups)
        if self._n_rest:
            self._pred = predict_margin_batch(ensemble, data)
            self._tau_pred = sum(trees[t].sweep(data.columns, trees[t].feature_set) for t in tau)
        self._scalar_of = np.array(self._scalar_of + [-1], dtype=np.intp)
        # Coefficients ordered by their number of unknown steps, most first
        # (ties in class order), so that step j of a draw multiplies a prefix.
        steps, n_steps = np.concatenate(self._steps), np.concatenate(self._n_steps)
        order = np.argsort(-n_steps, kind="stable")
        first = (np.cumsum(n_steps) - n_steps)[order]
        self._steps = [
            steps[first[: np.count_nonzero(n_steps > j)] + j] for j in range(n_steps.max())
        ]
        self._leaf_value = np.concatenate(self._leaf_value)[order]
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        self._slot = np.concatenate(self._slot)
        self._slot_leaf = rank[np.concatenate(self._slot_leaf)]
        del self._paths, self._classes, self._iv, self._n_steps


    def _tids(self, tree_ids, *features) -> np.ndarray:
        """Distinct threshold ids of the given trees' splits, only those on
        ``features`` if any are given."""
        out = []
        for t in tree_ids:
            tid, feat = self._paths[t][1:3]
            if features:
                tid = tid[np.logical_or.reduce([feat == f for f in features])]
            out.append(tid[tid >= 0])
        return np.unique(np.concatenate(out))

    def _class(self, t: int, known: frozenset[int], sign: float) -> int:
        """Offset of class (t, known) among the leaf coefficients, in build
        order: ``sign`` * leaf value times the probabilities of the unknown
        steps."""
        key = (t, known, sign)
        if key not in self._classes:
            vals, tid, feat, left, _ = self._paths[t]
            unknown = tid >= 0
            for f in known:
                unknown &= feat != f
            # Per leaf, its unknown steps root first as indices into the
            # draw's (p, 1 - p); known steps would multiply by 1.0.
            self._steps.append(np.where(left, tid, tid + len(self._p0))[unknown])
            self._n_steps.append(unknown.sum(axis=1))
            self._classes[key] = self._n_coef
            self._n_coef += len(vals)
            self._leaf_value.append(sign * vals)
        return self._classes[key]

    def _space(self, rep, terms) -> int:
        """Allocate a table with one slot per cell of ``rep`` (one if empty)
        plus one for the terms with nothing known, which every cell shares;
        add each term ``sign`` * h_{t, known}: per cell, the leaves whose box
        lies in the cell's grid cells. Returns the first slot."""
        off = self._n_slots
        n_cells = len(next(iter(rep.values()), [0]))
        for t, known, sign in terms:
            vals, *_, box = self._paths[t]
            ok = np.ones((n_cells if known else 1, len(vals)), bool)
            for f in known:
                lo, hi = box[f]
                ok &= (lo <= rep[f][:, None]) & (rep[f][:, None] < hi)
            cells, leaves = np.nonzero(ok)
            self._slot.append(off + cells + (0 if known else n_cells))
            self._slot_leaf.append(self._class(t, known, sign) + leaves)
        self._scalar_of += [off + n_cells] * n_cells + [-1]
        self._n_slots += n_cells + 1
        return off

    def _table(self, p):
        coef = self._coefficients(p)
        table = np.bincount(self._slot, coef[self._slot_leaf], self._n_slots + 1)
        table += table[self._scalar_of]
        table[self._empty_slot] += self.ensemble.base_score
        table[self._grid1 : self._grids_end] += table[self._empty_slot]
        return table
