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
from .tree_model import Ensemble, predict_margin_batch, trees_containing

__all__ = [
    "LossKind",
    "SubsetFamily",
    "SubSageEstimate",
    "build_subset_family",
    "delta_loss_squared",
    "delta_loss_cross_entropy",
    "subsage_estimate",
    "subsage_stumps",
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

    feature: int
    n_features: int
    subsets: tuple[frozenset[int], ...]
    weights: tuple[float, ...]


@dataclass(frozen=True)
class SubSageEstimate:
    """Point estimate with the per-subset loss differences that formed it."""

    psi_hat: float
    per_subset_deltas: dict[frozenset[int], float]
    n_test: int


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
        feature=k,
        n_features=m,
        subsets=(frozenset(), *(frozenset((j,)) for j in others), frozenset(others)),
        weights=(1.0 / 3, *(single for _ in others), 1.0 / 3),
    )


# ---------------------------------------------------------------------------
# Evaluation engine
# ---------------------------------------------------------------------------

# Trees that split on k share one rest table while the product of their
# per-feature cut counts stays at or below this: each shared table saves a
# gather over every row, while its cells multiply the table's size.
_REST_CELLS = 256


class SubSageEngine:
    """Shared state for estimating one feature's sub-SAGE on one dataset.

    A cell space is a set of split thresholds; rows in one of its cells
    fall on the same side of each, so they share every conditional
    expectation that tests only those thresholds. Each row keeps a small-int
    cell id in a few spaces: each used feature's threshold grid, one pair
    space (k, m) per feature m sharing a tree with k, and the spaces of the
    trees that split on k. A draw turns its branch probabilities into one
    small table per space and gathers the per-subset vectors from them, so
    memory is O(rows x spaces) ints plus O(rows x subsets) floats per draw.
    """

    def __init__(self, ensemble: Ensemble, data: Dataset, k: int, loss: LossKind):
        if not ensemble.annotated:
            raise InputError("ensemble is not probability-annotated")
        ensemble.check_width(data)
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
        if not tau:
            return  # no tree splits on k: every estimate is exactly zero
        s = len(self._singles)
        self._rest_row = s + 1 if s > 1 else s
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
            leaves, path, left = tree.leaf_paths
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

        empty, only_k = frozenset(), frozenset((k,))
        # Grid tables, k first: k's holds d^{} (tau_k trees, {k} minus the
        # empty set), each singleton m's the margin given x_m, minus f0.
        grid, offs = [], []
        for f in feats:
            with_f = tau if f == k else [t for t, tr in enumerate(trees) if f in tr.feature_set]
            known = frozenset((f,))
            terms = [(t, c, sign) for t in with_f for c, sign in ((known, 1.0), (empty, -1.0))]
            offs.append(self._space({f: np.arange(len(grids[f]) + 1)}, terms))
            grid.append(self._iv[f] + offs[-1])
        self._grids_end = self._n_slots
        self._grid1 = offs[1] if s else self._grids_end
        # Weighted count below threshold j of f = cumulative weight of f's
        # grid cells 0..j; integer weights keep every partial sum exact.
        self._count_lo = np.repeat(offs, sizes)
        self._count_hi = self._count_lo + self._thr_rank + 1
        self._empty_slot = self._space({}, [(t, empty, 1.0) for t in range(len(trees))])
        # Gather rows: the margins F for the empty set and each singleton,
        # then the gaps d for the same subsets, then the rest tables.
        rows = [np.full(self.n, self._empty_slot), *grid[1:], grid[0]]

        # Pair tables: d^{m} - d^{} over the tau_k trees that use m.
        for m in self._singles[: self._n_pairs]:
            only_m, both = frozenset((m,)), frozenset((k, m))
            cells, rep = self._cells(self._tids(with_m[m], k, m))
            rows.append(cells + self._space(rep, [
                (t, c, sign) for t in with_m[m] for c, sign in
                ((both, 1.0), (only_k, -1.0), (only_m, -1.0), (empty, 1.0))
            ]))
        rows += [grid[0]] * (s - self._n_pairs)
        # Rest tables: d^rest over tau_k trees, several trees per table
        # while their joint cells stay few.
        def n_cells(group):
            _, counts = np.unique(self._thr_feat[self._tids(group)], return_counts=True)
            return np.prod(counts + 1.0)

        groups: list[list[int]] = []
        for t in tau if s > 1 else ():
            if groups and n_cells(groups[-1] + [t]) <= _REST_CELLS:
                groups[-1].append(t)
            else:
                groups.append([t])
        for group in groups:
            cells, rep = self._cells(self._tids(group))
            rows.append(cells + self._space(rep, [
                (t, c, sign) for t in group for c, sign in (
                    (frozenset(trees[t].feature_set), 1.0),
                    (frozenset(trees[t].feature_set) - only_k, -1.0))
            ]))
        self._n_rest = len(groups)
        if self._n_rest:
            self._pred = predict_margin_batch(ensemble, data)
        self._ids = np.vstack(rows)
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

    # -- build helpers -------------------------------------------------------

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

    def _cells(self, tids: np.ndarray):
        """Row cell ids in the space split by threshold ids ``tids``, and the
        grid cell of each cell's first row for each split feature."""
        code = np.zeros(self.n, np.int64)
        bound = 1
        feats = np.unique(self._thr_feat[tids])
        for f in feats:
            cuts = self._thr_rank[tids[self._thr_feat[tids] == f]]
            if bound * (len(cuts) + 1) >= 2**62:
                code = np.unique(code, return_inverse=True)[1]
                bound = int(code.max()) + 1
            code = code * (len(cuts) + 1) + np.searchsorted(cuts, self._iv[f])
            bound *= len(cuts) + 1
        _, first, cells = np.unique(code, return_index=True, return_inverse=True)
        return cells, {int(f): self._iv[f][first] for f in feats}

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

    # -- probability refresh -------------------------------------------------

    def probs_for_weights(self, weights: np.ndarray) -> np.ndarray:
        """Branch probabilities recomputed from weighted column fractions.

        With multiplicity weights this equals annotating on the materialized
        replicate: both are exact integer counts divided by the total.
        """
        total = float(weights.sum())
        if total <= 0:
            raise InputError("weights must have positive total")
        s = len(self._singles)
        grid_ids = self._ids[1 : s + 2]
        counts = np.bincount(grid_ids.ravel(), np.tile(weights, s + 1), self._grids_end)
        cum = np.concatenate(([0.0], np.cumsum(counts)))
        return (cum[self._count_hi] - cum[self._count_lo]) / total

    # -- estimation ----------------------------------------------------------

    def _coefficients(self, p: np.ndarray) -> np.ndarray:
        """Leaf coefficients of every class under branch probabilities
        ``p``, most unknown steps first: each signed leaf value times the
        probabilities of its unknown steps, multiplied root first."""
        pq = np.concatenate((p, 1.0 - p))
        coef = self._leaf_value.copy()
        for col in self._steps:
            coef[: len(col)] *= pq[col]
        return coef

    def _delta_rows(self, weights) -> np.ndarray | None:
        """Loss differences for the empty set, each used feature's
        singleton and, with two or more of those, the rest subset; None
        when no tree splits on k."""
        w, total = None, float(self.n)
        if weights is not None:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != (self.n,):
                raise InputError("weights length must match row count")
            total = float(w.sum())
            if total <= 0:
                raise InputError("weights must have positive total")
        if self.k not in self.used_features:
            return None
        p = self._p0 if w is None else self.probs_for_weights(w)
        w = np.ones(self.n) if w is None else w
        coef = self._coefficients(p)
        table = np.bincount(self._slot, coef[self._slot_leaf], self._n_slots + 1)
        table += table[self._scalar_of]
        table[self._empty_slot] += self.ensemble.base_score
        table[self._grid1 : self._grids_end] += table[self._empty_slot]
        x = np.take(table, self._ids)
        s = len(self._singles)
        x[s + 2 : s + 2 + self._n_pairs] += x[s + 1]
        delta = self._loss_gaps(x[s + 1 : 2 * s + 2], x[: s + 1], w) / total
        if not self._n_rest:
            return delta
        # Knowing every feature but k gives the margin prediction - d^rest.
        d = x[2 * s + 2 :].sum(axis=0)
        return np.append(delta, self._loss_gaps(d, self._pred - d, w) / total)

    def _loss_gaps(self, d, f, w):
        """Weighted sums of L(f) - L(f + d) per row of margins ``f``."""
        if self.loss is LossKind.SQUARED_ERROR:
            terms = d * (2.0 * (self.y - f) - d)
        else:
            terms = (self.y - 1.0) * d + np.logaddexp(0.0, -f) - np.logaddexp(0.0, -f - d)
        return np.einsum("...j,j->...", terms, w)

    def _psi(self, delta) -> float:
        if delta is None:
            return 0.0
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
        if delta is None:
            return dict.fromkeys(self.family.subsets, 0.0)
        delta = delta.tolist()
        row = {frozenset((m,)): i for i, m in enumerate(self._singles, 1)}
        rest = self.family.subsets[-1]
        return {
            s: delta[self._rest_row if s == rest else row.get(s, 0)]
            for s in self.family.subsets
        }

    def deltas_for_weights(self, weights: np.ndarray | None = None) -> dict[frozenset[int], float]:
        """Estimated loss difference for every subset in Q_k."""
        return self._by_subset(self._delta_rows(weights))

    def psi_for_weights(self, weights: np.ndarray | None = None) -> float:
        return self._psi(self._delta_rows(weights))

    def estimate(self, weights: np.ndarray | None = None) -> SubSageEstimate:
        delta = self._delta_rows(weights)
        return SubSageEstimate(
            psi_hat=self._psi(delta), per_subset_deltas=self._by_subset(delta), n_test=self.n
        )


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def _delta(ensemble: Ensemble, k: int, subset, test: Dataset, loss: LossKind) -> float:
    engine = SubSageEngine(ensemble, test, k, loss)
    subset = frozenset(subset)
    if subset not in engine.family.subsets:
        raise InputError(
            f"subset {sorted(subset)} is not in Q_{k} (empty, singletons, or all-but-{k})"
        )
    return engine.deltas_for_weights()[subset]


def delta_loss_squared(ensemble: Ensemble, k: int, subset, test: Dataset) -> float:
    """Estimated squared-error loss reduction from adding feature k to S."""
    return _delta(ensemble, k, subset, test, LossKind.SQUARED_ERROR)


def delta_loss_cross_entropy(ensemble: Ensemble, k: int, subset, test: Dataset) -> float:
    """Estimated cross-entropy loss reduction from adding feature k to S.

    The loss is evaluated in margin space: conditional expectations of
    margins are taken first and the binary cross-entropy is applied outside
    the expectation, never through the sigmoid.
    """
    return _delta(ensemble, k, subset, test, LossKind.BINARY_CROSS_ENTROPY)


def subsage_estimate(
    ensemble: Ensemble, k: int, test: Dataset, loss: LossKind
) -> SubSageEstimate:
    """Sub-SAGE point estimate for feature k on held-out data.

    The caller attests that ``test`` is independent of the data the model
    was fitted on; the library cannot verify this.
    """
    return SubSageEngine(ensemble, test, k, loss).estimate()


def subsage_stumps(ensemble: Ensemble, k: int, test: Dataset) -> SubSageEstimate:
    """Closed-form sub-SAGE for depth-1 regression ensembles.

    For stumps the loss difference is subset-independent in expectation and
    reduces to 2*Cov(y, g_k) - Var(g_k), where g_k sums the stumps that
    split on k. Covariance and variance use 1/(n-1) normalization; g_k is
    centered at its annotated expectation.
    """
    if ensemble.objective != "regression":
        raise InputError("stump closed form requires the regression objective")
    if not ensemble.annotated:
        raise InputError("ensemble is not probability-annotated")
    if any(tree.depth > 1 for tree in ensemble.trees):
        raise InputError("stump closed form requires every tree depth <= 1")
    if test.n_rows < 2:
        raise InputError("stump closed form needs at least 2 rows")
    tau, _ = trees_containing(ensemble, k)

    n = test.n_rows
    g = np.zeros(n)
    anchor = 0.0
    for tree in (ensemble.trees[t] for t in tau):
        g += tree.sweep(test.columns, (k,))
        anchor += tree.sweep(test.columns, ())

    y = test.response
    centered_y = y - y.mean()
    centered_g = g - anchor
    cov = float(centered_y @ centered_g) / (n - 1)
    var = float(centered_g @ centered_g) / (n - 1)
    psi = 2.0 * cov - var

    family = build_subset_family(ensemble.n_features, k)
    deltas = {subset: psi for subset in family.subsets}
    return SubSageEstimate(psi_hat=psi, per_subset_deltas=deltas, n_test=n)
