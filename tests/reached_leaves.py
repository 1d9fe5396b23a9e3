"""Per-row reached-leaf sets, the reference for the engine's rest ids.

A tree that splits on k, with every feature known but k, gives a row the
sum over the leaves the row reaches when it descends the tree taking both
branches at each split on k and its own side (``x < threshold`` goes
left) at every other split. ``rest_groups`` groups the trees of tau_k as
the engine does: in tree order, while the product over the features other
than k of their distinct thresholds + 1 stays within the cap.
``reached_sets`` descends each row through each tree of a group and ranks
the rows' leaf sets with ``np.unique``.
"""

from __future__ import annotations

import numpy as np


def rest_groups(ensemble, k: int, cap: float) -> list[list[int]]:
    """The trees that split on k, grouped as the engine's rest tables."""
    groups, cuts = [], []
    for t, tree in enumerate(ensemble.trees):
        if k not in tree.feature_set:
            continue
        at = (tree.left >= 0) & (tree.feature != k)
        mine = set(zip(tree.feature[at].tolist(), tree.threshold[at].tolist()))
        if groups:
            feats = [f for f, _ in cuts[-1] | mine]
            if np.prod([feats.count(f) + 1.0 for f in set(feats)]) <= cap:
                groups[-1].append(t)
                cuts[-1] |= mine
                continue
        groups.append([t])
        cuts.append(mine)
    return groups


def reached_sets(ensemble, data, k: int, group: list[int]):
    """Each row's set id, as ``np.unique`` ranks the rows' reached-leaf
    sets over the trees of ``group``, and each set's leaves in leaf order
    as (tree, position among the tree's leaves)."""
    hits, labels = [], []
    for t in group:
        tree = ensemble.trees[t]
        leaves = np.flatnonzero(tree.left < 0).tolist()
        hit = np.zeros((data.n_rows, len(leaves)), bool)
        for i in range(data.n_rows):
            stack = [0]
            while stack:
                v = stack.pop()
                f = tree.feature[v]
                if tree.left[v] < 0:
                    hit[i, leaves.index(v)] = True
                elif f == k:
                    stack += [tree.left[v], tree.right[v]]
                else:
                    go_left = data.column(f)[i] < tree.threshold[v]
                    stack.append(tree.left[v] if go_left else tree.right[v])
        hits.append(hit)
        labels += [(t, j) for j in range(len(leaves))]
    sets, ids = np.unique(np.hstack(hits), axis=0, return_inverse=True)
    return ids.ravel(), [[labels[j] for j in np.flatnonzero(s)] for s in sets]
