"""Sorting cell ranking of the cut-cell spaces of ``slot_engine.SlotEngine``.

Each row's cell in a space is its mixed-radix code over the space's split
features, one digit per feature: the number of the feature's cuts at or
below the row's grid cell. ``np.unique`` numbers the distinct codes in
ascending order and gives each cell's first row; when the code bound would
pass 2**62 the codes seen so far are renumbered by ``np.unique`` first.
"""

from __future__ import annotations

import numpy as np


def sorted_cells(engine, tids: np.ndarray):
    """Row cell ids in the space split by threshold ids ``tids``, and the
    grid cell of each cell's first row for each split feature."""
    code = np.zeros(engine.n, np.int64)
    bound = 1
    feats = np.unique(engine._thr_feat[tids])
    for f in feats:
        cuts = engine._thr_rank[tids[engine._thr_feat[tids] == f]]
        if bound * (len(cuts) + 1) >= 2**62:
            code = np.unique(code, return_inverse=True)[1]
            bound = int(code.max()) + 1
        code = code * (len(cuts) + 1) + np.searchsorted(cuts, engine._iv[f])
        bound *= len(cuts) + 1
    _, first, cells = np.unique(code, return_index=True, return_inverse=True)
    return cells, {int(f): engine._iv[f][first] for f in feats}
