"""The per-row draw kernel, the reference for the engine's joint-cell sums.

``RowKernel`` draws as the engine did before joint cells: it counts the
grid cells of every row for the branch probabilities, gathers each subset's
margin F and gap d row by row from the tables, and sums the rows' loss
differences weighted. It reads a matrix ``_ids`` of table indices with one
column per data row and, in this order, a row of:

- each used feature m other than k: its grid cell, whose table entry is
  the margin F_{m};
- k's grid cell, which gives d^{} for the empty set and for every singleton
  whose feature shares no tree with k;
- each pair lattice (k, m): d^{m} - d^{}, to which d^{} is added;
- each rest space: minus the margin of its trees given every feature but
  k; their sum plus the prediction of the trees that split on k is d^rest.

``row_ids`` builds that matrix for the engine's own cells.
"""

from __future__ import annotations

import numpy as np

from subsage.estimator import LossKind


class RowKernel:
    """Draws of an engine from its per-row table indices ``_ids``."""

    def _probs(self, weights: np.ndarray, total: float) -> np.ndarray:
        """Branch probabilities from weighted counts of each grid row."""
        s = len(self._singles)
        counts = np.bincount(self._ids[: s + 1].ravel(), np.tile(weights, s + 1), self._grids_end)
        cum = np.concatenate(([0.0], np.cumsum(counts)))
        return (cum[self._count_hi] - cum[self._count_lo]) / total

    def _delta_rows(self, weights):
        """Per-subset loss differences from one gather of every subset's F
        and d as a (2s + 2 + rest) x rows matrix: a constant row for the
        empty set's F, and d^{} repeated for each singleton sharing no tree
        with k."""
        w, total = (np.ones(self.n), float(self.n)) if weights is None else self._weights(weights)
        if self.k not in self.used_features:
            return None
        table = self._table(self._p0 if weights is None else self._probs(w, total))
        s, pairs, ids = len(self._singles), self._n_pairs, self._ids
        x = np.take(table, np.vstack([
            np.full(self.n, self._empty_slot), ids[: s + 1 + pairs],
            *[ids[s]] * (s - pairs), ids[s + 1 + pairs :],
        ]))
        x[s + 2 : s + 2 + pairs] += x[s + 1]
        delta = self._loss_gaps(x[s + 1 : 2 * s + 2], x[: s + 1], w) / total
        if not self._n_rest:
            return delta
        d = x[2 * s + 2 :].sum(axis=0) + self._tau_pred
        return np.append(delta, self._loss_gaps(d, self._pred - d, w) / total)

    def _loss_gaps(self, d, f, w):
        """Weighted sums of L(f) - L(f + d) per row of margins ``f``."""
        if self.loss is LossKind.SQUARED_ERROR:
            terms = d * (2.0 * (self.y - f) - d)
        else:
            terms = (self.y - 1.0) * d + np.logaddexp(0.0, -f) - np.logaddexp(0.0, -f - d)
        return np.einsum("...j,j->...", terms, w)


def cell_codes(engine) -> np.ndarray:
    """The engine's joint-cell codes numbered over all cells, not from the
    first cell of their block of code rows."""
    codes = engine._codes.copy()
    for lo, hi in engine._code_blocks:
        codes[lo:hi] += engine._cell0[lo]
    return codes


def row_ids(engine) -> np.ndarray:
    """``RowKernel``'s table indices for a joint-cell engine: each row's
    cell slots, gathered through its cell codes."""
    codes, pairs = cell_codes(engine), engine._n_pairs
    f, d, pair = engine._cell_slots
    return np.vstack([f[codes[1:]], d[codes[:1]], pair[codes[1 : 1 + pairs]], engine._rest_ids])
