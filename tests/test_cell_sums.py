"""A draw's joint-cell sums against two weighted bincounts.

``SubSageEngine._cell_sums`` adds w + i wy into one complex sum per joint
cell, one ``np.add.at`` per block of code rows. ``np.bincount`` also adds a
cell's rows in index order from 0.0, and complex addition adds the real and
the imaginary parts as two separate float additions. So the two parts must
equal, bit for bit, one bincount of the codes weighted by w and one weighted
by w y.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsage import estimator
from subsage.estimator import LossKind, SubSageEngine

from test_engine_cells import block_cases


@pytest.mark.parametrize("lone_last", [False, True])
@pytest.mark.parametrize("loss", list(LossKind))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_cell_sums_equal_two_bincounts(loss, lone_last, data):
    """Bootstrap, jackknife and fractional weights, over the default blocks
    or over blocks of s code rows, which leave one in the last block."""
    s = data.draw(st.integers(1, 8))
    ens, test, k, _ = data.draw(block_cases(s).filter(lambda case: case[3] is loss))
    n = test.n_rows
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    jackknife = np.ones(n)
    jackknife[rng.integers(n)] = 0.0
    bootstrap = np.bincount(rng.integers(0, n, n), minlength=n).astype(np.float64)
    fractional = rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.8)
    with pytest.MonkeyPatch.context() as mp:
        if lone_last:
            mp.setattr(estimator, "_BLOCK_FLOATS", 2 * n * s)
        engine = SubSageEngine(ens, test, k, loss)
        blocks = estimator._blocks(len(engine._codes), 2 * n)
        assert not lone_last or [hi - lo for lo, hi in blocks] == [s, 1]
        sums = [engine._cell_sums(w) for w in (bootstrap, jackknife, fractional)]
    codes, cells = engine._codes.ravel(), engine._cell0[-1]
    for w, (sw, swy) in zip((bootstrap, jackknife, fractional), sums):
        want_w = np.bincount(codes, np.tile(w, s + 1), cells)
        want_wy = np.bincount(codes, np.tile(w * engine.y, s + 1), cells)
        assert np.ascontiguousarray(sw).tobytes() == want_w.tobytes()
        assert np.ascontiguousarray(swy).tobytes() == want_wy.tobytes()
