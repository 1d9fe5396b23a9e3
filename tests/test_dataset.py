import numpy as np
import pytest

from subsage.dataset import (
    Dataset,
    FeatureKind,
    ResampleIndex,
    concat_rows,
    empirical_prob_below,
    load_csv,
    resample,
    split,
    write_csv,
)
from subsage.errors import InputError

from conftest import random_dataset


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_basic_three_rows(self, tmp_path):
        path = _write(tmp_path, "x1,x2,y\n1,2,3\n4,5,6\n7,8,9\n")
        data = load_csv(path, response="y")
        assert data.n_rows == 3
        assert data.n_cols == 2
        assert data.feature_names == ("x1", "x2")
        np.testing.assert_array_equal(data.column(1), [2.0, 5.0, 8.0])
        np.testing.assert_array_equal(data.response, [3.0, 6.0, 9.0])

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = _write(tmp_path, "x1,x2,y\n1,oops,3\n")
        with pytest.raises(InputError, match=r"row 2, column 'x2'"):
            load_csv(path, response="y")

    def test_empty_file(self, tmp_path):
        path = _write(tmp_path, "")
        with pytest.raises(InputError, match="empty file"):
            load_csv(path, response="y")

    def test_missing_response_column(self, tmp_path):
        path = _write(tmp_path, "x1,x2\n1,2\n")
        with pytest.raises(InputError, match="missing response"):
            load_csv(path, response="y")

    def test_header_only(self, tmp_path):
        path = _write(tmp_path, "x1,y\n")
        with pytest.raises(InputError, match="no data rows"):
            load_csv(path, response="y")

    def test_inf_feature_cell_names_path_row_and_column(self, tmp_path):
        path = _write(tmp_path, "x1,x2,y\n1,2,3\n4,inf,6\n")
        with pytest.raises(InputError, match=r"data\.csv: row 3, column 'x2': inf is not finite"):
            load_csv(path, response="y")

    def test_inf_response_names_path_row_and_column(self, tmp_path):
        path = _write(tmp_path, "x1,y,x2\n1,-inf,3\n")
        with pytest.raises(InputError, match=r"data\.csv: row 2, column 'y': -inf is not finite"):
            load_csv(path, response="y")

    def test_nan_cell_names_path_row_and_column(self, tmp_path):
        path = _write(tmp_path, "x1,y\n1,2\n3,4\nnan,5\n")
        with pytest.raises(InputError, match=r"data\.csv: row 4, column 'x1': nan"):
            load_csv(path, response="y")

    def test_count_kind_rejects_negative(self, tmp_path):
        path = _write(tmp_path, "x1,y\n-1,0\n")
        with pytest.raises(InputError, match="non-negative integer"):
            load_csv(path, response="y", kinds={"x1": FeatureKind.ORDINAL_COUNT})

    def test_round_trip(self, tmp_path, rng):
        data = random_dataset(rng, 40, 5)
        path = tmp_path / "rt.csv"
        write_csv(data, path)
        back = load_csv(path, response="y")
        assert back.feature_names == data.feature_names
        np.testing.assert_array_equal(back.columns, data.columns)
        np.testing.assert_array_equal(back.response, data.response)


class TestSplit:
    def test_exact_multiples(self, rng):
        data = random_dataset(rng, 10, 2)
        a, b, c = split(data, (0.5, 0.3, 0.2), seed=3)
        assert (a.n_rows, b.n_rows, c.n_rows) == (5, 3, 2)

    def test_benchmark_scale_sizes(self, rng):
        data = random_dataset(rng, 16000, 2)
        a, b, c = split(data, (0.5, 0.3, 0.2), seed=3)
        assert (a.n_rows, b.n_rows, c.n_rows) == (8000, 4800, 3200)

    def test_deterministic(self, rng):
        data = random_dataset(rng, 101, 3)
        first = split(data, (0.5, 0.3, 0.2), seed=9)
        second = split(data, (0.5, 0.3, 0.2), seed=9)
        for x, y in zip(first, second):
            np.testing.assert_array_equal(x.columns, y.columns)

    def test_disjoint_covering_partition(self, rng):
        # Row identity is recoverable through a unique tag column.
        n = 97
        tags = np.arange(n, dtype=float)
        data = Dataset(("tag",), tags[None, :], (FeatureKind.CONTINUOUS,), tags)
        parts = split(data, (0.4, 0.35, 0.25), seed=1)
        seen = np.concatenate([p.column(0) for p in parts])
        assert len(seen) == n
        assert set(seen) == set(tags)

    def test_bad_fractions(self, rng):
        data = random_dataset(rng, 10, 2)
        with pytest.raises(InputError, match="sum to 1"):
            split(data, (0.5, 0.3, 0.3), seed=0)
        with pytest.raises(InputError, match="positive"):
            split(data, (1.2, -0.1, -0.1), seed=0)

    @pytest.mark.parametrize("fractions, seed, message", [
        ((float("nan"), 0.5, 0.5), 0, "split fractions must be positive"),
        ((0.5, float("nan"), 0.5), 0, "split fractions must be positive"),
        ((0.5, 0.3, 0.2), -1, "seed must be non-negative, got -1"),
    ])
    def test_nan_fraction_and_negative_seed(self, rng, fractions, seed, message):
        data = random_dataset(rng, 10, 2)
        with pytest.raises(InputError) as exc:
            split(data, fractions, seed)
        assert str(exc.value) == message


class TestResample:
    def test_identity_permutation(self, rng):
        data = random_dataset(rng, 12, 3)
        idx = ResampleIndex(np.arange(12), seed=0, iteration=0)
        rep = resample(data, idx)
        np.testing.assert_array_equal(rep.columns, data.columns)
        np.testing.assert_array_equal(rep.response, data.response)

    def test_degenerate_all_first_row(self, rng):
        data = random_dataset(rng, 8, 2)
        rep = resample(data, ResampleIndex(np.zeros(8, dtype=int), 0, 0))
        for i in range(8):
            np.testing.assert_array_equal(rep.columns[:, i], data.columns[:, 0])

    def test_out_of_range(self, rng):
        data = random_dataset(rng, 5, 2)
        with pytest.raises(InputError, match="out of range"):
            resample(data, ResampleIndex(np.array([0, 1, 2, 3, 9]), 0, 0))

    def test_draw_deterministic_in_seed_and_iteration(self):
        a = ResampleIndex.draw(50, seed=7, iteration=3)
        b = ResampleIndex.draw(50, seed=7, iteration=3)
        c = ResampleIndex.draw(50, seed=7, iteration=4)
        np.testing.assert_array_equal(a.indices, b.indices)
        assert not np.array_equal(a.indices, c.indices)

    def test_replicate_means_match_clt(self, rng):
        data = random_dataset(rng, 200, 1)
        col = data.column(0)
        means = []
        for b in range(1000):
            rep = resample(data, ResampleIndex.draw(200, seed=5, iteration=b))
            means.append(rep.column(0).mean())
        # Conditional on the data, each replicate mean is unbiased for the
        # sample mean; averaging 1000 replicates shrinks the SE by sqrt(1000).
        se = col.std(ddof=1) / np.sqrt(200 * 1000)
        assert abs(np.mean(means) - col.mean()) < 3 * se


class TestEmpiricalProbBelow:
    def test_direct_count(self):
        assert empirical_prob_below([1, 2, 3, 4], 3) == 0.5

    def test_boundaries(self):
        assert empirical_prob_below([1, 2, 3], 0.5) == 0.0
        assert empirical_prob_below([1, 2, 3], 99.0) == 1.0

    def test_strict_inequality_on_ties(self):
        assert empirical_prob_below([1.0, 2.0, 2.0, 3.0], 2.0) == 0.25

    def test_empty_column(self):
        with pytest.raises(InputError, match="empty"):
            empirical_prob_below([], 1.0)

    def test_matches_counting_loop(self, rng):
        for _ in range(1000):
            col = rng.normal(size=rng.integers(1, 30))
            t = rng.normal()
            brute = sum(1 for v in col if v < t) / len(col)
            assert empirical_prob_below(col, t) == brute

    def test_monotone_in_threshold(self, rng):
        col = rng.normal(size=50)
        ts = np.sort(rng.normal(size=25))
        probs = [empirical_prob_below(col, t) for t in ts]
        assert all(a <= b for a, b in zip(probs, probs[1:]))


class TestDatasetInvariants:
    def test_rejects_nan(self):
        with pytest.raises(InputError, match="missing values"):
            Dataset(("a",), np.array([[1.0, np.nan]]), (FeatureKind.CONTINUOUS,), np.zeros(2))

    def test_rejects_inf_feature_with_location(self):
        cols = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, -np.inf]])
        with pytest.raises(InputError, match=r"column 'b', row index 2: -inf is not finite"):
            Dataset(("a", "b"), cols, (FeatureKind.CONTINUOUS,) * 2, np.zeros(3))

    def test_rejects_inf_response_with_location(self):
        with pytest.raises(InputError, match=r"response, row index 1: inf is not finite"):
            Dataset(("a",), np.ones((1, 3)), (FeatureKind.CONTINUOUS,), np.array([0.0, np.inf, 1.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(InputError):
            Dataset(("a",), np.ones((1, 3)), (FeatureKind.CONTINUOUS,), np.zeros(2))

    def test_immutable(self, rng):
        data = random_dataset(rng, 5, 2)
        with pytest.raises(ValueError):
            data.columns[0, 0] = 99.0

    def test_concat_rows(self, rng):
        a = random_dataset(rng, 5, 2)
        b = random_dataset(rng, 7, 2)
        both = concat_rows(a, b)
        assert both.n_rows == 12
        np.testing.assert_array_equal(both.columns[:, :5], a.columns)
