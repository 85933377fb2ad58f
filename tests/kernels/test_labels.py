"""Tests for interval/label mapping kernels."""

import numpy as np
import pytest

from repro.core.primary import GlobalClusterTable, PrimaryPartition
from repro.errors import ValidationError
from repro.kernels.engine import KernelEngine
from repro.kernels.labels import intervals_for_bins


class TestIntervalsForBins:
    def test_no_cuts_single_interval(self):
        bins = np.array([[0], [5], [15]], dtype=np.int32)
        iv = intervals_for_bins(bins, [np.empty(0, dtype=np.int64)])
        assert iv.ravel().tolist() == [0, 0, 0]

    def test_single_cut_splits(self):
        bins = np.array([[0], [7], [8], [15]], dtype=np.int32)
        iv = intervals_for_bins(bins, [np.array([7])])
        # searchsorted right: bin <= 7 → interval 0, bin > 7 → interval 1
        assert iv.ravel().tolist() == [0, 0, 1, 1]

    def test_multiple_cuts(self):
        bins = np.array([[0], [3], [4], [10], [11]], dtype=np.int32)
        iv = intervals_for_bins(bins, [np.array([3, 10])])
        assert iv.ravel().tolist() == [0, 0, 1, 1, 2]

    def test_per_dimension_cuts(self):
        bins = np.array([[0, 9], [9, 0]], dtype=np.int32)
        iv = intervals_for_bins(bins, [np.array([4]), np.array([4])])
        assert iv.tolist() == [[0, 1], [1, 0]]

    def test_cut_count_mismatch(self):
        with pytest.raises(ValidationError):
            intervals_for_bins(np.zeros((2, 2), dtype=np.int32), [np.array([1])])

    def test_engine_equals_direct(self, rng):
        bins = rng.integers(0, 32, (64, 3)).astype(np.int32)
        cuts = [np.array([10]), np.array([5, 20]), np.empty(0, dtype=np.int64)]
        a = intervals_for_bins(bins, cuts)
        b = intervals_for_bins(bins, cuts, engine=KernelEngine(7))
        assert np.array_equal(a, b)


class TestCombineIntervalLabels:
    """Interval tuples → mixed-radix cell codes → dense labels, the way
    every fit path combines them (``PrimaryPartition.cell_codes`` plus
    ``GlobalClusterTable``)."""

    @staticmethod
    def _partition(radices):
        # r intervals along a dimension = r - 1 cuts at depth 4.
        return PrimaryPartition(4, [np.arange(r - 1) for r in radices])

    def test_dense_labels(self):
        iv = np.array([[0, 0], [0, 1], [0, 0], [1, 1]], dtype=np.int32)
        codes = self._partition([2, 2]).cell_codes(iv)
        table = GlobalClusterTable.from_points(codes)
        assert table.lookup(codes).tolist() == [0, 1, 0, 2]
        assert table.codes.tolist() == [0, 1, 3]

    def test_codes_sorted_unique(self, rng):
        iv = rng.integers(0, 3, (100, 3)).astype(np.int32)
        codes = self._partition([3, 3, 3]).cell_codes(iv)
        table = GlobalClusterTable.from_points(codes)
        assert np.all(np.diff(table.codes) > 0)
        assert table.lookup(codes).max() == table.n_clusters - 1

    def test_mixed_radix_injective(self, rng):
        radices = [3, 5, 2]
        iv = np.stack(
            [rng.integers(0, r, 200) for r in radices], axis=1
        ).astype(np.int32)
        codes = self._partition(radices).cell_codes(iv)
        # Two rows share a code iff they are identical.
        uniq_rows = np.unique(iv, axis=0)
        assert np.unique(codes).size == uniq_rows.shape[0]

    def test_radix_mismatch(self):
        with pytest.raises(ValidationError):
            self._partition([2, 2]).codes_for_bins(
                np.zeros((2, 3), dtype=np.int32), 4
            )
