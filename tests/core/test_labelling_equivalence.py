"""Histogram-scale labelling equals the per-point reference chain.

``PrimaryPartition.codes_for_bins`` and the counted
``GlobalClusterTable.from_points`` replace ``prefix_bins`` →
``intervals_for`` → ``cell_codes`` → ``np.unique`` in every fit path.
These tests hold the two bit-identical: the kernels on random inputs, and
``KeyBin2.fit`` against a copy of the trial loop that used the reference
chain.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.assess import histogram_ch_index
from repro.core.binning import SpaceRange
from repro.core.collapse import collapse_dimensions
from repro.core.estimator import KeyBin2, _score_key
from repro.core.model import KeyBin2Model
from repro.core.partitioning import find_cuts
from repro.core.primary import MAX_TABLE_DEPTH, GlobalClusterTable, PrimaryPartition
from repro.core.projection import projection_matrix
from repro.data.gaussians import gaussian_mixture
from repro.errors import ValidationError
from repro.kernels.histogram import accumulate_histogram
from repro.kernels.keys import bin_indices, prefix_bins
from repro.kernels.project import project_points

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _reference_codes(partition, bins, bins_depth):
    shallow = prefix_bins(bins, bins_depth, partition.depth)
    return partition.cell_codes(partition.intervals_for(shallow))


@st.composite
def partitions_and_bins(draw):
    bins_depth = draw(st.integers(1, MAX_TABLE_DEPTH + 2))
    depth = draw(st.integers(1, bins_depth))
    n_dims = draw(st.integers(1, 10))
    max_cut = (1 << depth) - 2
    cuts = []
    for _ in range(n_dims):
        if max_cut < 0:
            cuts.append(np.empty(0, dtype=np.int64))
            continue
        chosen = draw(st.lists(st.integers(0, max_cut), max_size=6, unique=True))
        cuts.append(np.array(sorted(chosen), dtype=np.int64))
    m = draw(st.integers(0, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    bins = np.random.default_rng(seed).integers(
        0, 1 << bins_depth, (m, n_dims)
    ).astype(np.int32)
    return PrimaryPartition(depth, cuts), bins, bins_depth


class TestCodesForBins:
    @SETTINGS
    @given(partitions_and_bins())
    def test_equals_reference_chain(self, case):
        partition, bins, bins_depth = case
        expected = _reference_codes(partition, bins, bins_depth)
        got = partition.codes_for_bins(bins, bins_depth)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)
        # Column-major input and a second (cached-table) call agree too.
        again = partition.codes_for_bins(np.asfortranarray(bins), bins_depth)
        assert np.array_equal(again, expected)

    @pytest.mark.parametrize("bins_depth", [MAX_TABLE_DEPTH, MAX_TABLE_DEPTH + 1])
    def test_both_sides_of_table_cap(self, rng, bins_depth):
        partition = PrimaryPartition(
            4, [np.array([2, 9]), np.empty(0, np.int64), np.array([13])]
        )
        bins = rng.integers(0, 1 << bins_depth, (500, 3)).astype(np.int32)
        assert np.array_equal(
            partition.codes_for_bins(bins, bins_depth),
            _reference_codes(partition, bins, bins_depth),
        )

    def test_rejects_wrong_shape_and_shallow_bins(self):
        partition = PrimaryPartition(4, [np.array([3]), np.array([5])])
        with pytest.raises(ValidationError):
            partition.codes_for_bins(np.zeros((4, 3), dtype=np.int32), 4)
        with pytest.raises(ValidationError):
            partition.codes_for_bins(np.zeros((4, 2), dtype=np.int32), 3)

    def test_pickle_drops_cached_tables(self):
        import pickle

        partition = PrimaryPartition(3, [np.array([1, 4])])
        partition.codes_for_bins(np.zeros((2, 1), dtype=np.int32), 6)
        clone = pickle.loads(pickle.dumps(partition))
        assert clone._code_tables == {}
        assert clone.depth == 3 and np.array_equal(clone.cuts[0], [1, 4])


def _unique_table(codes, weights):
    cells, inverse = np.unique(codes, return_inverse=True)
    sizes = np.zeros(cells.size, dtype=np.int64)
    np.add.at(sizes, inverse, np.ones_like(codes) if weights is None else weights)
    return cells, sizes


class TestCountedFromPoints:
    @SETTINGS
    @given(
        st.integers(1, 200),
        st.integers(0, 300),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_unique_path(self, n_cells, m, weighted, seed):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, n_cells, m).astype(np.int64)
        weights = rng.integers(0, 50, m) if weighted else None
        cells, sizes = _unique_table(codes, weights)
        table = GlobalClusterTable.from_points(codes, n_cells=n_cells, weights=weights)
        assert table.codes.dtype == table.sizes.dtype == np.int64
        assert np.array_equal(table.codes, cells)
        assert np.array_equal(table.sizes, sizes)
        plain = GlobalClusterTable.from_points(codes, weights=weights)
        assert np.array_equal(plain.codes, cells)
        assert np.array_equal(plain.sizes, sizes)

    @pytest.mark.parametrize("n_cells", [9, 10, 11, 10**12])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_both_sides_of_grid_guard(self, n_cells, weighted):
        codes = np.array([3, 0, 8, 3, 3, 0, 8, 5, 3, 0], dtype=np.int64)
        weights = np.arange(1, 11) if weighted else None
        cells, sizes = _unique_table(codes, weights)
        table = GlobalClusterTable.from_points(codes, n_cells=n_cells, weights=weights)
        assert np.array_equal(table.codes, cells)
        assert np.array_equal(table.sizes, sizes)


class TestDenseLookup:
    @SETTINGS
    @given(
        st.lists(st.integers(-5, 120), unique=True, max_size=30),
        st.integers(0, 300),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_binary_search(self, cells, m, seed):
        """Queries at least as long as the table's code range take the
        dense map; every answer must equal the binary search."""
        table = GlobalClusterTable(np.array(sorted(cells), dtype=np.int64))
        queries = np.random.default_rng(seed).integers(-10, 140, m)
        queries[:2] = [np.iinfo(np.int64).max, np.iinfo(np.int64).min][: m]
        pos = np.searchsorted(table.codes, queries)
        clipped = np.clip(pos, 0, max(table.n_clusters - 1, 0))
        if table.n_clusters:
            hit = table.codes[clipped] == queries
            expected = np.where(hit, clipped, -1)
        else:
            expected = np.full(m, -1)
        got = table.lookup(queries)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)


# -- fit oracle ---------------------------------------------------------------


def _reference_run_trial(self, x, trial, rng, precomputed=None):
    """The trial loop as it stood on the per-point labelling chain."""
    m, n = x.shape
    if precomputed is not None:
        matrix, projected = precomputed
    elif self.projection == "none":
        matrix = None
        projected = x
    else:
        n_rp = self._target_components(n)
        matrix = projection_matrix(n, n_rp, seed=rng, kind=self.projection)
        projected = project_points(x, matrix, engine=self.engine)

    space = SpaceRange.from_data(projected, margin=self.range_margin)
    depths = self._resolved_depths
    deepest = depths[-1]
    deep_bins = bin_indices(
        projected, space.r_min, space.r_max, deepest, engine=self.engine
    )
    counts_by_depth = {}
    for d in depths:
        b = deep_bins if d == deepest else prefix_bins(deep_bins, deepest, d)
        counts_by_depth[d] = accumulate_histogram(b, 1 << d, engine=self.engine)

    if self.collapse:
        kept = collapse_dimensions(
            counts_by_depth[deepest],
            uniform_threshold=self.uniform_threshold,
            min_support_bins=self.min_support_bins,
        )
    else:
        kept = np.ones(projected.shape[1], dtype=bool)

    best_for_trial = None
    for d in depths:
        counts_kept = counts_by_depth[d][kept]
        cuts = [
            find_cuts(
                counts_kept[j],
                n_points=m,
                min_prominence=self.min_cut_prominence,
                smoother=self.smoother,
            )
            for j in range(counts_kept.shape[0])
        ]
        partition = PrimaryPartition(d, cuts)
        bins_d = deep_bins if d == deepest else prefix_bins(deep_bins, deepest, d)
        intervals = partition.intervals_for(bins_d[:, kept])
        codes = partition.cell_codes(intervals)
        table = GlobalClusterTable.from_points(codes)
        if self.min_cluster_fraction > 0.0 and table.n_clusters > 1:
            min_size = int(np.ceil(self.min_cluster_fraction * m))
            keep_cells = table.sizes >= min_size
            if keep_cells.any():
                table = GlobalClusterTable(
                    table.codes[keep_cells], table.sizes[keep_cells]
                )
        labels = table.lookup(codes)
        cell_intervals = partition.decode_cells(table.codes)
        score = histogram_ch_index(counts_kept, partition.cuts, cell_intervals)
        candidate = {
            "model": KeyBin2Model(
                projection=matrix,
                space=space,
                partition=partition,
                kept_dims=kept,
                table=table,
                score=score,
                depth=d,
                n_points_fit=m,
                meta={"trial": trial},
            ),
            "labels": labels,
            "score": score,
            "depth": d,
            "n_clusters": table.n_clusters,
            "n_kept_dims": int(kept.sum()),
        }
        if best_for_trial is None or _score_key(candidate) > _score_key(best_for_trial):
            best_for_trial = candidate
    return best_for_trial


def _trial_rows(kb):
    return [(t.trial, t.depth, t.n_clusters, t.n_kept_dims) for t in kb.trials_]


@pytest.fixture(scope="module")
def mixture():
    x, _ = gaussian_mixture(n_points=3000, n_dims=16, n_clusters=5, seed=11)
    return x


@pytest.fixture(scope="module")
def low_dim_mixture():
    x, _ = gaussian_mixture(n_points=2000, n_dims=3, n_clusters=3, seed=5)
    return x


ORACLE_CONFIGS = {
    "defaults": {},
    "no-collapse": {"collapse": False},
    "min-cluster-fraction": {"min_cluster_fraction": 0.05},
    "projection-none": {"projection": "none"},
    "auto-depths": {"candidate_depths": "auto"},
    "kde": {"smoother": "kde"},
    "simultaneous": {"simultaneous_projections": True},
}


@pytest.mark.parametrize("name", list(ORACLE_CONFIGS))
def test_fit_matches_reference_trial_loop(name, mixture, low_dim_mixture, monkeypatch):
    params = dict(n_projections=4, seed=3, **ORACLE_CONFIGS[name])
    x = low_dim_mixture if params.get("projection") == "none" else mixture
    fast = KeyBin2(**params).fit(x)
    with monkeypatch.context() as patch:
        patch.setattr(KeyBin2, "_run_trial", _reference_run_trial)
        reference = KeyBin2(**params).fit(x)
    assert fast.model_.fingerprint() == reference.model_.fingerprint()
    assert np.array_equal(fast.labels_, reference.labels_)
    assert _trial_rows(fast) == _trial_rows(reference)
    assert np.array_equal(
        [t.score for t in fast.trials_],
        [t.score for t in reference.trials_],
        equal_nan=True,
    )
    # Predict (cell_codes_for) against the reference chain as well.
    model = fast.model_
    kept = model.kept_dims
    depth = model.partition.depth
    bins = bin_indices(model.transform(x)[:, kept], model.space.r_min[kept],
                       model.space.r_max[kept], depth)
    expected = model.table.lookup(_reference_codes(model.partition, bins, depth))
    assert np.array_equal(model.predict(x), expected)
