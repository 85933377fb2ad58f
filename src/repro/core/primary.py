"""Primary clusters and the global cluster table (paper §3, step 5).

A *primary cluster* is a maximal run of bins between two cuts along one
dimension — a partial, single-dimension clustering. The cross product of
primary clusters forms the interval grid; the *occupied* cells of that grid
are the global clusters. Points map to cells through their keys alone, so
assignment is embarrassingly parallel and the cell table (a few integers
per cluster) is all that ranks must share to label consistently.

Labelling runs at histogram scale: a point's cell code is a sum of one
per-dimension term, and each term depends only on the point's bin along
that dimension. :meth:`PrimaryPartition.codes_for_bins` therefore
tabulates the term once per bin value (``2^depth`` entries per dimension)
and labels M points with one gather-and-add per dimension, and
:meth:`GlobalClusterTable.from_points` counts occupied cells with a
``bincount`` over the grid instead of sorting the M codes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.kernels.keys import prefix_bins
from repro.kernels.labels import intervals_for_bins

__all__ = ["PrimaryPartition", "GlobalClusterTable"]

#: Deepest bin grid :meth:`PrimaryPartition.codes_for_bins` tabulates:
#: 2^16 int64 entries are 512 KiB per dimension. Deeper bins are mapped
#: point by point with :func:`~repro.kernels.labels.intervals_for_bins`.
MAX_TABLE_DEPTH = 16


@dataclass(frozen=True)
class PrimaryPartition:
    """Per-dimension cut sets at a fixed depth.

    Attributes
    ----------
    depth:
        Bin-tree depth the cuts refer to (bins are in ``[0, 2^depth)``).
    cuts:
        One sorted int64 array per kept dimension.
    """

    depth: int
    cuts: tuple

    def __init__(self, depth: int, cuts: Sequence[np.ndarray]):
        if depth < 1:
            raise ValidationError(f"depth must be >= 1, got {depth}")
        n_bins = 1 << depth
        clean: List[np.ndarray] = []
        for j, c in enumerate(cuts):
            arr = np.asarray(c, dtype=np.int64).ravel()
            if arr.size and (arr.min() < 0 or arr.max() >= n_bins - 1):
                raise ValidationError(
                    f"dimension {j}: cuts must lie in [0, {n_bins - 2}]"
                )
            if arr.size and np.any(np.diff(arr) <= 0):
                raise ValidationError(f"dimension {j}: cuts must be strictly increasing")
            clean.append(arr)
        object.__setattr__(self, "depth", int(depth))
        object.__setattr__(self, "cuts", tuple(clean))
        # bins_depth -> per-dimension code tables, built on first use.
        object.__setattr__(self, "_code_tables", {})

    def __reduce__(self):
        # Ship the cuts, not the cached code tables.
        return (PrimaryPartition, (self.depth, self.cuts))

    @property
    def n_dims(self) -> int:
        return len(self.cuts)

    @property
    def n_intervals(self) -> np.ndarray:
        """Primary-cluster count per dimension."""
        return np.array([c.size + 1 for c in self.cuts], dtype=np.int64)

    @property
    def n_cells(self) -> int:
        """Size of the full interval grid (occupied or not), exactly."""
        return math.prod(c.size + 1 for c in self.cuts)

    def intervals_for(self, bins: np.ndarray) -> np.ndarray:
        """Map (M × n_dims) bin indices to per-dimension interval ids."""
        bins = np.asarray(bins)
        if bins.ndim != 2 or bins.shape[1] != self.n_dims:
            raise ValidationError(
                f"expected (M × {self.n_dims}) bins, got {bins.shape}"
            )
        return intervals_for_bins(bins, self.cuts)

    def cell_codes(self, intervals: np.ndarray) -> np.ndarray:
        """Mixed-radix code of each point's grid cell."""
        radices = self.n_intervals
        code = np.zeros(intervals.shape[0], dtype=np.int64)
        for j in range(self.n_dims):
            code *= radices[j]
            code += intervals[:, j].astype(np.int64)
        return code

    def codes_for_bins(self, bins: np.ndarray, bins_depth: int) -> np.ndarray:
        """Cell code of each row of (M × n_dims) bins taken at ``bins_depth``.

        Equal to ``cell_codes(intervals_for(prefix_bins(bins, bins_depth,
        depth)))``, but the per-point work is one table gather and one add
        per dimension: the mixed-radix code is ``Σ_j stride_j · interval_j``
        and ``stride_j · interval_j`` is tabulated over the ``2^bins_depth``
        possible bin values. Column-major (Fortran-ordered) ``bins`` make
        every gather read contiguous memory. Bins deeper than
        :data:`MAX_TABLE_DEPTH` take the per-point searchsorted kernel.
        """
        bins = np.asarray(bins)
        if bins.ndim != 2 or bins.shape[1] != self.n_dims:
            raise ValidationError(
                f"expected (M × {self.n_dims}) bins, got {bins.shape}"
            )
        if bins_depth < self.depth:
            raise ValidationError(
                f"bins_depth ({bins_depth}) is shallower than the partition "
                f"depth ({self.depth})"
            )
        if bins_depth > MAX_TABLE_DEPTH:
            shallow = prefix_bins(bins, bins_depth, self.depth)
            return self.cell_codes(self.intervals_for(shallow))
        tables = self._tables_for(bins_depth)
        if not tables:
            return np.zeros(bins.shape[0], dtype=np.int64)
        codes = np.take(tables[0], bins[:, 0])
        for j in range(1, self.n_dims):
            codes += np.take(tables[j], bins[:, j])
        return codes

    def _tables_for(self, bins_depth: int) -> Tuple[np.ndarray, ...]:
        """Per-dimension ``stride_j · interval_j`` over every bin value."""
        cache: Dict[int, Tuple[np.ndarray, ...]] = self._code_tables
        tables = cache.get(bins_depth)
        if tables is None:
            radices = self.n_intervals
            # stride_j = Π_{k>j} radix_k (int64, wrapping like cell_codes).
            strides = np.append(np.cumprod(radices[:0:-1])[::-1], 1)
            shallow = prefix_bins(
                np.arange(1 << bins_depth, dtype=np.int64), bins_depth, self.depth
            )
            tables = tuple(
                strides[j] * np.searchsorted(c, shallow, side="left")
                for j, c in enumerate(self.cuts)
            )
            # Racing builders compute identical tables; either may win.
            cache[bins_depth] = tables
        return tables

    def decode_cells(self, codes: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`cell_codes`: (|codes| × n_dims) interval ids."""
        radices = self.n_intervals
        codes = np.asarray(codes, dtype=np.int64).copy()
        out = np.empty((codes.shape[0], self.n_dims), dtype=np.int64)
        for j in range(self.n_dims - 1, -1, -1):
            out[:, j] = codes % radices[j]
            codes //= radices[j]
        return out


class GlobalClusterTable:
    """Dense labels for the occupied cells of the interval grid.

    The table is the sorted array of occupied cell codes; a point's label is
    the position of its cell code in that array (``-1`` for cells never seen
    during fit — novel regions at predict time).
    """

    def __init__(self, codes: np.ndarray, sizes: Optional[np.ndarray] = None):
        codes = np.asarray(codes, dtype=np.int64).ravel()
        if codes.size and np.any(np.diff(codes) <= 0):
            order = np.argsort(codes)
            codes = codes[order]
            if sizes is not None:
                sizes = np.asarray(sizes, dtype=np.int64).ravel()[order]
            if np.any(np.diff(codes) == 0):
                raise ValidationError("cell codes must be unique")
        self.codes = codes
        self.sizes = (
            None if sizes is None else np.asarray(sizes, dtype=np.int64).ravel()
        )
        if self.sizes is not None and self.sizes.shape != self.codes.shape:
            raise ValidationError("sizes must align with codes")

    @classmethod
    def from_points(
        cls,
        codes_of_points: np.ndarray,
        n_cells: Optional[int] = None,
        weights: Optional[np.ndarray] = None,
    ) -> "GlobalClusterTable":
        """Build the table from the per-point cell codes seen during fit.

        ``weights`` (one per code) replaces the point count of a cell with
        the sum of its codes' weights — the streaming path weights each
        key by its multiplicity; the sums must be whole numbers below
        2^53. ``n_cells`` promises ``0 <= code < n_cells``: when the grid
        is no larger than the code array the cells are counted with one
        ``bincount`` over the grid, otherwise with a sort, so a wide grid
        never allocates more than the codes themselves.
        """
        codes = np.asarray(codes_of_points, dtype=np.int64).ravel()
        if n_cells is not None and n_cells <= codes.size:
            occupancy = np.bincount(codes, minlength=n_cells)
            cells = np.flatnonzero(occupancy)
            if weights is None:
                return cls(cells, occupancy[cells])
            sums = np.bincount(codes, weights=weights, minlength=n_cells)[cells]
        else:
            cells, inverse, sizes = np.unique(
                codes, return_inverse=True, return_counts=True
            )
            if weights is None:
                return cls(cells, sizes)
            sums = np.bincount(inverse, weights=weights, minlength=cells.size)
        return cls(cells, sums.astype(np.int64))

    @property
    def n_clusters(self) -> int:
        return int(self.codes.size)

    def lookup(self, codes_of_points: np.ndarray) -> np.ndarray:
        """Labels in ``[0, n_clusters)``; ``-1`` marks unseen cells."""
        pts = np.asarray(codes_of_points, dtype=np.int64)
        if self.codes.size == 0:
            return np.full(pts.shape, -1, dtype=np.int64)
        top = int(self.codes[-1])
        if self.codes[0] >= 0 and top < pts.size:
            # Dense code → label map, no larger than the query: one gather
            # instead of a binary search per point. Slot 0 and slot top+2
            # catch (clipped) codes outside [0, top] as unseen.
            dense = np.full(top + 3, -1, dtype=np.int64)
            dense[self.codes + 1] = np.arange(self.codes.size)
            return np.take(dense, pts + 1, mode="clip")
        pos = np.searchsorted(self.codes, pts)
        pos_clipped = np.clip(pos, 0, self.codes.size - 1)
        hit = self.codes[pos_clipped] == pts
        labels = np.where(hit, pos_clipped, -1)
        return labels.astype(np.int64)

    def merge(self, other: "GlobalClusterTable") -> "GlobalClusterTable":
        """Union of two tables (distributed fit: cells seen on any rank)."""
        if other.n_clusters == 0:
            return GlobalClusterTable(self.codes.copy(),
                                      None if self.sizes is None else self.sizes.copy())
        all_codes = np.concatenate([self.codes, other.codes])
        if self.sizes is not None and other.sizes is not None:
            all_sizes = np.concatenate([self.sizes, other.sizes])
            codes, inverse = np.unique(all_codes, return_inverse=True)
            sizes = np.zeros(codes.size, dtype=np.int64)
            np.add.at(sizes, inverse, all_sizes)
            return GlobalClusterTable(codes, sizes)
        codes = np.unique(all_codes)
        return GlobalClusterTable(codes)
