"""Key → cluster-label mapping kernel (paper §3, step 5).

Once the partitioning step has produced per-dimension cut locations, each
point's bin index maps to a per-dimension *interval* id (which primary
cluster it falls into along that dimension) via ``searchsorted``; the tuple
of interval ids across dimensions identifies the global cluster.
:class:`~repro.core.primary.PrimaryPartition` packs the tuple into one
mixed-radix cell code. This per-point kernel is the reference for its
table-driven :meth:`~repro.core.primary.PrimaryPartition.codes_for_bins`
and serves bin grids too deep to tabulate.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.kernels.engine import KernelEngine

__all__ = ["intervals_for_bins"]


def intervals_for_bins(
    bins: np.ndarray,
    cuts: Sequence[np.ndarray],
    engine: Optional[KernelEngine] = None,
) -> np.ndarray:
    """Map (M × N) bin indices to per-dimension interval ids.

    ``cuts[j]`` is the sorted array of cut positions for dimension ``j``:
    a bin ``b`` belongs to interval ``searchsorted(cuts[j], b, 'left')``,
    so a cut at ``c`` separates bins ``<= c`` (left) from bins ``> c``
    (right) and ``len(cuts[j]) + 1`` intervals exist along dimension ``j``.
    """
    bins = np.asarray(bins)
    if bins.ndim != 2:
        raise ValidationError("intervals_for_bins needs a 2-D bins array")
    if len(cuts) != bins.shape[1]:
        raise ValidationError(
            f"need one cut array per dimension: {len(cuts)} != {bins.shape[1]}"
        )
    cut_arrays = [np.asarray(c, dtype=np.int64) for c in cuts]

    def kernel(block: np.ndarray) -> np.ndarray:
        out = np.empty(block.shape, dtype=np.int32)
        for j, c in enumerate(cut_arrays):
            if c.size == 0:
                out[:, j] = 0
            else:
                out[:, j] = np.searchsorted(c, block[:, j], side="left")
        return out

    if engine is None:
        return kernel(bins)
    return engine.map(kernel, bins, out_shape=bins.shape, out_dtype=np.int32)
