"""Distributed (SPMD) KeyBin2 driver (paper §3.5).

Implements the paper's master–worker deployment on top of
:mod:`repro.comm`, with an allreduce/ring alternative. Per bootstrap trial:

1. every rank builds the *same* projection matrix from the shared seed
   (no communication),
2. per-rank projected ranges are merged with an elementwise min/max
   allreduce (2 small vectors),
3. per-rank histograms are consolidated — either gathered at the master,
   merged, partitioned and broadcast (paper's topology), or allreduced so
   every rank partitions the identical global histogram deterministically
   (``"allreduce"``/``"ring"``),
4. occupied-cell tables are unioned (tiny: a few ints per cluster) and the
   global table broadcast, so labels are consistent across ranks,
5. the CH score is computed from the global histogram; the best-scoring
   trial wins on every rank simultaneously (same data ⇒ same decision).

The only payloads proportional to anything are the histograms —
O(N_rp · B) integers per rank per trial — which is the paper's
O(2·K·N_rp·B) total communication claim; ``comm.traffic`` measures it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.base import Communicator, ReduceOp
from repro.comm.ring import ring_allreduce
from repro.comm.spmd import run_spmd
from repro.core.assess import histogram_ch_index
from repro.core.binning import SpaceRange
from repro.core.collapse import collapse_dimensions
from repro.core.model import KeyBin2Model
from repro.core.partitioning import find_cuts
from repro.core.primary import GlobalClusterTable, PrimaryPartition
from repro.core.projection import projection_matrix, target_dimension
from repro.errors import ValidationError
from repro.kernels.engine import KernelEngine
from repro.kernels.histogram import accumulate_histogram
from repro.kernels.keys import bin_indices, prefix_bins
from repro.kernels.project import project_points
from repro.util.rng import spawn_generators
from repro.util.validation import check_array_2d, check_finite

__all__ = ["keybin2_spmd", "fit_distributed", "DistributedFitResult"]

CONSOLIDATION_MODES = ("master", "allreduce", "ring")


def _merge_ranges(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reduce op for stacked (2 × N) [min; max] bounds."""
    return np.stack([np.minimum(a[0], b[0]), np.maximum(a[1], b[1])])


def _consolidate_histograms(
    comm: Communicator,
    local: Dict[int, np.ndarray],
    depths: Sequence[int],
    mode: str,
) -> Dict[int, np.ndarray]:
    """Return the global (summed) histogram tables on every rank."""
    n_dims = next(iter(local.values())).shape[0]
    buf = np.concatenate([local[d].ravel() for d in depths])
    if mode == "ring":
        total = ring_allreduce(comm, buf, op=ReduceOp.SUM)
    elif mode == "allreduce":
        total = comm.allreduce(buf, op=ReduceOp.SUM)
    elif mode == "master":
        summed = comm.reduce(buf, op=ReduceOp.SUM, root=0)
        total = comm.bcast(summed, root=0)
    else:
        raise ValidationError(f"mode must be one of {CONSOLIDATION_MODES}")
    out: Dict[int, np.ndarray] = {}
    offset = 0
    for d in depths:
        size = n_dims * (1 << d)
        out[d] = total[offset : offset + size].reshape(n_dims, 1 << d)
        offset += size
    return out


def keybin2_spmd(
    comm: Communicator,
    x_local: np.ndarray,
    n_projections: int = 8,
    n_components: Optional[int] = None,
    candidate_depths: Sequence[int] = (3, 4, 5, 6),
    projection: str = "gaussian",
    projection_factor: float = 1.5,
    range_margin: float = 0.05,
    collapse: bool = True,
    uniform_threshold: float = 0.05,
    min_support_bins: int = 3,
    min_cut_prominence: float = 0.10,
    smoother: str = "ma",
    seed: Optional[int] = 0,
    consolidation: str = "master",
    engine: Optional[KernelEngine] = None,
) -> Tuple[np.ndarray, KeyBin2Model]:
    """SPMD KeyBin2: every rank calls this with its local shard.

    Returns ``(local_labels, model)``; the model is identical on all ranks
    and labels are globally consistent (label ``i`` means the same cluster
    everywhere).

    ``seed`` must be a plain integer (identical across ranks) — it is the
    shared source of the projection matrices.
    """
    x_local = check_array_2d(x_local, "x_local", min_rows=1)
    check_finite(x_local, "x_local")
    if consolidation not in CONSOLIDATION_MODES:
        raise ValidationError(f"consolidation must be one of {CONSOLIDATION_MODES}")
    n = x_local.shape[1]
    n_check = comm.allreduce(np.array([n, -n]), op=ReduceOp.MAX)
    if int(n_check[0]) != n or int(-n_check[1]) != n:
        raise ValidationError("all ranks must hold the same number of features")

    depths = tuple(sorted(set(int(d) for d in candidate_depths)))
    deepest = depths[-1]
    rngs = spawn_generators(seed, n_projections)
    m_local = x_local.shape[0]
    m_global = int(comm.allreduce(m_local))

    best: Optional[Dict[str, Any]] = None
    fallback: Optional[Dict[str, Any]] = None

    for trial, rng in enumerate(rngs):
        if projection == "none":
            matrix = None
            projected = x_local
        else:
            n_rp = (
                target_dimension(n, factor=projection_factor)
                if n_components is None
                else int(n_components)
            )
            n_rp = min(max(n_rp, 1), n)
            matrix = projection_matrix(n, n_rp, seed=rng, kind=projection)
            projected = project_points(x_local, matrix, engine=engine)

        # Global range: elementwise min/max allreduce of local bounds.
        local_bounds = SpaceRange.from_data(projected, margin=range_margin).to_array()
        global_bounds = comm.allreduce(local_bounds, op=_merge_ranges)
        space = SpaceRange.from_array(global_bounds)

        deep_bins = bin_indices(projected, space.r_min, space.r_max, deepest,
                                engine=engine)
        local_hist: Dict[int, np.ndarray] = {}
        for d in depths:
            b = deep_bins if d == deepest else prefix_bins(deep_bins, deepest, d)
            local_hist[d] = accumulate_histogram(b, 1 << d, engine=engine)

        global_hist = _consolidate_histograms(comm, local_hist, depths, consolidation)

        if collapse:
            kept = collapse_dimensions(
                global_hist[deepest],
                uniform_threshold=uniform_threshold,
                min_support_bins=min_support_bins,
            )
        else:
            kept = np.ones(projected.shape[1], dtype=bool)
        kept_bins = np.asfortranarray(deep_bins[:, kept], dtype=np.intp)

        for d in depths:
            counts_kept = global_hist[d][kept]
            if consolidation == "master":
                # Paper topology: the master partitions, workers receive cuts.
                if comm.rank == 0:
                    cuts = [
                        find_cuts(counts_kept[j], n_points=m_global,
                                  min_prominence=min_cut_prominence,
                                  smoother=smoother)
                        for j in range(counts_kept.shape[0])
                    ]
                else:
                    cuts = None
                cuts = comm.bcast(cuts, root=0)
            else:
                # Identical global histograms ⇒ identical cuts everywhere.
                cuts = [
                    find_cuts(counts_kept[j], n_points=m_global,
                              min_prominence=min_cut_prominence,
                              smoother=smoother)
                    for j in range(counts_kept.shape[0])
                ]
            partition = PrimaryPartition(d, cuts)
            codes = partition.codes_for_bins(kept_bins, deepest)
            local_table = GlobalClusterTable.from_points(
                codes, n_cells=partition.n_cells
            )

            # Union of occupied cells across ranks (tiny payload).
            tables = comm.gather((local_table.codes, local_table.sizes), root=0)
            if comm.rank == 0:
                merged = local_table
                for peer_codes, peer_sizes in tables[1:]:
                    merged = merged.merge(GlobalClusterTable(peer_codes, peer_sizes))
                payload = (merged.codes, merged.sizes)
            else:
                payload = None
            g_codes, g_sizes = comm.bcast(payload, root=0)
            table = GlobalClusterTable(g_codes, g_sizes)

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
                    n_points_fit=m_global,
                    meta={"trial": trial, "consolidation": consolidation,
                          "ranks": comm.size},
                ),
                "codes": codes,
                "score": score,
                "n_clusters": table.n_clusters,
            }
            if candidate["n_clusters"] >= 2:
                if best is None or candidate["score"] > best["score"]:
                    best = candidate
            elif fallback is None:
                fallback = candidate

    chosen = best if best is not None else fallback
    assert chosen is not None
    # Only the winning candidate labels the local points.
    model = chosen["model"]
    return model.table.lookup(chosen["codes"]), model


class DistributedFitResult:
    """Outcome of :func:`fit_distributed`.

    Attributes
    ----------
    labels:
        Per-rank label arrays, in rank order (concatenate for the global
        assignment if shards were contiguous splits).
    model:
        The fitted :class:`~repro.core.model.KeyBin2Model` (identical on
        all ranks; rank 0's copy).
    traffic:
        Per-rank traffic snapshots (messages/bytes sent and received).
    """

    def __init__(self, labels: List[np.ndarray], model: KeyBin2Model,
                 traffic: List[Dict[str, int]]):
        self.labels = labels
        self.model = model
        self.traffic = traffic

    @property
    def n_clusters(self) -> int:
        return self.model.n_clusters

    def concatenated_labels(self) -> np.ndarray:
        return np.concatenate(self.labels)


def _spmd_entry(comm: Communicator, shards: List[np.ndarray], params: Dict[str, Any]):
    labels, model = keybin2_spmd(comm, shards[comm.rank], **params)
    return labels, model.to_dict(), comm.traffic.snapshot()


def fit_distributed(
    shards: Sequence[np.ndarray],
    executor: str = "thread",
    timeout: Optional[float] = 600.0,
    **params: Any,
) -> DistributedFitResult:
    """Fit KeyBin2 over pre-sharded data, one rank per shard.

    Convenience front-end for tests and benchmarks; real deployments call
    :func:`keybin2_spmd` directly from their own SPMD program (e.g. under
    ``mpiexec``).
    """
    shards = [np.asarray(s) for s in shards]
    if not shards:
        raise ValidationError("need at least one shard")
    results = run_spmd(
        _spmd_entry, len(shards), executor=executor,
        args=(list(shards), params), timeout=timeout,
    )
    labels = [r[0] for r in results]
    model = KeyBin2Model.from_dict(results[0][1])
    traffic = [r[2] for r in results]
    return DistributedFitResult(labels, model, traffic)
