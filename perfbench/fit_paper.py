"""``fit-paper``: paper §4 batch clustering through ``KeyBin2.fit``.

Each run fits the same seeded Gaussian mixture again and again with the
library defaults, and after every fit labels held-out rows with
``KeyBin2Model.predict``. The batch core and the reference kernel chain
do the work; the fused kernels, streaming state, in-situ driver, comm and
serving layers stay idle.

Traced runs wrap the functions ``repro.core.estimator`` and
``KeyBin2Model`` call, from outside, and alternate traced with untraced
fits so the tracing overhead is measured on the same data.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from perfbench.common import (
    LayerClock,
    Result,
    check,
    layer_table,
    median,
    patched,
    repeated_setup,
    self_peak_rss_mb,
)


@dataclass(frozen=True)
class Size:
    n_fit: int = 200_000
    n_holdout: int = 20_000
    n_dims: int = 64
    n_clusters: int = 8
    #: ``model.predict(holdout)`` calls timed together as one block.
    predict_calls: int = 5
    #: Predict blocks after each fit.
    predict_blocks: int = 3
    setups: int = 3
    ari_floor: float = 0.8


FULL = Size()

#: Estimator-module names charged to each fit layer. Everything else a fit
#: does (projection matrices, candidate bookkeeping) is ``fit.other_s``.
_ESTIMATOR_FUNCS = {
    "project_points": "fit.project_s",
    "bin_indices": "fit.bin_s",
    "prefix_bins": "fit.bin_s",
    "accumulate_histogram": "fit.histogram_s",
    "collapse_dimensions": "fit.collapse_s",
    "find_cuts": "fit.cuts_s",
    "histogram_ch_index": "fit.score_s",
}

FIT_LAYERS = (
    "fit.project_s", "fit.range_s", "fit.bin_s", "fit.histogram_s",
    "fit.collapse_s", "fit.cuts_s", "fit.label_s", "fit.score_s",
)

#: Per-layer metrics this workload measures; the end-to-end ones are
#: ``common.END_TO_END``: ``latency_ms`` is one fit, ``rows_per_s`` is
#: held-out predict throughput and ``quality`` the fit's ARI.
PER_LAYER = FIT_LAYERS + (
    "fit.other_s", "fit.candidates", "fit.rows_labeled", "fit.gemm_bytes",
    "predict.codes_s", "predict.lookup_s", "trace.overhead_pct",
)


def _make_inputs(seed: int, size: Size):
    from repro.data import gaussian_mixture

    x, y = gaussian_mixture(
        n_points=size.n_fit + size.n_holdout, n_dims=size.n_dims,
        n_clusters=size.n_clusters, seed=seed,
    )
    return (x[: size.n_fit], y[: size.n_fit],
            np.ascontiguousarray(x[size.n_fit:]), y[size.n_fit:])


def _fit(x, seed):
    from repro import KeyBin2

    return KeyBin2(seed=seed).fit(x)


def _predict_block(model, x_hold, calls: int):
    t0 = time.perf_counter()
    for _ in range(calls):
        labels = model.predict(x_hold)
    return time.perf_counter() - t0, labels


class _FitTracer:
    """Patches that charge a fit's time to the layers it passes through."""

    def __init__(self) -> None:
        self.clock = LayerClock()
        self.rows_labeled = 0
        self.gemm_bytes = 0
        self.candidates = 0

    def _count_rows(self, partition, bins):
        self.rows_labeled += int(bins.shape[0])

    def _count_candidate(self, *args, **kwargs):
        self.candidates += 1

    def _count_gemm(self, x, matrix, *args, **kwargs):
        m, n = x.shape
        k = matrix.shape[1]
        self.gemm_bytes += 8 * (m * n + n * k + m * k)

    def fit_patches(self):
        from repro.core import estimator
        from repro.core.binning import SpaceRange
        from repro.core.primary import GlobalClusterTable, PrimaryPartition

        wrap = self.clock.wrap
        patches = []
        for func, layer in _ESTIMATOR_FUNCS.items():
            hook = {"project_points": self._count_gemm,
                    "histogram_ch_index": self._count_candidate}.get(func)
            patches.append(
                (estimator, func, wrap(layer, getattr(estimator, func), hook))
            )
        from_data = SpaceRange.__dict__["from_data"].__func__
        patches.append((SpaceRange, "from_data",
                        classmethod(wrap("fit.range_s", from_data))))
        from_points = GlobalClusterTable.__dict__["from_points"].__func__
        patches += [
            (PrimaryPartition, "intervals_for",
             wrap("fit.label_s", PrimaryPartition.intervals_for,
                  self._count_rows)),
            (PrimaryPartition, "cell_codes",
             wrap("fit.label_s", PrimaryPartition.cell_codes)),
            (GlobalClusterTable, "from_points",
             classmethod(wrap("fit.label_s", from_points))),
            (GlobalClusterTable, "lookup",
             wrap("fit.label_s", GlobalClusterTable.lookup)),
            (PrimaryPartition, "decode_cells",
             wrap("fit.score_s", PrimaryPartition.decode_cells)),
        ]
        return patched(patches)

    def predict_patches(self):
        from repro.core.model import KeyBin2Model
        from repro.core.primary import GlobalClusterTable

        wrap = self.clock.wrap
        return patched([
            (KeyBin2Model, "cell_codes_for",
             wrap("predict.codes_s", KeyBin2Model.cell_codes_for)),
            (GlobalClusterTable, "lookup",
             wrap("predict.lookup_s", GlobalClusterTable.lookup)),
        ])


def run(seed: int, seconds: float, trace: bool, size: Size = FULL) -> Result:
    from repro.metrics.external import adjusted_rand_index

    def setup():
        x_fit, y_fit, x_hold, y_hold = _make_inputs(seed, size)
        # The first fit and predict in a process run cold (page faults,
        # BLAS start-up); that cost is set-up, not steady state.
        model = _fit(x_fit, seed).model_
        _predict_block(model, x_hold, 1)
        return x_fit, y_fit, x_hold, y_hold

    (x_fit, y_fit, x_hold, y_hold), setup_s = repeated_setup(setup, size.setups)

    attempted = failed = 0
    fit_s: List[float] = []
    traced_fit_s: List[float] = []
    block_s: List[float] = []
    layer_runs: List[Dict[str, float]] = []
    predict_runs: List[Dict[str, float]] = []
    counts: List[Dict[str, int]] = []
    prints = set()
    kb = holdout_labels = None

    deadline = time.perf_counter() + seconds
    i = 0
    while i < 2 or time.perf_counter() < deadline:
        # Traced runs alternate traced and untraced iterations.
        traced = trace and i % 2 == 1
        i += 1
        tracer = _FitTracer()
        attempted += 1
        try:
            t0 = time.perf_counter()
            if traced:
                with tracer.fit_patches():
                    kb = _fit(x_fit, seed)
            else:
                kb = _fit(x_fit, seed)
            elapsed = time.perf_counter() - t0
        except Exception:
            traceback.print_exc()
            failed += 1
            continue
        (traced_fit_s if traced else fit_s).append(elapsed)
        prints.add(kb.model_.fingerprint())
        if traced:
            layers = dict(tracer.clock.self_s)
            layers["fit.other_s"] = elapsed - tracer.clock.total_s()
            layer_runs.append(layers)
            counts.append({
                "fit.candidates": tracer.candidates,
                "fit.rows_labeled": tracer.rows_labeled,
                "fit.gemm_bytes": tracer.gemm_bytes,
            })
        for _ in range(size.predict_blocks):
            attempted += 1
            ptracer = _FitTracer()
            try:
                if traced:
                    with ptracer.predict_patches():
                        elapsed, holdout_labels = _predict_block(
                            kb.model_, x_hold, size.predict_calls)
                    predict_runs.append({
                        k: v / size.predict_calls
                        for k, v in ptracer.clock.self_s.items()
                    })
                else:
                    elapsed, holdout_labels = _predict_block(
                        kb.model_, x_hold, size.predict_calls)
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            if not traced:
                block_s.append(elapsed)

    # -- output checks --------------------------------------------------------
    check(kb is not None, "no fit completed")
    check(len(prints) == 1,
          f"fits of the same data and seed gave {len(prints)} models")
    check(kb.labels_.shape == (size.n_fit,),
          f"fit returned {kb.labels_.shape} labels for {size.n_fit} rows")
    ari = float(adjusted_rand_index(y_fit, kb.labels_))
    check(ari >= size.ari_floor, f"fit ARI {ari:.4f} below {size.ari_floor}")
    check(holdout_labels is not None and holdout_labels.shape == (size.n_holdout,),
          "predict returned the wrong number of labels")
    relabel = kb.model_.predict(x_fit)
    agree = float(np.mean(relabel == kb.labels_))
    check(agree >= 0.999,
          f"predict on the training rows agrees with fit labels on "
          f"{agree:.4%} of rows")
    held_ari = float(adjusted_rand_index(y_hold, holdout_labels))
    check(held_ari >= size.ari_floor,
          f"held-out ARI {held_ari:.4f} below {size.ari_floor}")

    rows_per_block = size.n_holdout * size.predict_calls
    report = [
        f"fit-paper: {size.n_fit}x{size.n_dims}, {size.n_clusters} clusters; "
        f"{len(fit_s)} untraced fits, median {median(fit_s):.4f} s; "
        f"{kb.n_clusters_} clusters found, ARI {ari:.4f}, "
        f"held-out ARI {held_ari:.4f}",
    ]
    if not trace:
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": self_peak_rss_mb(),
            "latency_ms": 1e3 * median(fit_s),
            "rows_per_s": median(rows_per_block / b for b in block_s),
            "quality": ari,
        }
        return Result(failed == 0, attempted, failed, metrics, report)

    metrics: Dict[str, float] = {}
    for name in FIT_LAYERS + ("fit.other_s",):
        metrics[name] = float(np.mean([r.get(name, 0.0) for r in layer_runs]))
    for name in ("predict.codes_s", "predict.lookup_s"):
        metrics[name] = float(np.mean([r.get(name, 0.0) for r in predict_runs]))
    for name in ("fit.candidates", "fit.rows_labeled", "fit.gemm_bytes"):
        values = {c[name] for c in counts}
        check(len(values) == 1, f"{name} differs between identical fits")
        metrics[name] = float(values.pop())
    traced_mean = float(np.mean(traced_fit_s))
    untraced = median(fit_s)
    metrics["trace.overhead_pct"] = 100.0 * (median(traced_fit_s) - untraced) / untraced
    layer_sum = sum(metrics[n] for n in FIT_LAYERS + ("fit.other_s",))
    report += layer_table(
        "fit (seconds per fit, self times)",
        [(n, metrics[n]) for n in FIT_LAYERS + ("fit.other_s",)],
        layer_sum, traced_mean, "traced fit wall time",
    )
    report.append(
        f"  predict per {size.n_holdout}-row call: codes "
        f"{metrics['predict.codes_s'] * 1e3:.3f} ms, lookup "
        f"{metrics['predict.lookup_s'] * 1e3:.3f} ms"
    )
    return Result(failed == 0, attempted, failed, metrics, report)

