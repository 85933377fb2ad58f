"""``insitu-md``: paper §5 in-situ analysis through ``run_distributed_insitu``.

Two thread-executor ranks each stream their own synthetic MD trajectory
(``TrajectorySimulator`` with shared ``phase_targets``) through
``partial_fit`` in chunks of 250 frames, consolidate every 4 chunks, then
``refresh`` and label their frames. The fused kernels, the streaming
``KeyCounter``, the in-situ driver and comm carry the load; the batch
estimator and the serving layers are bypassed.

A run cycles through a pool of trajectory pairs drawn from the seed, so
its figures average over several independent simulations instead of
depending on one. Untraced passes run with the metrics registry
disabled; traced passes install a fresh registry and read back the
``phase_seconds_total`` spans and consolidation counters the program
already records.
"""

from __future__ import annotations

import contextlib
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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
    n_ranks: int = 2
    n_frames: int = 10_000
    n_residues: int = 24
    n_phases: int = 4
    #: Trajectory pairs per run; one pass labels each pair once.
    pool: int = 12
    chunk_size: int = 250
    consolidate_every: int = 4
    setups: int = 3
    nmi_floor: float = 0.3


FULL = Size()

KEYBIN = {"feature_range": (0.0, 6.0), "candidate_depths": (5, 6, 7, 8)}

#: Span path below ``insitu/rank<r>/`` → metric. A span that is not listed
#: is charged to its nearest listed ancestor; time outside every span is
#: ``insitu.other_s``.
SPAN_METRICS = {
    "partial_fit": "stream.partial_fit_s",
    "partial_fit/project": "stream.project_s",
    "partial_fit/bin": "stream.bin_s",
    "partial_fit/histogram": "stream.histogram_s",
    "partial_fit/keys": "stream.keys_s",
    "refresh": "stream.refresh_s",
    "label_frames": "stream.label_s",
    "consolidate": "consolidate_s",
    "consolidate/hist_allreduce": "consolidate.hist_allreduce_s",
    "consolidate/keys_allgather": "consolidate.keys_allgather_s",
}

#: Functions the in-situ driver calls outside every span → metric.
DRIVER_FUNCS = {
    "encode_frames": "insitu.encode_s",
    "window_fingerprints": "insitu.fingerprint_s",
    "fingerprint_change_points": "insitu.fingerprint_s",
    "normalized_mutual_info": "insitu.fingerprint_s",
}

TIME_LAYERS = (tuple(dict.fromkeys(SPAN_METRICS.values()))
               + ("insitu.encode_s", "insitu.fingerprint_s", "insitu.other_s"))

#: Per-layer metrics this workload measures; the end-to-end ones are
#: ``common.END_TO_END``: ``latency_ms`` is one ``run_distributed_insitu``
#: call over a trajectory pair, ``rows_per_s`` frames per second across
#: ranks and ``quality`` the phase NMI.
PER_LAYER = TIME_LAYERS + (
    "stream.evictions", "stream.oor_rows", "consolidate.rounds",
    "consolidate.hist_bytes_per_round", "consolidate.keys_bytes_per_round",
    "comm.bytes_sent", "comm.messages", "trace.overhead_pct",
)


def _simulate_pool(seed: int, size: Size):
    from repro.proteins.trajectory import TrajectorySimulator

    pool = []
    for k in range(size.pool):
        base = 1_000_000 * (seed + 1) + 100 * k
        targets = TrajectorySimulator(
            size.n_residues, size.n_frames, size.n_phases, seed=base
        ).simulate().phase_targets
        pool.append([
            TrajectorySimulator(
                size.n_residues, size.n_frames, size.n_phases,
                phase_targets=targets, seed=base + 1 + r,
            ).simulate(name=f"set{k}-rank{r}")
            for r in range(size.n_ranks)
        ])
    return pool


class _Capture:
    """Records every ``StreamingKeyBin2`` the in-situ driver builds."""

    def __init__(self) -> None:
        self.instances: list = []

    def patch(self):
        from repro.insitu import distributed

        base = distributed.StreamingKeyBin2
        instances = self.instances

        class Recorded(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                instances.append(self)

        return patched([(distributed, "StreamingKeyBin2", Recorded)])


def _driver_patches(clock: LayerClock):
    from repro.insitu import distributed

    return patched([(distributed, func, clock.wrap(name, getattr(distributed, func)))
                    for func, name in DRIVER_FUNCS.items()])


def _run_once(trajs, seed: int, size: Size, clock: Optional[LayerClock] = None):
    from repro.insitu.distributed import run_distributed_insitu

    capture = _Capture()
    with capture.patch(), (_driver_patches(clock) if clock is not None
                           else contextlib.nullcontext()):
        t0 = time.perf_counter()
        results = run_distributed_insitu(
            trajs, chunk_size=size.chunk_size,
            consolidate_every=size.consolidate_every, seed=seed,
            executor="thread", **KEYBIN,
        )
        elapsed = time.perf_counter() - t0
    return elapsed, results, capture.instances


def _check_run(trajs, results, states, size: Size) -> float:
    """Output checks of one run; returns its mean phase NMI."""
    total = sum(t.n_frames for t in trajs)
    check(len(results) == size.n_ranks and len(states) == size.n_ranks,
          f"expected {size.n_ranks} rank results")
    prints = {skb.model_.fingerprint() for skb in states}
    check(len(prints) == 1, f"ranks ended on {len(prints)} different models")
    for skb in states:
        check(skb.n_seen_ == total,
              f"a rank saw {skb.n_seen_} frames, {total} were ingested")
        for st in skb._states:
            for d in st.depths:
                mass = st.hist[d].sum(axis=-1)
                check(bool(np.all(mass == total)),
                      f"histogram mass {mass.min()}..{mass.max()} at depth "
                      f"{d} != {total} frames ingested")
    for res, traj in zip(results, trajs):
        check(res.labels.shape == (traj.n_frames,),
              "a rank labelled the wrong number of frames")
    return float(np.mean([res.phase_nmi for res in results]))


def _span_self_times(reg) -> Dict[str, float]:
    """Seconds per metric, summed over ranks, from ``phase_seconds_total``."""
    fam = reg.get("phase_seconds_total")
    totals: Dict[Tuple[str, ...], float] = {}
    for sample in fam.snapshot()["samples"] if fam is not None else []:
        path = tuple(sample["labels"]["phase"].split("/"))
        if len(path) > 2 and path[0] == "insitu":
            totals[path] = totals.get(path, 0.0) + float(sample["value"])
    out: Dict[str, float] = {}
    for path, seconds in totals.items():
        children = sum(
            v for p, v in totals.items()
            if len(p) == len(path) + 1 and p[: len(path)] == path
        )
        rel = path[2:]
        while rel and "/".join(rel) not in SPAN_METRICS:
            rel = rel[:-1]
        name = SPAN_METRICS["/".join(rel)] if rel else "insitu.other_s"
        out[name] = out.get(name, 0.0) + seconds - children
    return out


def _counter_sum(reg, name: str, **match) -> float:
    fam = reg.get(name)
    if fam is None:
        return 0.0
    return float(sum(
        s["value"] for s in fam.snapshot()["samples"]
        if all(s["labels"].get(k) == v for k, v in match.items())
    ))


def run(seed: int, seconds: float, trace: bool, size: Size = FULL) -> Result:
    from repro.obs import MetricsRegistry, set_default_registry

    quiet = MetricsRegistry(enabled=False)
    set_default_registry(quiet)

    def setup():
        pool = _simulate_pool(seed, size)
        # The first in-situ run of a process is slower (thread start-up,
        # first-touch allocations); it belongs to set-up.
        _run_once(pool[0], seed, size)
        return pool

    pool, setup_s = repeated_setup(setup, size.setups)
    frames_per_run = size.n_ranks * size.n_frames

    attempted = failed = 0
    pass_rates: List[float] = []
    traced_pass_s: List[float] = []
    untraced_pass_s: List[float] = []
    untraced_run_s: List[float] = []
    nmi: Dict[int, float] = {}
    traced_reg = MetricsRegistry()
    driver_clock = LayerClock()
    traffic = {"bytes_sent": 0, "messages_sent": 0}
    traced_runs = 0

    deadline = time.perf_counter() + seconds
    n_pass = 0
    while n_pass < 2 or time.perf_counter() < deadline:
        traced = trace and n_pass % 2 == 1
        n_pass += 1
        set_default_registry(traced_reg if traced else quiet)
        pass_s = 0.0
        completed = 0
        for k, trajs in enumerate(pool):
            attempted += 1
            try:
                elapsed, results, states = _run_once(
                    trajs, seed, size, driver_clock if traced else None)
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            pass_s += elapsed
            completed += 1
            if not traced:
                untraced_run_s.append(elapsed)
            nmi[k] = _check_run(trajs, results, states, size)
            if traced:
                traced_runs += 1
                for res in results:
                    traffic["bytes_sent"] += res.traffic["bytes_sent"]
                    traffic["messages_sent"] += res.traffic["messages_sent"]
        set_default_registry(quiet)
        if traced:
            traced_pass_s.append(pass_s)
        else:
            untraced_pass_s.append(pass_s)
            pass_rates.append(frames_per_run * completed / pass_s)

    check(len(nmi) == len(pool), "some trajectory pairs never completed")
    phase_nmi = float(np.mean(list(nmi.values())))
    check(phase_nmi >= size.nmi_floor,
          f"phase NMI {phase_nmi:.4f} below {size.nmi_floor}")
    report = [
        f"insitu-md: {size.n_ranks} ranks x {size.n_frames} frames x "
        f"{size.pool} trajectory pairs; {len(pass_rates)} untraced passes, "
        f"median {median(pass_rates):,.0f} frames/s; phase NMI {phase_nmi:.4f}",
    ]
    if not trace:
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": self_peak_rss_mb(),
            "latency_ms": 1e3 * median(untraced_run_s),
            "rows_per_s": median(pass_rates),
            "quality": phase_nmi,
        }
        return Result(failed == 0, attempted, failed, metrics, report)

    # Per-layer seconds per run and rank; counts per run (all ranks).
    per_rank_run = traced_runs * size.n_ranks
    layers = _span_self_times(traced_reg)
    layers.update(driver_clock.self_s)
    traced_run_s = sum(traced_pass_s) / traced_runs
    spans = {name: layers.get(name, 0.0) / per_rank_run for name in TIME_LAYERS}
    spans["insitu.other_s"] = traced_run_s - (
        sum(spans.values()) - spans["insitu.other_s"]
    )
    metrics = dict(spans)
    rounds = _counter_sum(traced_reg, "insitu_consolidation_rounds_total", rank="0")
    metrics["consolidate.rounds"] = rounds / traced_runs
    for kind in ("hist", "keys"):
        metrics[f"consolidate.{kind}_bytes_per_round"] = _counter_sum(
            traced_reg, "insitu_consolidation_bytes_total", kind=kind, rank="0"
        ) / rounds
    metrics["stream.evictions"] = _counter_sum(
        traced_reg, "insitu_consolidation_evictions_total") / traced_runs
    metrics["stream.oor_rows"] = _counter_sum(
        traced_reg, "stream_out_of_range_total") / traced_runs
    metrics["comm.bytes_sent"] = traffic["bytes_sent"] / traced_runs
    metrics["comm.messages"] = traffic["messages_sent"] / traced_runs
    untraced = median(untraced_pass_s)
    metrics["trace.overhead_pct"] = (
        100.0 * (median(traced_pass_s) - untraced) / untraced
    )
    report += layer_table(
        "in-situ (seconds per run and rank, self times)",
        [(n, spans[n]) for n in TIME_LAYERS], sum(spans.values()),
        traced_run_s, "traced run wall time",
    )
    return Result(failed == 0, attempted, failed, metrics, report)
