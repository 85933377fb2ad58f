"""Shared pieces of the benchmark: results, statistics, layer clocks, host facts.

Nothing here imports :mod:`repro`; the workload modules do, after
``run.py`` has put the checkout's ``src/`` on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import platform
import resource
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Unit of every metric the benchmark can emit. ``BENCHMARK.json`` lists
#: the same names; the self-tests keep the two in step.
UNITS: Dict[str, str] = {
    # end-to-end, every workload (what each means on each workload is in
    # README.md)
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_ms": "ms",
    "rows_per_s": "rows/s",
    "quality": "score",
    # per-layer, every workload
    "trace.overhead_pct": "%",
    # per-layer, fit-paper
    "fit.project_s": "s",
    "fit.range_s": "s",
    "fit.bin_s": "s",
    "fit.histogram_s": "s",
    "fit.collapse_s": "s",
    "fit.cuts_s": "s",
    "fit.label_s": "s",
    "fit.score_s": "s",
    "fit.other_s": "s",
    "fit.candidates": "count",
    "fit.rows_labeled": "count",
    "fit.gemm_bytes": "bytes",
    "predict.codes_s": "s",
    "predict.lookup_s": "s",
    # per-layer, insitu-md
    "stream.partial_fit_s": "s",
    "stream.project_s": "s",
    "stream.bin_s": "s",
    "stream.histogram_s": "s",
    "stream.keys_s": "s",
    "stream.refresh_s": "s",
    "stream.label_s": "s",
    "stream.evictions": "count",
    "stream.oor_rows": "count",
    "consolidate_s": "s",
    "consolidate.hist_allreduce_s": "s",
    "consolidate.keys_allgather_s": "s",
    "consolidate.rounds": "count",
    "consolidate.hist_bytes_per_round": "bytes",
    "consolidate.keys_bytes_per_round": "bytes",
    "comm.bytes_sent": "bytes",
    "comm.messages": "count",
    "insitu.encode_s": "s",
    "insitu.fingerprint_s": "s",
    "insitu.other_s": "s",
    # per-layer, serve-fleet
    "loadgen.lag_ms": "ms",
    "client.self_ms": "ms",
    "router.route_ms": "ms",
    "router.forward_ms": "ms",
    "router.spills": "count",
    "router.replica_skew": "ratio",
    "server.handle_ms": "ms",
    "server.admission_ms": "ms",
    "server.queue_ms": "ms",
    "server.model_ms": "ms",
    "bulk.model_ms": "ms",
    "server.cache_ms": "ms",
    "server.shed": "count",
    "batcher.mean_batch": "rows",
    "batcher.batches": "count",
    "cache.hit_share": "ratio",
    "light.p50_ms": "ms",
    "heavy.p50_ms": "ms",
    "light.p90_ms": "ms",
    "heavy.p90_ms": "ms",
    "bulk_rows_per_s": "rows/s",
    "capacity_rps": "req/s",
}

#: Every workload emits these, untraced.
END_TO_END: Tuple[str, ...] = (
    "setup_s", "peak_rss_mb", "latency_ms", "rows_per_s", "quality",
)
#: Every traced run emits these. Each workload measures the layers of its
#: own path; a layer of another workload's path is not run, and reads 0.
PER_LAYER: Tuple[str, ...] = tuple(n for n in UNITS if n not in END_TO_END)


class CheckFailed(Exception):
    """An output of the program under test is wrong."""


def check(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` unless ``condition`` holds."""
    if not condition:
        raise CheckFailed(message)


@dataclass
class Result:
    """What one workload run reports back to ``run.py``."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    report: List[str] = field(default_factory=list)

    def payload(self, trace: bool) -> dict:
        """The result line: every end-to-end metric untraced, every
        per-layer metric traced (0 for a layer this workload does not run).
        """
        names = PER_LAYER if trace else END_TO_END
        stray = set(self.metrics) - set(names)
        if stray:
            raise ValueError(f"metrics outside the manifest: {sorted(stray)}")
        if not trace and set(self.metrics) != set(names):
            raise ValueError("end-to-end metrics not measured: "
                             f"{sorted(set(names) - set(self.metrics))}")
        return {
            "correct": bool(self.correct),
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {
                name: {"value": float(self.metrics.get(name, 0.0)),
                       "unit": UNITS[name]}
                for name in names
            },
        }


# -- statistics ----------------------------------------------------------------


def median(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else float("nan")


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] of ``values`` (inf allowed)."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


# -- set-up ---------------------------------------------------------------------


def repeated_setup(setup: Callable[[], object], times: int,
                   teardown: Optional[Callable[[object], None]] = None
                   ) -> Tuple[object, float]:
    """Run ``setup`` ``times`` times; keep the last state, report the median.

    Every earlier state is handed to ``teardown`` (when given) before the
    next set-up starts, so only one set of resources is alive at a time.
    """
    durations = []
    state = None
    for _ in range(times):
        if state is not None and teardown is not None:
            teardown(state)
        t0 = time.perf_counter()
        state = setup()
        durations.append(time.perf_counter() - t0)
    return state, median(durations)


# -- layer clocks ---------------------------------------------------------------


class LayerClock:
    """Self time of wrapped functions, summed over the threads that call them.

    ``wrap(name, fn)`` returns a function that times each call of ``fn``
    and charges it to ``name`` minus the time of any wrapped call nested
    inside it on the same thread, so the self times of all names sum to
    the time spent in the outermost wrapped calls.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name: str, fn: Callable,
             on_call: Optional[Callable[..., None]] = None) -> Callable:
        def timed(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            stack = self._stack()
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                nested = stack.pop()
                with self._lock:
                    self.self_s[name] += elapsed - nested
                if stack:
                    stack[-1] += elapsed

        return timed

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def total_s(self) -> float:
        return float(sum(self.self_s.values()))


@contextlib.contextmanager
def patched(patches: List[Tuple[object, str, object]]):
    """Set ``obj.attr = value`` for each patch; restore the originals on exit."""
    saved = [(obj, attr, obj.__dict__[attr]) for obj, attr, _ in patches]
    try:
        for obj, attr, value in patches:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


# -- host facts and memory ------------------------------------------------------


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def descendants(pid: int) -> List[int]:
    """Process ids of every descendant of ``pid`` (Linux ``/proc``)."""
    found, todo = [], [pid]
    while todo:
        current = todo.pop()
        try:
            for tid in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{tid}/children") as fh:
                    kids = [int(c) for c in fh.read().split()]
                found += kids
                todo += kids
        except OSError:
            continue
    return found


def process_tree_peak_rss_mb(pid: int) -> float:
    """Summed peak resident memory (VmHWM) of ``pid`` and its descendants."""
    total_kib = 0
    for current in [pid] + descendants(pid):
        try:
            with open(f"/proc/{current}/status") as fh:
                total_kib += next(int(line.split()[1]) for line in fh
                                  if line.startswith("VmHWM:"))
        except (OSError, StopIteration):
            continue
    return total_kib / 1024.0


def _blas_threads() -> str:
    """Thread count of the OpenBLAS that numpy loaded, or ``"unknown"``."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return "unknown"
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return str(fn())
    return "unknown"


def host_fingerprint() -> Dict[str, object]:
    """Cores, Python, numpy, BLAS and its thread count."""
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # numpy builds differ in what show_config returns
        pass
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
    }


def layer_table(title: str, rows: List[Tuple[str, float]], layer_sum: float,
                end_to_end: float, what: str) -> List[str]:
    """Per-layer lines plus the sum-versus-end-to-end check."""
    lines = [f"  {title}:"]
    for name, value in rows:
        share = 100.0 * value / end_to_end if end_to_end else 0.0
        lines.append(f"    {name:<34} {value:>12.6f}  {share:6.2f}%")
    gap = 100.0 * (layer_sum - end_to_end) / end_to_end if end_to_end else 0.0
    lines.append(f"    {'sum of layers':<34} {layer_sum:>12.6f}  "
                 f"vs {what} {end_to_end:.6f} ({gap:+.3f}%)")
    return lines
