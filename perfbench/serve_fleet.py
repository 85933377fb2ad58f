"""``serve-fleet``: one predict request through ``python -m repro fleet``.

Set-up fits a 16-feature model, saves it, and starts the fleet (router
plus 2 replica processes) on an ephemeral port. A load generator in this
process then drives the request path client → router → replica →
admission → batcher → model → reply over 2 TCP connections, in rounds:

* ``light`` and ``heavy``: single-row predicts of held-out mixture rows
  (hot cells), sent open-loop at two fixed rates well below the knee.
  Each request is timed from the moment it was *due*, so a stall also
  shows on the requests queued behind it.
* ``bulk``: a fixed list of multi-row predicts of 16, 64 and 256 rows
  drawn uniformly over the fitted range (cold cells), sent closed-loop and
  timed as a phase. A 256-row line is ~85 KB, above asyncio's default
  64 KiB line limit in the router, which drops the connection without a
  reply; the generator counts that request as failed, reconnects and goes
  on. So a third of the bulk requests fail, as many in every run.

Every reply is checked against offline ``KeyBin2Model.predict`` of the
same rows, and every reply must carry the one fingerprint of the fitted
model. Traced runs start a second fleet with ``--trace-out``, root every
request in a client span, and read per-hop self times back from the span
files, plus batch, cache and shed counts from each replica's ``stats``.
"""

from __future__ import annotations

import asyncio
import gc
import glob
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench.common import (
    Result,
    check,
    descendants,
    layer_table,
    median,
    percentile,
    process_tree_peak_rss_mb,
    repeated_setup,
)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


@dataclass(frozen=True)
class Size:
    n_train: int = 20_000
    n_holdout: int = 2_000
    n_dims: int = 16
    n_clusters: int = 4
    replicas: int = 2
    connections: int = 2
    light_rps: float = 100.0
    heavy_rps: float = 200.0
    light_s: float = 1.2
    heavy_s: float = 1.0
    #: Bulk requests per round, sent in order from the pool; ``bulk_s`` is
    #: their expected time, used only to plan the number of rounds.
    bulk_requests: int = 480
    bulk_s: float = 0.7
    bulk_rows: Tuple[int, ...] = (16, 64, 256)
    bulk_pool: int = 48
    warmup_requests: int = 200
    setups: int = 3
    request_timeout_s: float = 10.0
    #: capacity_rps: bisection steps, probe length and the p90 limit.
    capacity_steps: int = 5
    capacity_probe_s: float = 1.5
    capacity_limit_ms: float = 25.0
    capacity_range: Tuple[float, float] = (200.0, 1000.0)

    @property
    def round_s(self) -> float:
        return self.light_s + self.heavy_s + self.bulk_s


FULL = Size()

#: Request-trace hop → per-layer metric (self time, ms per request).
HOP_METRICS = {
    "client/predict": "client.self_ms",
    "router/route": "router.route_ms",
    "router/forward": "router.forward_ms",
    "server/predict": "server.handle_ms",
    "server/admission": "server.admission_ms",
    "server/queue": "server.queue_ms",
    "server/model_call": "server.model_ms",
    "server/cache_hit": "server.cache_ms",
}

#: asyncio's default line limit, which the router and the replicas read
#: request lines with: a longer line loses its connection, unanswered.
LINE_LIMIT = 64 * 1024

HOP_LAYERS = ("loadgen.lag_ms",) + tuple(HOP_METRICS.values())

#: The end-to-end metrics are ``common.END_TO_END``: ``latency_ms`` is the
#: median single-row latency (light and heavy together), ``rows_per_s`` the
#: rows per second of a typical answered bulk request (see
#: :func:`bulk_request_rows_per_s`) and ``quality`` the ARI of the
#: served single-row labels against the mixture's components. The traced
#: mode splits them by request class, on its untraced half; the p90s and
#: ``capacity_rps`` move by more than any usable bound between runs of the
#: same code on a shared 2-core host, so they are only diagnostics.
DIAGNOSTICS = ("light.p50_ms", "heavy.p50_ms", "light.p90_ms", "heavy.p90_ms",
               "bulk_rows_per_s", "capacity_rps")
PER_LAYER = HOP_LAYERS + (
    "bulk.model_ms", "batcher.batches", "batcher.mean_batch",
    "cache.hit_share", "server.shed", "router.spills", "router.replica_skew",
) + DIAGNOSTICS + ("trace.overhead_pct",)


# -- inputs ----------------------------------------------------------------------


@dataclass
class Inputs:
    model: object
    model_path: str
    single_rows: np.ndarray
    single_labels: np.ndarray
    single_truth: np.ndarray
    bulk: List[np.ndarray]
    bulk_labels: List[np.ndarray]
    single_lines: List[bytes] = field(default_factory=list)
    bulk_lines: List[bytes] = field(default_factory=list)


def _line(rows) -> bytes:
    return json.dumps({"op": "predict", "x": rows}).encode() + b"\n"


def make_inputs(seed: int, size: Size, workdir: str) -> Inputs:
    from repro import KeyBin2
    from repro.data import gaussian_mixture

    x, y = gaussian_mixture(
        n_points=size.n_train + size.n_holdout, n_dims=size.n_dims,
        n_clusters=size.n_clusters, seed=seed,
    )
    train, hold = x[: size.n_train], x[size.n_train:]
    model = KeyBin2(seed=seed).fit(train).model_
    path = os.path.join(workdir, "model.json")
    model.save(path)
    rng = np.random.default_rng(seed)
    lo, hi = train.min(axis=0), train.max(axis=0)
    bulk = [
        rng.uniform(lo, hi, size=(size.bulk_rows[i % len(size.bulk_rows)],
                                  size.n_dims))
        for i in range(size.bulk_pool)
    ]
    inputs = Inputs(
        model=model, model_path=path,
        single_rows=hold, single_labels=model.predict(hold),
        single_truth=y[size.n_train:],
        bulk=bulk, bulk_labels=[model.predict(b) for b in bulk],
    )
    inputs.single_lines = [_line(r.tolist()) for r in hold]
    inputs.bulk_lines = [_line(b.tolist()) for b in bulk]
    return inputs


# -- the fleet process -----------------------------------------------------------


class Fleet:
    """One ``python -m repro fleet`` process tree, started and stopped.

    The fleet's output goes to a log file in ``workdir``: the router
    prints a traceback for every connection it drops, and a pipe would
    make this process read them while it measures.
    """

    def __init__(self, model_path: str, size: Size, seed: int, workdir: str,
                 trace_out: Optional[str] = None):
        cmd = [sys.executable, "-u", "-m", "repro", "fleet",
               "--model", model_path, "--replicas", str(size.replicas),
               "--port", "0", "--seed", str(seed)]
        if trace_out is not None:
            cmd += ["--trace-out", trace_out]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        log_fd, self.log_path = tempfile.mkstemp(
            prefix="fleet-", suffix=".log", dir=workdir)
        try:
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=log_fd, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        finally:
            os.close(log_fd)
        self.port = 0
        self.replicas: Dict[str, Tuple[str, int]] = {}
        self.descendants: List[int] = []
        deadline = time.monotonic() + 60.0
        while not self.port:
            line = next((l for l in self.output().splitlines()
                         if l.startswith("fleet router over")), None)
            if line is not None:
                # fleet router over 2 replicas (r0=h:p, r1=h:p) on h:p
                inner = line[line.index("(") + 1: line.index(")")]
                for item in inner.split(", "):
                    rid, hostport = item.split("=")
                    host, port = hostport.rsplit(":", 1)
                    self.replicas[rid] = (host, int(port))
                self.port = int(line.rsplit(":", 1)[1])
            elif self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("fleet did not start:\n" + self.output())
            else:
                time.sleep(0.02)
        self.descendants = descendants(self.proc.pid)

    def output(self) -> str:
        with open(self.log_path, errors="replace") as fh:
            return fh.read()

    def peak_rss_mb(self) -> float:
        return process_tree_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Shut the fleet down and wait until every process of it is gone."""
        if self.proc.poll() is None and self.port:
            try:
                _rpc("127.0.0.1", self.port, {"op": "shutdown"}, timeout=5.0)
            except OSError:
                pass
        try:
            self.proc.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait(timeout=15.0)
        for pid in self.descendants:
            _wait_gone(pid)


def _wait_gone(pid: int, timeout: float = 15.0) -> None:
    deadline = time.monotonic() + timeout
    while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                if fh.read().split(")")[-1].split()[0] == "Z":
                    return  # exited; its parent reaps it
        except OSError:
            return
        time.sleep(0.05)
    if os.path.exists(f"/proc/{pid}"):
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass


def _rpc(host: str, port: int, payload: dict, timeout: float = 10.0) -> dict:
    with socket.create_connection((host, port), timeout=timeout) as sock:
        with sock.makefile("rwb") as fh:
            fh.write(json.dumps(payload).encode() + b"\n")
            fh.flush()
            line = fh.readline()
    if not line:
        raise OSError("connection closed without a reply")
    return json.loads(line)


# -- load generation -------------------------------------------------------------


@dataclass
class Outcome:
    kind: str
    round: int
    index: int
    due: float
    sent: float
    done: float
    ok: bool
    oversize: bool = False
    labels: Optional[list] = None
    fingerprint: Optional[str] = None


class Connection:
    """One client TCP connection; a dropped one is reopened on next use."""

    def __init__(self, port: int, timeout: float):
        self.port = port
        self.timeout = timeout
        self.reader = None
        self.writer = None

    async def _open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port, limit=1 << 20
        )

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
        self.reader = self.writer = None

    async def call(self, line: bytes) -> Optional[dict]:
        """Send one request line; the parsed reply, or None if it was lost."""
        try:
            if self.writer is None:
                await self._open()
            self.writer.write(line)
            await self.writer.drain()
            reply = await asyncio.wait_for(self.reader.readline(), self.timeout)
        except (OSError, asyncio.TimeoutError):
            reply = b""
        if not reply.endswith(b"\n"):
            await self.close()
            return None
        return json.loads(reply)


class LoadGenerator:
    """Open- and closed-loop request phases over a fixed set of connections."""

    def __init__(self, port: int, inputs: Inputs, size: Size, seed: int,
                 traced: bool = False):
        self.inputs = inputs
        self.size = size
        self.traced = traced
        self.conns = [Connection(port, size.request_timeout_s)
                      for _ in range(size.connections)]
        self.rng = np.random.default_rng(seed + 7)
        self.outcomes: List[Outcome] = []
        self.bulk_next = 0
        self.round = 0

    async def _send(self, conn: Connection, kind: str, index: int,
                    due: float) -> Outcome:
        if kind == "bulk":
            rows = self.inputs.bulk[index]
            line = self.inputs.bulk_lines[index]
        else:
            rows = self.inputs.single_rows[index]
            line = self.inputs.single_lines[index]
        if not self.traced:
            sent = time.perf_counter()
            reply = await conn.call(line)
        else:
            from repro.obs.reqtrace import get_tracer, inject

            payload = {"op": "predict", "x": rows.tolist()}
            with get_tracer().root("client/predict", attrs={"kind": kind}) as span:
                inject(payload, span)
                line = json.dumps(payload).encode() + b"\n"
                sent = time.perf_counter()
                reply = await conn.call(line)
                if reply is None or not reply.get("ok"):
                    span.set_status("error")
        done = time.perf_counter()
        ok = reply is not None and bool(reply.get("ok"))
        outcome = Outcome(kind, self.round, index, due, sent, done, ok,
                          oversize=len(line) > LINE_LIMIT)
        if ok:
            outcome.labels = reply["labels"]
            outcome.fingerprint = reply["fingerprint"]
        self.outcomes.append(outcome)
        return outcome

    async def open_loop(self, kind: str, rate: float, seconds: float) -> None:
        n = max(1, int(rate * seconds))
        picks = self.rng.integers(len(self.inputs.single_rows), size=n)
        due_queue: asyncio.Queue = asyncio.Queue()

        async def worker(conn: Connection) -> None:
            while True:
                item = await due_queue.get()
                if item is None:
                    return
                await self._send(conn, kind, *item)

        workers = [asyncio.ensure_future(worker(c)) for c in self.conns]
        start = time.perf_counter() + 0.002
        for i in range(n):
            due = start + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            due_queue.put_nowait((int(picks[i]), due))
        for _ in workers:
            due_queue.put_nowait(None)
        await asyncio.gather(*workers)

    async def closed_loop(self, n: int) -> None:
        # One connection: with two, the router's load hints often send both
        # in-flight bulk requests to one replica, and throughput flips
        # between two levels from one routing poll to the next.
        conn = self.conns[0]
        for _ in range(n):
            index = self.bulk_next % len(self.inputs.bulk)
            self.bulk_next += 1
            await self._send(conn, "bulk", index, time.perf_counter())

    async def rounds(self, n_rounds: int) -> List[float]:
        """Light, heavy and bulk phases, ``n_rounds`` times.

        Returns the length of each round's bulk phase in seconds.
        """
        bulk_s = []
        for self.round in range(n_rounds):
            await self.open_loop("light", self.size.light_rps, self.size.light_s)
            await self.open_loop("heavy", self.size.heavy_rps, self.size.heavy_s)
            t0 = time.perf_counter()
            await self.closed_loop(self.size.bulk_requests)
            bulk_s.append(time.perf_counter() - t0)
        return bulk_s

    async def capacity(self) -> float:
        """Highest single-row rate whose p90 meets the limit, by bisection.

        A probe passes when its p90 (due-to-done, failures infinitely late)
        is under ``capacity_limit_ms`` and the last reply arrives within
        10% of the probe's length after the last request was due, i.e.
        completions kept pace with sends.
        """
        size = self.size
        lo, hi = size.capacity_range
        for self.round in range(size.capacity_steps):
            rate = (lo + hi) / 2.0
            first = len(self.outcomes)
            await self.open_loop("capacity", rate, size.capacity_probe_s)
            probe = self.outcomes[first:]
            lat = latency_ms(probe, "capacity")
            lag = max(o.done for o in probe) - max(o.due for o in probe)
            if (percentile(lat, 90) <= size.capacity_limit_ms
                    and lag <= 0.1 * size.capacity_probe_s):
                lo = rate
            else:
                hi = rate
        return lo

    async def close(self) -> None:
        for conn in self.conns:
            await conn.close()


def _drive(port: int, inputs: Inputs, size: Size, seed: int, n_rounds: int,
           traced: bool = False, capacity: bool = False
           ) -> Tuple[LoadGenerator, List[float], float]:
    """Run the rounds (then the capacity search); (generator, bulk s, rps)."""
    gen = LoadGenerator(port, inputs, size, seed, traced=traced)

    async def main():
        try:
            bulk_s = await gen.rounds(n_rounds)
            return bulk_s, (await gen.capacity()) if capacity else 0.0
        finally:
            await gen.close()

    # The generator's own garbage-collection pauses would show up as
    # latency of the system under test; collect once, then pause the GC.
    gc.collect()
    gc.disable()
    try:
        bulk_s, rps = asyncio.run(main())
    finally:
        gc.enable()
    return gen, bulk_s, rps


def _warm_up(port: int, inputs: Inputs, size: Size, seed: int) -> None:
    gen = LoadGenerator(port, inputs, size, seed)

    async def main() -> None:
        try:
            await gen.open_loop("light", size.heavy_rps,
                                size.warmup_requests / size.heavy_rps)
            await gen.closed_loop(len(inputs.bulk))
        finally:
            await gen.close()

    asyncio.run(main())


# -- checks and metrics ------------------------------------------------------------


def check_outputs(outcomes: List[Outcome], inputs: Inputs) -> None:
    """Every reply carries the fitted model's fingerprint and its labels,
    and every request within the line limit gets one (capacity probes may
    be shed by design, so they are left out)."""
    lost = [o for o in outcomes
            if not o.ok and not o.oversize and o.kind != "capacity"]
    check(not lost, f"{len(lost)} requests within the {LINE_LIMIT}-byte line "
          f"limit failed: {[(o.kind, o.index) for o in lost[:5]]}")
    served = {o.fingerprint for o in outcomes if o.ok}
    expected = inputs.model.fingerprint()
    check(served == {expected},
          f"served fingerprints {sorted(served)}, expected {expected}")
    for o in outcomes:
        if not o.ok:
            continue
        if o.kind == "bulk":
            want = inputs.bulk_labels[o.index].tolist()
        else:
            want = [int(inputs.single_labels[o.index])]
        check(o.labels == want,
              f"{o.kind} request {o.index}: served labels differ from "
              f"offline KeyBin2Model.predict")


def served_ari(outcomes: List[Outcome], inputs: Inputs) -> float:
    """ARI of the answered single-row labels against the mixture's truth."""
    from repro.metrics.external import adjusted_rand_index

    singles = [o for o in outcomes if o.ok and o.kind in ("light", "heavy")]
    return float(adjusted_rand_index(
        np.array([inputs.single_truth[o.index] for o in singles]),
        np.array([o.labels[0] for o in singles]),
    ))


def bulk_request_rows_per_s(outcomes: List[Outcome]) -> float:
    """Rows per second one closed-loop connection gets from a typical bulk
    request: answered rows per request over the median request time.

    The median over every answered request of the run, unlike the length
    of a bulk phase, is not moved by a brief stall of the host.
    """
    answered = [o for o in outcomes if o.kind == "bulk" and o.ok]
    rows = sum(len(o.labels) for o in answered) / len(answered)
    return rows / median(o.done - o.sent for o in answered)


def latency_ms(outcomes: List[Outcome], kind: str) -> List[float]:
    """Due-to-done latency; a failed request counts as infinitely late."""
    return [
        (o.done - o.due) * 1e3 if o.ok else float("inf")
        for o in outcomes if o.kind == kind
    ]


def latency_metrics(outcomes: List[Outcome],
                    bulk_s: List[float]) -> Dict[str, float]:
    """Latency percentiles and bulk rows per second per round, then their
    median over rounds (a noisy moment on the host spoils one round, not
    the run)."""
    metrics = {}
    rounds = range(len(bulk_s))
    for kind in ("light", "heavy"):
        for q in (50, 90):
            metrics[f"{kind}.p{q}_ms"] = median(
                percentile(latency_ms([o for o in outcomes if o.round == r],
                                      kind), q)
                for r in rounds
            )
    metrics["bulk_rows_per_s"] = median(
        sum(len(o.labels) for o in outcomes
            if o.kind == "bulk" and o.ok and o.round == r) / bulk_s[r]
        for r in rounds
    )
    return metrics


def _replica_stats(fleet: Fleet) -> Dict[str, dict]:
    return {rid: _rpc(host, port, {"op": "stats"})
            for rid, (host, port) in fleet.replicas.items()}


def _router_status(fleet: Fleet) -> dict:
    return _rpc("127.0.0.1", fleet.port, {"op": "fleet-status"})


def _count_metrics(before: dict, after: dict, status0: dict,
                   status1: dict) -> Dict[str, float]:
    def delta(path):
        total = 0.0
        for rid in after:
            a, b = after[rid], before[rid]
            for key in path:
                a, b = a[key], b[key]
            total += a - b
        return total

    batches = delta(("batches_total",))
    batched = sum(
        after[r]["mean_batch_size"] * after[r]["batches_total"]
        - before[r]["mean_batch_size"] * before[r]["batches_total"]
        for r in after
    )
    hits = delta(("cache", "hits"))
    misses = delta(("cache", "misses"))
    routed = []
    for rid in after:
        ok1 = status1["routed"].get(rid, {}).get("ok", 0)
        ok0 = status0["routed"].get(rid, {}).get("ok", 0)
        routed.append(ok1 - ok0)
    mean_routed = sum(routed) / len(routed)
    return {
        "batcher.batches": batches,
        "batcher.mean_batch": batched / batches if batches else 0.0,
        "cache.hit_share": hits / (hits + misses) if hits + misses else 0.0,
        "server.shed": delta(("shed_total",)),
        "router.spills": float(status1["shard"]["spills"]
                               - status0["shard"]["spills"]),
        "router.replica_skew": max(routed) / mean_routed if mean_routed else 0.0,
    }


def _self_ms(tree, span_id: str) -> float:
    record = tree.spans[span_id]
    dur = float(record.get("dur", 0.0))
    kids = sum(float(tree.spans[c].get("dur", 0.0))
               for c in tree.children.get(span_id, ()))
    return max(0.0, dur - min(kids, dur)) * 1e3


def hop_metrics(span_files: List[str]) -> Tuple[Dict[str, float], int]:
    """Mean self time of every hop per single-row request, from span files.

    Also ``bulk.model_ms``, the model call per answered bulk request.
    Returns the metrics and the number of single-row traces behind them.
    """
    from repro.obs.reqtrace import build_traces, load_spans

    sums = {name: 0.0 for name in HOP_METRICS.values()}
    singles = bulk = 0
    bulk_model = 0.0
    for tree in build_traces(load_spans(span_files)).values():
        root = tree.root
        if (root is None or not tree.connected
                or root.get("name") != "client/predict"
                or root.get("status") != "ok"):
            continue
        if (root.get("attrs") or {}).get("kind") == "bulk":
            bulk += 1
            bulk_model += sum(_self_ms(tree, sid) for sid, rec in tree.spans.items()
                              if rec.get("name") == "server/model_call")
            continue
        singles += 1
        for span_id, record in tree.spans.items():
            name = HOP_METRICS.get(record.get("name"))
            if name is not None:
                sums[name] += _self_ms(tree, span_id)
    check(singles > 0 and bulk > 0, "no connected request traces were recorded")
    out = {name: total / singles for name, total in sums.items()}
    out["bulk.model_ms"] = bulk_model / bulk
    return out, singles


# -- the workload ------------------------------------------------------------------


def run(seed: int, seconds: float, trace: bool, size: Size = FULL) -> Result:
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    fleets: List[Fleet] = []
    try:
        return _run(seed, seconds, trace, size, workdir, fleets)
    finally:
        for fleet in fleets:
            fleet.stop()
        from repro.obs.reqtrace import reset_tracer

        reset_tracer()
        shutil.rmtree(workdir, ignore_errors=True)


def _start(inputs: Inputs, size: Size, seed: int, fleets: List[Fleet],
           workdir: str, trace_out: Optional[str] = None) -> Fleet:
    fleet = Fleet(inputs.model_path, size, seed, workdir, trace_out=trace_out)
    fleets.append(fleet)
    _warm_up(fleet.port, inputs, size, seed)
    return fleet


def _run(seed, seconds, trace, size, workdir, fleets) -> Result:
    n_rounds = max(1, int(seconds // size.round_s))

    def setup():
        inputs = make_inputs(seed, size, workdir)
        return inputs, _start(inputs, size, seed, fleets, workdir)

    def teardown(state):
        fleet = state[1]
        fleet.stop()
        fleets.remove(fleet)

    (inputs, fleet), setup_s = repeated_setup(
        setup, 1 if trace else size.setups, teardown)

    if not trace:
        gen, bulk_s, _ = _drive(fleet.port, inputs, size, seed, n_rounds)
        outcomes = gen.outcomes
        check_outputs(outcomes, inputs)
        failed = sum(not o.ok for o in outcomes)
        measured = latency_metrics(outcomes, bulk_s)
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": fleet.peak_rss_mb(),
            "latency_ms": median(latency_ms(outcomes, "light")
                                 + latency_ms(outcomes, "heavy")),
            "rows_per_s": bulk_request_rows_per_s(outcomes),
            "quality": served_ari(outcomes, inputs),
        }
        return Result(True, len(outcomes), failed, metrics,
                      [_summary(outcomes, measured, n_rounds)])

    # Traced mode: half the rounds and the capacity search untraced, then
    # the other half against a traced fleet.
    half = max(1, n_rounds // 2)
    gen, bulk_s, capacity = _drive(fleet.port, inputs, size, seed, half,
                                   capacity=True)
    untraced = gen.outcomes
    check_outputs(untraced, inputs)
    teardown((inputs, fleet))

    from repro.obs.reqtrace import configure_tracer

    configure_tracer(os.path.join(workdir, "trace-client.jsonl"))
    fleet = _start(inputs, size, seed, fleets, workdir,
                   trace_out=os.path.join(workdir, "trace-{pid}.jsonl"))
    stats0, status0 = _replica_stats(fleet), _router_status(fleet)
    gen, _, _ = _drive(fleet.port, inputs, size, seed, half, traced=True)
    traced = gen.outcomes
    stats1, status1 = _replica_stats(fleet), _router_status(fleet)
    check_outputs(traced, inputs)
    outcomes = untraced + traced
    failed = sum(not o.ok for o in outcomes)

    metrics, n_traced = hop_metrics(
        glob.glob(os.path.join(workdir, "trace-*.jsonl")))
    singles = [o for o in traced if o.kind in ("light", "heavy") and o.ok]
    metrics["loadgen.lag_ms"] = float(np.mean([(o.sent - o.due) * 1e3
                                               for o in singles]))
    metrics.update(_count_metrics(stats0, stats1, status0, status1))
    measured = latency_metrics(untraced, bulk_s)
    metrics.update({k: measured[k] for k in DIAGNOSTICS if k in measured})
    metrics["capacity_rps"] = capacity
    plain = median(latency_ms(untraced, "light") + latency_ms(untraced, "heavy"))
    with_trace = median(latency_ms(traced, "light") + latency_ms(traced, "heavy"))
    metrics["trace.overhead_pct"] = 100.0 * (with_trace - plain) / plain

    traced_e2e = float(np.mean([(o.done - o.due) * 1e3 for o in singles]))
    report = [_summary(untraced, measured, half)]
    report += layer_table(
        f"single-row request (ms per request, self times, {n_traced} traces)",
        [(n, metrics[n]) for n in HOP_LAYERS],
        sum(metrics[n] for n in HOP_LAYERS), traced_e2e,
        "traced due-to-done latency",
    )
    report.append("  " + ", ".join(
        f"{k}={metrics[k]:g}" for k in PER_LAYER[len(HOP_LAYERS):]))
    return Result(True, len(outcomes), failed, metrics, report)


def _summary(outcomes: List[Outcome], metrics: Dict[str, float],
             n_rounds: int) -> str:
    by_kind = {}
    for o in outcomes:
        sent, bad, big = by_kind.get(o.kind, (0, 0, 0))
        by_kind[o.kind] = (sent + 1, bad + (not o.ok),
                           big + (not o.ok and o.oversize))
    parts = ", ".join(f"{k} {n} sent/{f} failed ({b} over the line limit)"
                      for k, (n, f, b) in by_kind.items())
    return (f"serve-fleet: {n_rounds} rounds; {parts}; light p50/p90 "
            f"{metrics['light.p50_ms']:.3f}/{metrics['light.p90_ms']:.3f} ms, "
            f"heavy p50/p90 {metrics['heavy.p50_ms']:.3f}/"
            f"{metrics['heavy.p90_ms']:.3f} ms, bulk "
            f"{metrics['bulk_rows_per_s']:,.0f} rows/s")
