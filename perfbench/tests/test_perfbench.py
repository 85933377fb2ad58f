"""Self-tests of the benchmark at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import fit_paper, insitu_md, serve_fleet
from perfbench.common import (
    END_TO_END,
    PER_LAYER,
    UNITS,
    CheckFailed,
    Result,
    percentile,
)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TINY = {
    "fit-paper": (fit_paper, fit_paper.Size(
        n_fit=3000, n_holdout=500, n_dims=8, n_clusters=3, predict_calls=1,
        predict_blocks=1, setups=1)),
    "insitu-md": (insitu_md, insitu_md.Size(
        n_frames=600, n_residues=8, pool=2, chunk_size=100, setups=1,
        nmi_floor=0.0)),
    "serve-fleet": (serve_fleet, serve_fleet.Size(
        n_train=2000, n_holdout=200, light_s=0.3, heavy_s=0.3, bulk_requests=12,
        bulk_pool=6, warmup_requests=20, setups=1)),
}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in _spec()["workloads"]] == list(TINY)


@pytest.mark.parametrize("workload", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_emits_every_manifest_name(workload, trace):
    module, size = TINY[workload]
    result = module.run(seed=3, seconds=0.5, trace=trace, size=size)
    assert result.correct
    assert result.attempted >= 1
    payload = result.payload(trace)
    listed = {m["name"]: m["unit"]
              for m in _spec()["per_layer" if trace else "end_to_end"]}
    assert list(payload["metrics"]) == list(listed)
    for name, value in payload["metrics"].items():
        assert listed[name] == value["unit"] == UNITS[name]
        assert np.isfinite(value["value"])
        if not trace:
            assert value["value"] > 0, name
    if trace:
        # Every layer of the workload's own path was measured.
        assert set(module.PER_LAYER) <= set(result.metrics)


def test_benchmark_json_lists_exactly_the_emitted_names():
    spec = _spec()
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    modules = [m for m, _ in TINY.values()]
    assert set().union(*(m.PER_LAYER for m in modules)) == set(PER_LAYER)


def test_result_line_refuses_a_missing_end_to_end_metric():
    result = Result(True, 1, 0, {"setup_s": 1.0})
    with pytest.raises(ValueError, match="not measured"):
        result.payload(False)


# -- load generator --------------------------------------------------------------


def _inputs(n_single: int = 8, big_every: int = 0) -> serve_fleet.Inputs:
    """Two-feature requests; every ``big_every``-th bulk line is ~100 KB."""
    single = np.arange(n_single * 2, dtype=float).reshape(n_single, 2)
    bulk = [np.ones((4, 2)) for _ in range(4)]
    inputs = serve_fleet.Inputs(
        model=None, model_path="", single_rows=single,
        single_labels=np.zeros(n_single, dtype=int),
        single_truth=np.zeros(n_single, dtype=int), bulk=bulk,
        bulk_labels=[np.zeros(4, dtype=int) for _ in bulk],
    )
    inputs.single_lines = [serve_fleet._line(r.tolist()) for r in single]
    inputs.bulk_lines = [serve_fleet._line(b.tolist()) for b in bulk]
    if big_every:
        for i in range(0, len(bulk), big_every):
            inputs.bulk_lines[i] = serve_fleet._line([[0.0] * 2] * 6000)
    return inputs


async def _serve(handler):
    server = await asyncio.start_server(handler, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


def _reply(request: dict) -> bytes:
    rows = np.asarray(request["x"], dtype=float)
    n = 1 if rows.ndim == 1 else rows.shape[0]
    return json.dumps({"ok": True, "labels": [0] * n,
                       "fingerprint": "f"}).encode() + b"\n"


def test_dropped_connection_counts_as_failed_not_lost():
    async def handler(reader, writer):
        # asyncio's default 64 KiB line limit, as in the fleet router:
        # an over-long line raises and the connection closes unanswered.
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                writer.write(_reply(json.loads(line)))
                await writer.drain()
        except ValueError:
            pass
        finally:
            writer.close()

    async def main():
        server, port = await _serve(handler)
        size = serve_fleet.Size(connections=1)
        gen = serve_fleet.LoadGenerator(port, _inputs(big_every=2), size, 0)
        try:
            conn = gen.conns[0]
            for index in range(4):
                await gen._send(conn, "bulk", index, 0.0)
            await gen.open_loop("light", 200.0, 0.05)
        finally:
            await gen.close()
            server.close()
            await server.wait_closed()
        return gen.outcomes

    outcomes = asyncio.run(main())
    bulk = [o for o in outcomes if o.kind == "bulk"]
    assert [o.ok for o in bulk] == [False, True, False, True]
    assert [o.oversize for o in bulk] == [True, False, True, False]
    # The generator reconnected: everything after the drops succeeded.
    singles = [o for o in outcomes if o.kind == "light"]
    assert singles and all(o.ok for o in singles)
    assert len(outcomes) == 4 + len(singles)


def test_open_loop_latency_counts_from_the_scheduled_send():
    stall_s = 0.25
    seen = []

    async def handler(reader, writer):
        while True:
            line = await reader.readline()
            if not line:
                break
            seen.append(1)
            if len(seen) == 3:
                await asyncio.sleep(stall_s)  # one stalled reply
            writer.write(_reply(json.loads(line)))
            await writer.drain()
        writer.close()

    async def main():
        server, port = await _serve(handler)
        size = serve_fleet.Size(connections=1)
        gen = serve_fleet.LoadGenerator(port, _inputs(), size, 0)
        try:
            await gen.open_loop("light", 100.0, 0.2)
        finally:
            await gen.close()
            server.close()
            await server.wait_closed()
        return gen.outcomes

    outcomes = sorted(asyncio.run(main()), key=lambda o: o.due)
    assert len(outcomes) == 20 and all(o.ok for o in outcomes)
    behind = outcomes[3]  # due 10 ms after the stalled request
    assert behind.done - behind.sent < 0.1  # its own round trip is quick
    assert behind.done - behind.due > stall_s - 0.05  # but it waited
    lat = serve_fleet.latency_ms(outcomes, "light")
    assert percentile(lat, 50) > 100.0


class _Model:
    def fingerprint(self):
        return "f"


def test_only_requests_over_the_line_limit_may_fail():
    inputs = _inputs()
    inputs.model = _Model()
    served = serve_fleet.Outcome("light", round=0, index=0, due=0.0, sent=0.0,
                                 done=0.001, ok=True, labels=[0],
                                 fingerprint="f")
    dropped = serve_fleet.Outcome("bulk", round=0, index=1, due=0.0, sent=0.0,
                                  done=0.001, ok=False, oversize=True)
    serve_fleet.check_outputs([served, dropped], inputs)
    lost = serve_fleet.Outcome("light", round=0, index=2, due=0.0, sent=0.0,
                               done=0.001, ok=False)
    with pytest.raises(CheckFailed, match="line limit failed"):
        serve_fleet.check_outputs([served, dropped, lost], inputs)


def test_failed_request_counts_as_infinitely_late():
    ok = serve_fleet.Outcome("light", round=0, index=0, due=0.0, sent=0.0,
                             done=0.001, ok=True, labels=[0], fingerprint="f")
    bad = serve_fleet.Outcome("light", round=0, index=1, due=0.0, sent=0.0,
                              done=0.001, ok=False)
    lat = serve_fleet.latency_ms([ok, bad, ok, ok], "light")
    assert percentile(lat, 50) == pytest.approx(1.0)
    assert percentile(lat, 90) == float("inf")


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit-paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
