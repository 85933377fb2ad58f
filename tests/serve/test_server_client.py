"""End-to-end tests: TCP server, clients, load generator, hot-swap, CLI."""

import json
import threading
import time

import numpy as np
import pytest

from repro.errors import ServeError
from repro.serve import (
    BatchPolicy,
    InferenceService,
    ModelRegistry,
    ServeClient,
    run_closed_loop,
    run_open_loop,
    serve_in_thread,
)
from repro.serve.wire import LINE_LIMIT


@pytest.fixture()
def live(served_model):
    """A registry + running server + connected client, torn down cleanly."""
    registry = ModelRegistry()
    registry.publish(served_model)
    with serve_in_thread(registry, policy=BatchPolicy(max_delay_s=0.002)) as handle:
        with ServeClient(*handle.address) as client:
            yield registry, handle, client


class TestProtocol:
    def test_healthz(self, live):
        _, _, client = live
        health = client.healthz()
        assert health["status"] == "serving"
        assert health["version"] == 1

    def test_predict_single_matches_local(self, live, small_gaussians, served_model):
        _, _, client = live
        x, _ = small_gaussians
        expected = served_model.predict(x[:20])
        for i in range(20):
            result = client.predict(x[i])
            assert result.label == expected[i]
            assert result.version == 1
            assert result.fingerprint == served_model.fingerprint()

    def test_predict_batch_matches_local(self, live, small_gaussians, served_model):
        _, _, client = live
        x, _ = small_gaussians
        result = client.predict(x[:64])
        assert result.labels == [int(v) for v in served_model.predict(x[:64])]

    def test_model_info(self, live, served_model):
        _, _, client = live
        info = client.model_info()
        assert info["n_clusters"] == served_model.n_clusters
        assert info["n_features"] == 16
        assert info["fingerprint"] == served_model.fingerprint()

    def test_stats_shape(self, live, small_gaussians):
        _, _, client = live
        x, _ = small_gaussians
        client.predict(x[0])
        stats = client.stats()
        assert stats["requests_total"] >= 1
        assert "batch_size_hist" in stats
        assert "cache" in stats and "hit_rate" in stats["cache"]
        assert stats["registry"]["current"]["version"] == 1

    def test_wrong_dimensionality_is_clean_error(self, live):
        _, _, client = live
        with pytest.raises(ServeError, match="features"):
            client.predict(np.zeros(7))

    def test_malformed_json_is_clean_error(self, live):
        _, _, client = live
        client._file.write(b"{not json\n")
        client._file.flush()
        response = json.loads(client._file.readline())
        assert response["ok"] is False
        assert "malformed" in response["error"]

    def test_bulk_predict_over_64kib(self, live, small_gaussians, served_model):
        """256 rows are ~85 KB on the wire, past asyncio's default limit."""
        _, _, client = live
        x, _ = small_gaussians
        assert len(json.dumps({"op": "predict", "x": x[:256].tolist()})) > 65536
        result = client.predict(x[:256])
        assert result.labels == [int(v) for v in served_model.predict(x[:256])]

    def test_over_limit_line_is_typed_error_and_connection_survives(self, live):
        _, _, client = live
        client._file.write(b"x" * (LINE_LIMIT + 10) + b"\n")
        client._file.flush()
        response = json.loads(client._file.readline())
        assert response["ok"] is False
        assert response["err"] == "line_too_long"
        assert client.healthz()["status"] == "serving"

    def test_unknown_op_is_clean_error(self, live):
        _, _, client = live
        response = client.request({"op": "transmogrify"})
        assert response["ok"] is False

    def test_predict_without_x_is_clean_error(self, live):
        _, _, client = live
        response = client.request({"op": "predict"})
        assert response["ok"] is False

    def test_connect_refused_is_serve_error(self):
        with pytest.raises(ServeError, match="cannot connect"):
            ServeClient("127.0.0.1", 1, timeout=0.5)


class TestBadInput:
    """Hostile/buggy client payloads must get clean error responses —
    never a dropped connection, a hung request, or a bricked server."""

    def test_non_numeric_x_is_clean_error(self, live, small_gaussians):
        _, _, client = live
        response = client.request({"op": "predict", "x": ["a", "b"]})
        assert response["ok"] is False
        assert "numeric" in response["error"]
        # Same connection keeps working afterwards.
        x, _ = small_gaussians
        assert client.predict(x[0]).version == 1

    def test_ragged_batch_is_clean_error(self, live):
        _, _, client = live
        response = client.request(
            {"op": "predict", "x": [[1.0, 2.0], [3.0]]}
        )
        assert response["ok"] is False

    def test_nested_garbage_x_is_clean_error(self, live):
        _, _, client = live
        response = client.request({"op": "predict", "x": {"not": "a point"}})
        assert response["ok"] is False

    def test_nan_point_rejected_individually(self, live, small_gaussians):
        _, _, client = live
        bad = [float("nan")] * 16
        response = client.request({"op": "predict", "x": bad})
        assert response["ok"] is False
        assert "non-finite" in response["error"]
        x, _ = small_gaussians
        assert client.predict(x[0]).version == 1

    def test_bad_rows_do_not_poison_concurrent_clients(self, live,
                                                       small_gaussians):
        """Single-point rows are validated BEFORE entering the micro-batcher,
        so a client spamming wrong-length / NaN points cannot fail the flush
        that labels other clients' valid requests."""
        _, handle, _ = live
        x, _ = small_gaussians
        host, port = handle.address
        stop = threading.Event()
        bad_rejections = []

        def attacker():
            with ServeClient(host, port) as bad_client:
                while not stop.is_set():
                    for payload in ([1.0, 2.0, 3.0], [float("nan")] * 16):
                        response = bad_client.request(
                            {"op": "predict", "x": payload}
                        )
                        bad_rejections.append(response["ok"])

        thread = threading.Thread(target=attacker)
        thread.start()
        try:
            report = run_closed_loop(host, port, x[:100], n_requests=600,
                                     n_clients=6)
        finally:
            stop.set()
            thread.join()
        assert report.requests_failed == 0
        assert report.requests_ok == 600
        assert bad_rejections and not any(bad_rejections)

    def test_server_survives_bad_input_storm(self, live, small_gaussians):
        """After a burst of malformed requests the batcher worker is still
        alive and serving (the historical failure mode was a dead worker:
        submits accepted, never flushed)."""
        _, _, client = live
        for payload in (["x"], [[1.0], [2.0, 3.0]], [float("inf")] * 16,
                        [0.0] * 3, []):
            assert client.request({"op": "predict", "x": payload})["ok"] is False
        x, _ = small_gaussians
        result = client.predict(x[0])
        assert result.version == 1
        assert client.healthz()["queue_depth"] == 0


class TestAdminGating:
    def test_admin_ops_can_be_disabled(self, served_model, small_gaussians):
        registry = ModelRegistry()
        registry.publish(served_model)
        x, _ = small_gaussians
        with serve_in_thread(registry, allow_admin=False) as handle:
            with ServeClient(*handle.address) as client:
                with pytest.raises(ServeError, match="disabled"):
                    client.reload("/etc/passwd")
                with pytest.raises(ServeError, match="disabled"):
                    client.shutdown()
                # Non-admin ops are unaffected.
                assert client.predict(x[0]).version == 1
                assert client.healthz()["status"] == "serving"

    def test_loopback_default_allows_admin(self, live, tmp_path, alt_model):
        _, _, client = live
        path = tmp_path / "swap.json"
        alt_model.save(path)
        assert client.reload(str(path)) == 2


class TestStartupFailure:
    def test_bind_failure_raises_instead_of_broken_handle(self, served_model):
        import socket

        registry = ModelRegistry()
        registry.publish(served_model)
        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            taken_port = blocker.getsockname()[1]
            with pytest.raises(ServeError, match="failed to start"):
                serve_in_thread(registry, port=taken_port)
        finally:
            blocker.close()


class TestHotSwap:
    def test_reload_from_disk_bumps_version(self, live, alt_model, tmp_path,
                                            small_gaussians):
        registry, _, client = live
        path = tmp_path / "next.json"
        alt_model.save(path)
        new_version = client.reload(str(path), tag="from-disk")
        assert new_version == 2
        assert registry.current().tag == "from-disk"
        x, _ = small_gaussians
        result = client.predict(x[0])
        assert result.version == 2

    def test_reload_missing_file_keeps_serving(self, live, tmp_path,
                                               small_gaussians):
        """A bad reload path is a clean error, not a dropped connection,
        and the previously published model keeps answering."""
        _, _, client = live
        response = client.request(
            {"op": "reload", "path": str(tmp_path / "missing.json")}
        )
        assert response["ok"] is False
        assert "reload failed" in response["error"]
        # Same connection still works, same version still serves.
        x, _ = small_gaussians
        result = client.predict(x[0])
        assert result.version == 1

    def test_reload_corrupt_file_keeps_serving(self, live, tmp_path,
                                               small_gaussians):
        _, _, client = live
        bad = tmp_path / "corrupt.json"
        bad.write_text("{\"not\": \"a model\"}")
        response = client.request({"op": "reload", "path": str(bad)})
        assert response["ok"] is False
        x, _ = small_gaussians
        assert client.predict(x[0]).version == 1

    def test_swap_under_load_zero_failures(self, live, alt_model,
                                           small_gaussians):
        """The acceptance-criteria hot-swap: no failed or mixed responses."""
        registry, handle, _ = live
        x, _ = small_gaussians
        host, port = handle.address
        v1_fp = registry.current().fingerprint
        v2_fp = alt_model.fingerprint()

        swapped = threading.Event()

        def swap_soon():
            # Land mid-run deterministically: wait until a third of the
            # traffic has been served, then publish (5s deadline fallback).
            deadline = time.time() + 5.0
            while (handle.server.stats.requests_total < 500
                   and time.time() < deadline):
                time.sleep(0.002)
            registry.publish(alt_model)
            swapped.set()

        swapper = threading.Thread(target=swap_soon)
        swapper.start()
        report = run_closed_loop(host, port, x[:200], n_requests=1500,
                                 n_clients=8)
        swapper.join()
        assert swapped.is_set()
        assert report.requests_failed == 0
        assert report.requests_ok == 1500
        # Every response was labeled by exactly one version, old or new.
        assert report.versions_seen <= {1, 2}
        assert 2 in report.versions_seen  # the swap actually took traffic
        assert v1_fp != v2_fp  # the two versions are really different models

    def test_batch_never_mixes_versions(self, served_model, alt_model,
                                        small_gaussians):
        """A batch grabs ONE registry snapshot even while publishes storm."""
        x, _ = small_gaussians
        registry = ModelRegistry()
        registry.publish(served_model)
        service = InferenceService(registry)
        stop = threading.Event()

        def storm():
            i = 0
            while not stop.is_set():
                registry.publish(alt_model if i % 2 else served_model)
                i += 1

        thread = threading.Thread(target=storm)
        thread.start()
        try:
            for _ in range(50):
                labels, record = service.predict_rows(x[:32])
                expected = record.model.predict(x[:32])
                assert np.array_equal(labels, expected)
        finally:
            stop.set()
            thread.join()


class TestLoadGenerator:
    def test_closed_loop_all_ok(self, live, small_gaussians):
        _, handle, _ = live
        x, _ = small_gaussians
        report = run_closed_loop(*handle.address, x[:50], n_requests=300,
                                 n_clients=6)
        assert report.requests_ok == 300
        assert report.requests_failed == 0
        assert report.throughput_rps > 0
        q = report.latency_quantiles()
        assert q["p50"] <= q["p99"]
        assert "closed loop" in report.render()

    def test_open_loop_all_ok(self, live, small_gaussians):
        _, handle, _ = live
        x, _ = small_gaussians
        report = run_open_loop(*handle.address, x[:50], rate=500.0,
                               duration_s=0.4, n_connections=4)
        assert report.requests_failed == 0
        assert report.requests_sent >= 100  # ~0.4s at 500/s, minus ramp
        assert "open loop" in report.render()

    def test_micro_batching_engages_under_concurrency(self, live,
                                                      small_gaussians):
        _, handle, client = live
        x, _ = small_gaussians
        run_closed_loop(*handle.address, x[:50], n_requests=400, n_clients=8)
        stats = client.stats()
        assert stats["mean_batch_size"] > 1.5  # coalescing, not 1-by-1
        assert stats["cache"]["hits"] > 0


class TestLifecycle:
    def test_shutdown_op_stops_server(self, served_model):
        registry = ModelRegistry()
        registry.publish(served_model)
        handle = serve_in_thread(registry)
        client = ServeClient(*handle.address)
        client.shutdown()
        client.close()
        handle.thread.join(10)
        assert not handle.thread.is_alive()
        handle.stop()  # idempotent after self-shutdown

    def test_server_without_model_reports_not_serving(self):
        registry = ModelRegistry()  # empty — no model published yet
        with serve_in_thread(registry) as handle:
            with ServeClient(*handle.address) as client:
                health = client.healthz()
                assert health["status"] == "no-model"
                response = client.request({"op": "predict", "x": [0.0, 1.0]})
                assert response["ok"] is False

    def test_two_servers_same_registry(self, served_model, small_gaussians):
        """Scale-out: N front-ends can share one registry."""
        x, _ = small_gaussians
        registry = ModelRegistry()
        registry.publish(served_model)
        with serve_in_thread(registry) as h1, serve_in_thread(registry) as h2:
            with ServeClient(*h1.address) as c1, ServeClient(*h2.address) as c2:
                assert c1.predict(x[0]).label == c2.predict(x[0]).label


class TestServeCLI:
    def test_serve_bench_demo_runs_clean(self, capsys):
        from repro.cli import main

        rc = main(["serve-bench", "--demo", "--requests", "120",
                   "--clients", "4", "--window-ms", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "loadgen (closed loop)" in out
        assert "0 failed" in out

    def test_serve_bench_open_mode(self, capsys):
        from repro.cli import main

        rc = main(["serve-bench", "--demo", "--mode", "open", "--rate", "300",
                   "--duration", "0.3", "--clients", "4"])
        assert rc == 0
        assert "open loop" in capsys.readouterr().out

    def test_serve_requires_model_or_demo(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["serve"])

    def test_legacy_experiments_still_dispatch(self, capsys):
        from repro.cli import main

        assert main(["table3"]) == 0
        assert "Table 3" in capsys.readouterr().out
