"""Lifecycle and protocol tests for the ``repro serve`` subsystem.

The production-shape behaviours under test:

- queue-full bursts get explicit 429 rejections, never hangs;
- a request deadline *really* cancels the job mid-run inside the
  worker (SIGALRM), freeing the worker for the next request;
- SIGTERM-style drain finishes in-flight work before stopping;
- N concurrent clients each get their own correct response.
- a pushed artifact (``PUT /cas``) is stored only when its frame
  passes the checksum.

Integration tests run a real server on an ephemeral port via
:class:`ServerHandle` with 1-2 workers.  The deterministic ``sleep``
op is gated behind ``REPRO_SERVE_TEST_OPS=1`` (set per-test, inherited
by pool workers).
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import socket
import threading
import time
from contextlib import contextmanager

import pytest

from repro.cache.keys import artifact_key
from repro.cache.store import ArtifactStore
from repro.serve import (
    BoundedRequestQueue,
    QueueClosed,
    QueueFull,
    ServeClient,
    ServeConfig,
    Server,
    ServerHandle,
)
from repro.serve import protocol
from repro.serve import server as server_mod
from repro.serve.jobs import _LruMemo
from repro.serve.queue import (
    RETRY_AFTER_MAX_S,
    RETRY_AFTER_MIN_S,
    Job,
    retry_after_jitter,
)


# -- protocol unit tests ------------------------------------------------------


class TestProtocol:
    def test_response_roundtrip(self):
        raw = protocol.json_response(200, protocol.ok_envelope({"x": 1}))
        head, body = raw.split(b"\r\n\r\n", 1)
        assert head.startswith(b"HTTP/1.1 200 ")
        ok, payload = protocol.parse_client_response(200, body)
        assert ok and payload["result"] == {"x": 1}

    def test_error_envelope_codes(self):
        env = protocol.error_envelope(429, "queue full")
        assert env["error"]["code"] == "queue_full"
        assert protocol.error_envelope(504, "x")["error"]["code"] == "deadline_exceeded"

    def test_read_request_rejects_oversized_body(self):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(
                b"POST /v1/synthesize HTTP/1.1\r\n"
                + f"Content-Length: {protocol.MAX_BODY_BYTES + 1}\r\n\r\n".encode()
            )
            with pytest.raises(protocol.ProtocolError) as err:
                await protocol.read_request(reader)
            assert err.value.status == 413

        asyncio.run(run())

    def test_read_request_parses_query(self):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(b"GET /metrics?format=json HTTP/1.1\r\n\r\n")
            reader.feed_eof()
            request = await protocol.read_request(reader)
            assert request.path == "/metrics"
            assert request.query == {"format": "json"}

        asyncio.run(run())


# -- queue unit tests ---------------------------------------------------------


def _mk_job(job_id=1, timeout=60.0):
    now = time.monotonic()
    return Job(
        job_id=job_id, op="sleep", payload={}, arrival=now, deadline=now + timeout
    )


class TestBoundedQueue:
    def test_submit_beyond_capacity_raises(self):
        async def run():
            queue = BoundedRequestQueue(2)
            queue.submit(_mk_job(1))
            queue.submit(_mk_job(2))
            with pytest.raises(QueueFull):
                queue.submit(_mk_job(3))
            assert queue.depth == 2

        asyncio.run(run())

    def test_closed_queue_rejects_and_drains(self):
        async def run():
            queue = BoundedRequestQueue(4)
            queue.submit(_mk_job(1))
            queue.close()
            with pytest.raises(QueueClosed):
                queue.submit(_mk_job(2))
            job = await queue.get()
            assert job is not None and job.job_id == 1
            queue.task_done()
            assert await queue.get() is None  # closed + empty
            assert await queue.join(1.0)

        asyncio.run(run())


# -- Retry-After jitter -------------------------------------------------------


class TestRetryAfterJitter:
    def test_bounds(self):
        for _ in range(500):
            value = retry_after_jitter()
            assert RETRY_AFTER_MIN_S <= value <= RETRY_AFTER_MAX_S

    def test_spread(self):
        # Jitter must actually jitter: hundreds of draws should not
        # collapse onto a handful of values (the thundering-herd bug).
        assert len({round(retry_after_jitter(), 3) for _ in range(200)}) > 50

    def test_header_rounding_contract(self):
        value = retry_after_jitter()
        assert max(1, math.ceil(value)) in (1, 2)


# -- compiled-model memo is LRU ----------------------------------------------


class TestLruMemo:
    def test_eviction_is_lru_not_fifo(self):
        memo = _LruMemo(2)
        memo.put("hot", 1)
        memo.put("cold", 2)
        assert memo.get("hot") == 1  # refresh: "hot" is now most recent
        memo.put("new", 3)  # evicts "cold" (LRU), not "hot" (FIFO victim)
        assert "hot" in memo and "new" in memo
        assert "cold" not in memo

    def test_steady_traffic_pins_a_hot_model(self):
        memo = _LruMemo(4)
        memo.put("hot", "compiled")
        for i in range(20):  # a parade of one-off models
            memo.get("hot")
            memo.put(f"oneoff-{i}", i)
        assert memo.get("hot") == "compiled"
        assert len(memo) == 4

    def test_put_refresh_and_capacity_floor(self):
        memo = _LruMemo(0)  # clamps to 1
        memo.put("a", 1)
        memo.put("b", 2)
        assert len(memo) == 1 and memo.get("b") == 2
        memo.clear()
        assert len(memo) == 0 and memo.get("b") is None


# -- server unit tests (no sockets) ------------------------------------------


class TestTimeoutClamp:
    def test_default_and_clamp(self):
        server = Server(ServeConfig(default_timeout_s=5, max_timeout_s=10))
        assert server._timeout_for({}) == 5
        assert server._timeout_for({"timeout_s": 3}) == 3
        assert server._timeout_for({"timeout_s": 99}) == 10

    def test_bad_timeouts_rejected(self):
        server = Server(ServeConfig())
        for bad in (0, -1, "nope", None, float("nan"), "nan", float("inf")):
            with pytest.raises(protocol.ProtocolError):
                server._timeout_for({"timeout_s": bad})


# -- integration: a real server on an ephemeral port --------------------------


@contextmanager
def serve(monkeypatch, *, workers=1, queue_size=8, test_ops=True, cache=False,
          **config_kwargs):
    if test_ops:
        monkeypatch.setenv("REPRO_SERVE_TEST_OPS", "1")
    if cache:
        # conftest defaults REPRO_CACHE off (with a tmp REPRO_CACHE_DIR);
        # opt this server's workers back in for warm-path tests.
        monkeypatch.setenv("REPRO_CACHE", "1")
    config = ServeConfig(
        port=0, workers=workers, queue_size=queue_size, **config_kwargs
    )
    handle = ServerHandle(config)
    handle.start()
    try:
        yield handle, ServeClient("127.0.0.1", handle.port, timeout=60)
    finally:
        handle.stop()


def _poll(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def _sleep_op(client, seconds, timeout_s=None):
    body = {"seconds": seconds}
    if timeout_s is not None:
        body["timeout_s"] = timeout_s
    return client.request("POST", "/v1/sleep", body)


class TestServerLifecycle:
    def test_health_metrics_and_gated_ops(self, monkeypatch):
        with serve(monkeypatch, workers=1, test_ops=False) as (handle, client):
            health = client.healthz().raise_for_status().result
            assert health["status"] == "ok"
            assert health["workers"] == 1
            assert health["queue_capacity"] == 8
            # sleep is refused when the test-op gate is off.
            assert _sleep_op(client, 0.01).status == 400
            assert client.request("GET", "/nope").status == 404
            assert client.request("GET", "/v1/synthesize").status == 405
            snapshot = client.metrics()
            assert snapshot["counters"]["serve.requests_total"] >= 4
            text = client.metrics_text()
            assert "repro_serve_workers 1" in text
            assert "repro_serve_requests_total" in text

    def test_queue_full_burst_rejected_explicitly(self, monkeypatch):
        with serve(monkeypatch, workers=1, queue_size=1) as (handle, client):
            statuses = []
            lock = threading.Lock()

            def fire(seconds):
                response = _sleep_op(client, seconds)
                with lock:
                    statuses.append(response.status)

            health = lambda: client.healthz().result  # noqa: E731
            # Occupy the single worker, then the single queue slot.
            t1 = threading.Thread(target=fire, args=(1.5,))
            t1.start()
            assert _poll(lambda: health()["inflight"] == 1)
            t2 = threading.Thread(target=fire, args=(1.5,))
            t2.start()
            assert _poll(lambda: health()["queue_depth"] == 1)
            # This burst has nowhere to go: explicit 429s, immediately.
            burst = [threading.Thread(target=fire, args=(0.1,)) for _ in range(3)]
            t0 = time.monotonic()
            for t in burst:
                t.start()
            for t in burst:
                t.join(10)
            burst_elapsed = time.monotonic() - t0
            t1.join(15)
            t2.join(15)
            assert sorted(statuses) == [200, 200, 429, 429, 429]
            assert burst_elapsed < 5  # rejected, not queued behind sleepers
            counters = handle.registry.snapshot()["counters"]
            assert counters["serve.rejected_queue_full"] == 3

    def test_deadline_cancels_job_inside_worker(self, monkeypatch):
        with serve(monkeypatch, workers=1) as (handle, client):
            t0 = time.monotonic()
            response = _sleep_op(client, seconds=30, timeout_s=0.4)
            elapsed = time.monotonic() - t0
            assert response.status == 504
            assert response.error_code == "deadline_exceeded"
            assert response.payload["error"]["where"] == "worker"
            assert elapsed < 5  # cancelled, not sat out
            # The worker slot is actually free again.
            t0 = time.monotonic()
            assert _sleep_op(client, 0.01).status == 200
            assert time.monotonic() - t0 < 5
            counters = handle.registry.snapshot()["counters"]
            assert counters["serve.deadline_exceeded"] == 1

    def test_deadline_cancels_mid_synthesis(self, monkeypatch):
        # A real CPU-bound pipeline run (cold snortlite takes several
        # seconds) is interrupted by the worker's alarm, not abandoned.
        with serve(monkeypatch, workers=1, test_ops=False) as (handle, client):
            t0 = time.monotonic()
            response = client.synthesize("snortlite", timeout_s=0.5)
            elapsed = time.monotonic() - t0
            assert response.status == 504
            assert response.payload["error"]["where"] == "worker"
            assert elapsed < 6
            # Worker survived the cancellation and still does real work.
            assert client.synthesize("monitor").raise_for_status().result[
                "name"
            ] == "monitor"

    def test_drain_finishes_inflight_work(self, monkeypatch):
        with serve(monkeypatch, workers=1, drain_timeout_s=30) as (handle, client):
            done = {}

            def fire():
                done["response"] = _sleep_op(client, 1.0)

            worker = threading.Thread(target=fire)
            worker.start()
            assert _poll(lambda: client.healthz().result["inflight"] == 1)
            handle.drain()  # what SIGTERM does
            worker.join(20)
            # The in-flight job ran to completion despite the drain.
            assert done["response"].status == 200
            assert done["response"].result["slept_s"] == 1.0
            # And the server is actually gone: new connections fail.
            assert _poll(
                lambda: not ServeClient(
                    "127.0.0.1", handle.port, timeout=1
                ).wait_until_up(timeout=0.2, interval=0.05)
            )
            counters = handle.registry.snapshot()["counters"]
            assert counters["serve.drains"] == 1
            assert "serve.drain_timeouts" not in counters

    def test_concurrent_clients_get_their_own_answers(self, monkeypatch):
        with serve(monkeypatch, workers=2, cache=True) as (handle, client):
            results = {}
            lock = threading.Lock()

            def fire(i):
                packets = [
                    {"ip_src": 10 + i, "ip_dst": 20 + i, "dport": 80}
                    for _ in range(i + 1)
                ]
                response = client.simulate(nf="monitor", packets=packets)
                with lock:
                    results[i] = response

            threads = [
                threading.Thread(target=fire, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
            assert sorted(results) == list(range(8))
            for i, response in results.items():
                result = response.raise_for_status().result
                assert result["name"] == "monitor"
                # Each client got exactly its own packet batch back.
                assert len(result["outputs"]) == i + 1
                assert result["stats"]["packets"] == i + 1


# -- artifact push (PUT /cas) ------------------------------------------------


def _framed_artifact(tmp_path, payload):
    """A model artifact's framed bytes, as ``repro watch`` pushes them."""
    seed = ArtifactStore(str(tmp_path / "seed"))
    key = artifact_key("model", (repr(payload),))
    seed.put_object("model", key, payload)
    framed = seed.get_raw("model", key)
    assert framed is not None
    return key, framed


class TestCasEndpoints:
    def test_push_lands(self, monkeypatch, tmp_path):
        key, framed = _framed_artifact(tmp_path, {"answer": 42})
        cache_dir = str(tmp_path / "server")
        with serve(monkeypatch, test_ops=False, cache_dir=cache_dir) as (
            handle, client
        ):
            assert client.push_artifact("model", key, framed)
            store = handle.server.cas_store()
            assert store.get_raw("model", key) == framed
            # What a worker reads: a fresh store over the same directory.
            assert ArtifactStore(cache_dir).get_object("model", key) == {
                "answer": 42
            }
            assert handle.registry.snapshot()["counters"][
                "serve.cas.writes"
            ] == 1

    def test_bad_paths_rejected(self, monkeypatch, tmp_path):
        key, framed = _framed_artifact(tmp_path, {"answer": 42})
        cache_dir = str(tmp_path / "server")
        with serve(monkeypatch, test_ops=False, cache_dir=cache_dir) as (
            _handle, client
        ):
            for path in ("/cas/model/NOTHEX", "/cas/../etc/deadbeefdeadbeef",
                         f"/cas/model/{key}/extra"):
                assert client.request("PUT", path).status == 404, path
            assert client.request("GET", f"/cas/model/{key}").status == 405
            assert client.request("GET", "/registry").status == 404
            # The client validates too, before anything goes on the wire.
            assert not client.push_artifact("../etc", key, framed)
            assert not client.push_artifact("model", "NOTHEX", framed)

    def test_put_raw_rejects_damage(self, monkeypatch, tmp_path):
        key, framed = _framed_artifact(tmp_path, {"answer": 42})
        store = ArtifactStore(str(tmp_path / "s"))
        assert store.put_raw("model", key, b"garbage") is False
        assert store.get_object("model", key) is None

        flipped = bytearray(framed)
        flipped[-1] ^= 0xFF
        cache_dir = str(tmp_path / "server")
        with serve(monkeypatch, test_ops=False, cache_dir=cache_dir) as (
            handle, client
        ):
            damaged = (b"", b"garbage", framed[: len(framed) // 2], bytes(flipped))
            for body in damaged:
                assert not client.push_artifact("model", key, body)
            # Over the same kept-alive connection, so every PUT's status
            # counter is in before this scrape is read.
            counters = client.metrics()["counters"]
            assert counters["serve.status.400"] == len(damaged)
            assert "serve.cas.writes" not in counters
            assert handle.server.cas_store().get_raw("model", key) is None
            assert ArtifactStore(cache_dir).get_object("model", key) is None


# -- client keep-alive -------------------------------------------------------


class TestClientKeepAlive:
    def test_sequential_requests_reuse_one_connection(self, monkeypatch):
        with serve(monkeypatch, test_ops=False) as (handle, client):
            for _ in range(5):
                client.healthz().raise_for_status()
            connections = handle.registry.snapshot()["counters"].get(
                "serve.connections", 0
            )
            assert connections == 1, (
                f"5 sequential requests opened {connections} connections"
            )
            client.close()

    def test_stale_socket_reconnects_transparently(self, monkeypatch):
        with serve(monkeypatch, test_ops=False) as (handle, client):
            client.healthz().raise_for_status()
            # Yank the kept-alive socket out from under the client (what
            # an idle timeout or restarted server does).
            conn = client._local.conn
            conn.sock.close()
            response = client.healthz()
            assert response.status == 200
            connections = handle.registry.snapshot()["counters"].get(
                "serve.connections", 0
            )
            assert connections == 2
            client.close()

    def test_threads_do_not_share_sockets(self, monkeypatch):
        with serve(monkeypatch, test_ops=False) as (_handle, client):
            errors = []

            def hammer():
                try:
                    for _ in range(10):
                        client.healthz().raise_for_status()
                    client.close()
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors


# -- malformed input over a real socket --------------------------------------


def _raw_exchange(port, payload):
    """Send raw bytes on a fresh connection; (status, envelope) back."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(payload)
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    assert data, "connection dropped without a response"
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


def _post(path, body):
    return (
        f"POST {path} HTTP/1.1\r\nConnection: close\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body


class TestMalformedInput:
    """Each input once dropped the connection; each must get a 400
    ``bad_request`` envelope, and the server must keep serving."""

    def _assert_bad_request(self, handle, client, payload, message):
        status, envelope = _raw_exchange(handle.port, payload)
        assert status == 400, envelope
        assert envelope["error"]["code"] == "bad_request"
        assert message in envelope["error"]["message"]
        assert client.healthz().status == 200

    def test_non_finite_timeout(self, monkeypatch):
        with serve(monkeypatch) as (handle, client):
            for raw in (b"NaN", b'"nan"'):
                body = b'{"seconds": 0.01, "timeout_s": ' + raw + b"}"
                self._assert_bad_request(
                    handle, client, _post("/v1/sleep", body), "bad timeout_s"
                )
            health = client.healthz().result
            assert health["inflight"] == 0 and health["queue_depth"] == 0

    def test_deeply_nested_json(self, monkeypatch):
        with serve(monkeypatch, test_ops=False) as (handle, client):
            body = b"[" * 100_000
            self._assert_bad_request(
                handle, client, _post("/v1/synthesize", body), "nested too deeply"
            )

    def test_lines_beyond_the_stream_limit(self, monkeypatch):
        # Past asyncio's 64 KiB StreamReader limit, readline raises
        # before MAX_LINE_BYTES is ever checked.  At 1 MiB most of the
        # line is still unread when the 400 goes out.
        with serve(monkeypatch, test_ops=False) as (handle, client):
            for size in (70 << 10, 1 << 20):
                long = b"a" * size
                self._assert_bad_request(
                    handle, client,
                    b"GET /healthz?" + long + b" HTTP/1.1\r\n\r\n",
                    "request line too long",
                )
                self._assert_bad_request(
                    handle, client,
                    b"GET /healthz HTTP/1.1\r\nX-Long: " + long + b"\r\n\r\n",
                    "header line too long",
                )


class TestInternalErrors:
    """A failure inside the server answers with an envelope, and the
    server keeps serving."""

    def test_route_exception_is_a_500_envelope(self, monkeypatch):
        original = Server._route

        async def route(self, request):
            if request.path == "/boom":
                raise RuntimeError("handler bug")
            return await original(self, request)

        monkeypatch.setattr(Server, "_route", route)
        with serve(monkeypatch, test_ops=False) as (handle, client):
            status, envelope = _raw_exchange(
                handle.port, b"GET /boom HTTP/1.1\r\n\r\n"
            )
            assert status == 500
            assert envelope["error"]["code"] == "internal"
            assert client.healthz().status == 200

    def test_dispatcher_backstop_is_a_504_envelope(self, monkeypatch):
        async def never_answers(self, job):
            await asyncio.sleep(2.0)
            return {"status": 200, "result": None}

        monkeypatch.setattr(Server, "_run_job", never_answers)
        monkeypatch.setattr(server_mod, "BACKSTOP_SLACK_S", 0.0)
        with serve(monkeypatch, grace_s=0.1) as (handle, client):
            body = b'{"seconds": 0.01, "timeout_s": 0.2}'
            status, envelope = _raw_exchange(handle.port, _post("/v1/sleep", body))
            assert status == 504
            assert envelope["error"]["code"] == "deadline_exceeded"
            assert client.healthz().status == 200


# -- worker deadline plumbing -------------------------------------------------


class TestWorkerDeadline:
    def test_stale_absolute_deadline_fails_fast_in_worker(self):
        # The server stamps an absolute monotonic deadline at dispatch;
        # a job that starts after it has passed must 504 where="worker"
        # immediately, not arm a stale full-length alarm.
        from repro.serve.jobs import run_job

        t0 = time.monotonic()
        out = run_job(("synthesize", {"name": "nat"}, 5.0, None, t0 - 1.0))
        assert out["status"] == 504
        assert out["where"] == "worker"
        assert time.monotonic() - t0 < 1.0

    def test_alarm_ticks_again_after_a_swallowed_timeout(self):
        # A tick that raises into an unraisable context (weakref
        # callback, __del__) is silently dropped by CPython; the
        # interval timer must try again.  Swallowing the first two
        # JobTimeouts here simulates those lost deliveries — a one-shot
        # alarm would never fire a third time.
        from repro.serve.jobs import JobTimeout, _deadline_alarm

        swallowed = 0
        give_up = time.monotonic() + 10.0
        with pytest.raises(JobTimeout):
            with _deadline_alarm(0.05):
                while time.monotonic() < give_up:
                    try:
                        while time.monotonic() < give_up:
                            pass
                    except JobTimeout:
                        swallowed += 1
                        if swallowed >= 3:
                            raise
        assert swallowed == 3


# -- jittered Retry-After on the wire ----------------------------------------


class TestBackpressureJitter:
    def test_429_carries_jittered_retry_after(self, monkeypatch):
        with serve(monkeypatch, queue_size=1) as (handle, client):
            # One sleep occupies the worker, a second fills the 1-deep
            # queue; every probe after that is an instant 429.  The
            # second holder starts only once the first is inflight —
            # two simultaneous submits can race the dispatcher for the
            # single queue slot and reject one of them.
            def hold() -> None:
                ServeClient("127.0.0.1", handle.port, timeout=30).request(
                    "POST", "/v1/sleep", {"seconds": 6.0}
                )

            holders = [threading.Thread(target=hold) for _ in range(2)]
            holders[0].start()
            assert _poll(
                lambda: (client.healthz().result or {}).get("inflight") == 1,
                timeout=10,
            ), "first sleep never reached the worker"
            holders[1].start()
            try:
                assert _poll(
                    lambda: (client.healthz().result or {}).get(
                        "queue_depth"
                    )
                    == 1,
                    timeout=10,
                ), "never saturated worker + queue"
                hints = []
                for _ in range(8):
                    response = client.request(
                        "POST", "/v1/sleep", {"seconds": 0.01}
                    )
                    if response.status != 429:
                        continue  # a holder finished; enough samples exist
                    assert response.retry_after_s is not None
                    assert (
                        RETRY_AFTER_MIN_S
                        <= response.retry_after_s
                        <= RETRY_AFTER_MAX_S
                    )
                    hints.append(response.retry_after_s)
                assert len(hints) >= 4, "never saw enough 429s"
                assert len(set(hints)) > 1, f"no jitter: {hints}"
            finally:
                for t in holders:
                    t.join()
            client.close()
