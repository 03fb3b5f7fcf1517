"""The asyncio synthesis & model-query server (``repro serve``).

Request path::

    client ──HTTP──▶ connection handler (event loop)
                        │  admission: BoundedRequestQueue.submit
                        │    full    → 429 immediately (backpressure)
                        │    draining→ 503
                        ▼
                     dispatcher task (one per pool worker)
                        │  expired in queue → 504 without running
                        ▼
                     ProcessPoolExecutor worker
                        │  repro.serve.jobs.run_job under SIGALRM
                        ▼
                     response + metrics snapshot → folded into the
                     server registry → envelope back over the wire

The event loop only ever parses bytes and shuffles futures — all
CPU-bound synthesis happens in worker processes, and a background
**loop-lag probe** records how true that is
(``serve.loop_lag_seconds``; the bench asserts max lag < 100 ms).

Graceful drain (SIGTERM/SIGINT or :meth:`Server.request_drain`): stop
accepting connections, reject new requests on kept-alive connections
with 503, finish every admitted job, flush the persistent constraint
cache, shut the pool down, exit.
"""

from __future__ import annotations

import asyncio
import logging
import math
import os
import signal
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import MetricsRegistry, render_prometheus
from repro.obs import context as obs_context
from repro.obs import log as obs_log
from repro.obs.metrics import labeled
from repro.obs.recorder import FlightRecorder, RequestRecord, phases_from_spans
from repro.serve import protocol
from repro.serve.jobs import OPS, run_job
from repro.serve.registry import ModelRegistry
from repro.serve.queue import (
    BoundedRequestQueue,
    Job,
    QueueClosed,
    QueueFull,
    retry_after_jitter,
)


def _version() -> str:
    import repro

    return repro.__version__


def _pool_ready() -> None:
    """No-op pool task (see Server.prepare_pool)."""


#: How long a connection answered with a protocol error keeps reading
#: (and discarding) the rest of the client's request.
LINGER_S = 2.0

#: Slack past a job's deadline and twice the grace period before a
#: request gives up on its dispatcher and answers 504 itself.
BACKSTOP_SLACK_S = 5.0


async def _discard_unread(reader, writer) -> None:
    """Half-close, then discard input until EOF or :data:`LINGER_S`.

    A protocol error can leave part of the request unread (the rest of
    an over-long line, an oversized body).  Closing a socket with
    unread input makes the kernel reset the connection, and the reset
    can destroy the error response before the client has read it.
    """

    async def drain() -> None:
        while await reader.read(1 << 16):
            pass

    try:
        writer.write_eof()
        await asyncio.wait_for(drain(), LINGER_S)
    except (asyncio.TimeoutError, OSError):
        pass


def _worker_warmup(cache_dir: Optional[str] = None) -> None:
    """Pool initializer: pre-import the pipeline in each worker.

    The first job in a fresh worker otherwise pays ~100 ms of lazy
    imports — visible as a p95 outlier on an otherwise ~2 ms warm
    ``synthesize``.  Runs once per worker process at pool start.

    ``cache_dir`` pins the server's private artifact directory in the
    worker explicitly, not via the parent's environment, which several
    servers in one process (tests, benchmarks) share.
    """
    import repro.apps.testing  # noqa: F401
    import repro.apps.verify  # noqa: F401
    import repro.equiv.differential  # noqa: F401
    import repro.nfactor.algorithm  # noqa: F401
    import repro.parallel  # noqa: F401

    if cache_dir is not None:
        from repro import cache as artifact_cache

        artifact_cache.configure(directory=cache_dir, enabled=True)


@dataclass
class ServeConfig:
    """Server tunables (the ``repro serve`` flags)."""

    host: str = "127.0.0.1"
    port: int = 8000
    #: Worker processes; 0 = one per CPU.
    workers: int = 0
    #: Bounded queue capacity — pending requests beyond the in-flight
    #: ones; the explicit backpressure limit.
    queue_size: int = 64
    #: Default per-request deadline when the client sends none.
    default_timeout_s: float = 60.0
    #: Upper bound on client-requested deadlines.
    max_timeout_s: float = 600.0
    #: How long drain waits for in-flight work before giving up.
    drain_timeout_s: float = 60.0
    #: Parent-side backstop beyond the worker's own alarm.  Wide on
    #: purpose: the worker's SIGALRM is the precise cancel; the parent
    #: only abandons the slot when the alarm truly failed, so racing it
    #: under CPU pressure just misattributes the 504.
    grace_s: float = 4.0
    #: Event-loop lag probe period (0 disables the probe).
    lag_probe_interval_s: float = 0.05
    #: Request tracing: parse/mint trace contexts, collect worker span
    #: batches and stitch them into the flight recorder.  Off = request
    #: ids + metrics only (the overhead benchmark's baseline).
    tracing: bool = True
    #: Serve simulate requests from the model compiler
    #: (:mod:`repro.model.compile`); ``--no-compile`` forces the
    #: interpreted ``ModelSimulator`` (the escape hatch).
    compile_sims: bool = True
    #: Flight-recorder ring size (recent requests, span trees included).
    recorder_capacity: int = 128
    #: Slowest requests pinned beyond the ring.
    recorder_keep_slow: int = 16
    #: Erroring requests pinned beyond the ring.
    recorder_keep_errors: int = 16
    #: Private artifact-cache directory for this server's workers and
    #: ``PUT /cas`` (None = the ambient store config).
    cache_dir: Optional[str] = None

    def effective_workers(self) -> int:
        return self.workers if self.workers > 0 else (os.cpu_count() or 1)


class Server:
    """One serving instance: listener + queue + dispatchers + pool."""

    def __init__(
        self, config: Optional[ServeConfig] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.registry = registry or MetricsRegistry()
        # Pre-register the simulator counters so /metrics and the
        # flight-recorder breakdowns show them from the first scrape —
        # the workers' snapshots merge into these by name.
        self.registry.counter("sim.packets")
        self.registry.counter("sim.guard_evals")
        self.registry.counter("sim.compiled_dispatches")
        self.registry.counter("sim.compiled")
        self.registry.histogram("sim.compile_seconds")
        # Graph-verification counters (repro.netverify): scrapable from
        # the first request, merged from worker snapshots by name.
        self.registry.counter("verify.edges")
        self.registry.counter("verify.cache.hits")
        self.registry.counter("verify.cache.misses")
        self.registry.counter("verify.dirty_edges")
        # Hot-swap (docs/internals.md §15): registered targets and the
        # reload counter, scrapable before the first reload lands.
        self.models = ModelRegistry()
        self.registry.counter("serve.reloads")
        self.queue = BoundedRequestQueue(
            self.config.queue_size, registry=self.registry
        )
        self.recorder = FlightRecorder(
            capacity=self.config.recorder_capacity,
            keep_slow=self.config.recorder_keep_slow,
            keep_errors=self.config.recorder_keep_errors,
        )
        self._log = obs_log.get_logger("repro.serve")
        self.draining = False
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._dispatchers: list = []
        self._lag_task: Optional[asyncio.Task] = None
        self._stopped: Optional[asyncio.Event] = None
        self._drain_task: Optional[asyncio.Task] = None
        self._started_at = time.monotonic()
        self._job_ids = iter(range(1, 1 << 62))
        self._abandoned = 0
        self._cas_store: Optional[Any] = None

    # -- lifecycle -----------------------------------------------------------

    def prepare_pool(self) -> None:
        """Create the worker pool and fork every worker *now*.

        Must run before any listener binds in this process.  A forked
        worker inherits copies of every open FD, including listening
        sockets; as long as any process holds a listener FD the kernel
        keeps accepting connections into a backlog nobody drains, so a
        stopped server's port would black-hole new connects instead of
        refusing them.  Several servers can share one parent process
        (tests, ``benchmarks/bench_obs_overhead.py``); call this for
        every one of them before starting any.
        """
        if self._pool is not None:
            return
        workers = self.config.effective_workers()
        self._pool = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_warmup,
            initargs=(self.config.cache_dir,),
        )
        spawn = getattr(self._pool, "_adjust_process_count", None)
        if spawn is not None:  # eager fork; idle workers park on the queue
            for _ in range(workers):
                spawn()
        # One throwaway submit starts the executor's manager thread.
        # Without it, a pool that never runs a job has nobody to send
        # exit sentinels to the pre-forked workers at shutdown, and
        # they would outlive the process's exit joins.
        self._pool.submit(_pool_ready)

    async def start(self) -> None:
        """Bind, spin up the pool, dispatchers and the lag probe."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        workers = self.config.effective_workers()
        self.prepare_pool()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        self._dispatchers = [
            self._loop.create_task(self._dispatch_loop()) for _ in range(workers)
        ]
        if self.config.lag_probe_interval_s > 0:
            self._lag_task = self._loop.create_task(self._lag_probe())
        self.registry.gauge("serve.workers").set(workers)

    def install_signal_handlers(self) -> bool:
        """SIGTERM/SIGINT → graceful drain.  Best effort (main thread only)."""
        assert self._loop is not None
        try:
            for signum in (signal.SIGTERM, signal.SIGINT):
                self._loop.add_signal_handler(signum, self.request_drain)
            return True
        except (NotImplementedError, RuntimeError, ValueError):
            return False

    async def serve_forever(self) -> None:
        """Until a drain completes."""
        assert self._stopped is not None
        await self._stopped.wait()

    def request_drain(self) -> None:
        """Begin graceful drain (idempotent; safe from signal handlers)."""
        if self._loop is None or self._drain_task is not None:
            return
        self._drain_task = self._loop.create_task(self.drain())

    async def drain(self) -> None:
        """Stop accepting, finish in-flight, flush caches, stop."""
        if self.draining:
            if self._stopped is not None:
                await self._stopped.wait()
            return
        self.draining = True
        self.registry.counter("serve.drains").inc()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.queue.close()
        drained = await self.queue.join(self.config.drain_timeout_s)
        if not drained:
            self.registry.counter("serve.drain_timeouts").inc()
        await asyncio.gather(*self._dispatchers, return_exceptions=True)
        if self._lag_task is not None:
            self._lag_task.cancel()
        if self._pool is not None:
            # Abandoned jobs may still occupy a worker whose alarm could
            # not fire; don't hang shutdown on them.
            self._pool.shutdown(wait=self._abandoned == 0, cancel_futures=True)
        from repro.symbolic.solver import global_cache

        global_cache().flush()
        if self._stopped is not None:
            self._stopped.set()

    # -- CAS store -----------------------------------------------------------

    def cas_store(self):
        """The artifact store ``PUT /cas`` writes into: the workers' store.

        With ``cache_dir`` set it is a store over that directory (what
        :func:`_worker_warmup` configures in every worker); otherwise
        the ambient store, which workers inherit from the environment.
        """
        if self.config.cache_dir is None:
            from repro import cache as artifact_cache

            return artifact_cache.get_store()
        if self._cas_store is None:
            from repro.cache.store import ArtifactStore

            self._cas_store = ArtifactStore(self.config.cache_dir)
        return self._cas_store

    # -- event-loop health ---------------------------------------------------

    async def _lag_probe(self) -> None:
        """Measure event-loop scheduling lag (blocked-loop detector)."""
        interval = self.config.lag_probe_interval_s
        hist = self.registry.histogram("serve.loop_lag_seconds")
        gauge = self.registry.gauge("serve.loop_lag_max_seconds")
        max_lag = 0.0
        assert self._loop is not None
        while True:
            t0 = self._loop.time()
            await asyncio.sleep(interval)
            lag = max(0.0, self._loop.time() - t0 - interval)
            hist.observe(lag)
            if lag > max_lag:
                max_lag = lag
                gauge.set(max_lag)

    # -- connection handling -------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        # One increment per TCP connection, however many requests ride
        # it — the client keep-alive test reads reuse off this counter.
        self.registry.counter("serve.connections").inc()
        try:
            while True:
                try:
                    request = await protocol.read_request(reader)
                except protocol.ProtocolError as exc:
                    writer.write(
                        protocol.json_response(
                            exc.status,
                            protocol.error_envelope(exc.status, exc.message),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    await _discard_unread(reader, writer)
                    break
                if request is None:
                    break
                try:
                    status, envelope, headers = await self._route(request)
                    keep_alive = request.keep_alive and not self.draining
                except Exception as exc:
                    # A handler bug: answer with an envelope, not a
                    # dropped connection, and do not reuse the socket.
                    obs_log.log_event(
                        self._log, logging.ERROR, "serve.internal_error",
                        f"{request.method} {request.path} failed: {exc!r}",
                        path=request.path, error=repr(exc),
                        traceback=traceback.format_exc(),
                    )
                    status, headers = 500, None
                    envelope = protocol.error_envelope(500, "internal server error")
                    keep_alive = False
                if isinstance(envelope, _RawText):
                    payload = protocol.render_response(
                        status,
                        envelope.text.encode("utf-8"),
                        content_type=envelope.content_type,
                        keep_alive=keep_alive,
                        extra_headers=headers,
                    )
                else:
                    payload = protocol.json_response(
                        status, envelope, keep_alive=keep_alive,
                        extra_headers=headers,
                    )
                writer.write(payload)
                await writer.drain()
                self.registry.counter(f"serve.status.{status}").inc()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Loop teardown while parked on a keep-alive read — routine
            # since clients hold connections open between requests.
            pass
        finally:
            # No wait_closed(): at loop shutdown the handler task may
            # already be cancelled, and close() alone is sufficient.
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass

    async def _route(
        self, request: protocol.HttpRequest
    ) -> Tuple[int, Dict[str, Any], Optional[Dict[str, str]]]:
        self.registry.counter("serve.requests_total").inc()
        path = request.path.rstrip("/") or "/"
        if path == "/healthz":
            if request.method != "GET":
                return 405, protocol.error_envelope(405, "use GET"), None
            return 200, protocol.ok_envelope(self._health()), None
        if path == "/metrics":
            if request.method != "GET":
                return 405, protocol.error_envelope(405, "use GET"), None
            snapshot = self.registry.snapshot()
            if request.query.get("format") == "json":
                return 200, protocol.ok_envelope(snapshot), None
            return 200, _RawText(render_prometheus(snapshot)), None
        if path == "/debugz" or path.startswith("/debugz/"):
            if request.method != "GET":
                return 405, protocol.error_envelope(405, "use GET"), None
            return self._debugz(path, request.query)
        if path.startswith("/cas/"):
            return self._cas(request, path)
        if path == "/v1/reload":
            if request.method != "POST":
                return 405, protocol.error_envelope(405, "use POST"), None
            try:
                body = request.json()
            except protocol.ProtocolError as exc:
                return exc.status, protocol.error_envelope(
                    exc.status, exc.message
                ), None
            return self._reload(body)
        if path.startswith("/v1/"):
            op = path[len("/v1/"):]
            if op not in OPS:
                return 404, protocol.error_envelope(
                    404, f"unknown endpoint {path!r}"
                ), None
            if request.method != "POST":
                return 405, protocol.error_envelope(405, "use POST"), None
            try:
                body = request.json()
            except protocol.ProtocolError as exc:
                return exc.status, protocol.error_envelope(
                    exc.status, exc.message
                ), None
            return await self._submit(op, body, request)
        return 404, protocol.error_envelope(404, f"unknown path {path!r}"), None

    def _debugz(
        self, path: str, query: Dict[str, str]
    ) -> Tuple[int, Dict[str, Any], Optional[Dict[str, str]]]:
        """The flight-recorder views (``/debugz/requests|slow|errors``).

        ``?id=<request-id>`` on any view returns that one request's
        detail (summary + stitched span tree); otherwise ``?n=`` caps
        the list length (default 32).
        """
        kind = path[len("/debugz"):].strip("/") or "requests"
        if kind not in ("requests", "slow", "errors"):
            return 404, protocol.error_envelope(
                404, f"unknown debugz view {kind!r} (have: requests, slow, errors)"
            ), None
        request_id = query.get("id")
        if request_id:
            rec = self.recorder.get(request_id)
            if rec is None:
                return 404, protocol.error_envelope(
                    404, f"no record for request {request_id!r} "
                    "(evicted from the flight recorder?)"
                ), None
            return 200, protocol.ok_envelope(rec.detail()), None
        try:
            n = int(query.get("n", "32"))
        except ValueError:
            return 400, protocol.error_envelope(
                400, f"bad n: {query.get('n')!r}"
            ), None
        if kind == "requests":
            data = self.recorder.recent(n)
        elif kind == "slow":
            data = self.recorder.slow(n)
        else:
            data = self.recorder.errors(n)
        return 200, protocol.ok_envelope(
            {"requests": data, "stats": self.recorder.stats()}
        ), None

    def _health(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self.draining else "ok",
            "version": _version(),
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "workers": self.config.effective_workers(),
            "queue_depth": self.queue.depth,
            "queue_capacity": self.queue.maxsize,
            "inflight": self.queue.inflight,
            "models": self.models.versions(),
        }

    def _reload(
        self, body: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any], Optional[Dict[str, str]]]:
        """``POST /v1/reload`` — register/flip a hot-swappable target.

        Handled inline on the event loop (registry state lives in the
        parent, key derivation is sub-millisecond): the version flip is
        atomic relative to admission, so in-flight jobs drain on the
        version they were admitted with.
        """
        name = body.get("name") or body.get("nf")
        source = body.get("source")
        entry = body.get("entry")
        note = body.get("note") or ""
        if not isinstance(name, str) or not name:
            return 400, protocol.error_envelope(400, "'name' is required"), None
        if not isinstance(source, str) or not source:
            return 400, protocol.error_envelope(400, "'source' is required"), None
        if entry is not None and not isinstance(entry, str):
            return 400, protocol.error_envelope(400, f"bad entry: {entry!r}"), None
        mv, updated = self.models.load(name, source, entry, note=str(note))
        if updated:
            self.registry.counter("serve.reloads").inc()
            self.registry.gauge(
                labeled("serve.model_version", nf=name)
            ).set(mv.version)
            obs_log.log_event(
                self._log, logging.INFO, "serve.reload",
                f"reload {name} -> v{mv.version}",
                nf=name, version=mv.version, model_key=mv.model_key,
            )
        return 200, protocol.ok_envelope(
            {
                "name": name,
                "version": mv.version,
                "updated": updated,
                "model_key": mv.model_key,
                "fingerprint": mv.fingerprint,
            }
        ), None

    # -- artifact push -------------------------------------------------------

    def _cas(
        self, request: protocol.HttpRequest, path: str
    ) -> Tuple[int, Dict[str, Any], Optional[Dict[str, str]]]:
        """``PUT /cas/<kind>/<key>`` — store one pushed framed artifact.

        The body is checksum-verified before it is stored (see
        :meth:`ArtifactStore.put_raw`); a damaged frame is a 400.
        """
        parts = path.split("/")  # ['', 'cas', kind, key]
        if len(parts) != 4 or not protocol.valid_cas_path(parts[2], parts[3]):
            return 404, protocol.error_envelope(
                404, f"bad CAS path {path!r} (want /cas/<kind>/<hexkey>)"
            ), None
        if request.method != "PUT":
            return 405, protocol.error_envelope(405, "use PUT"), None
        kind, key = parts[2], parts[3]
        if self.cas_store().put_raw(kind, key, request.body):
            self.registry.counter("serve.cas.writes").inc()
            return 200, protocol.ok_envelope({"stored": True}), None
        return 400, protocol.error_envelope(
            400, f"rejected {kind}/{key}: bad frame or checksum"
        ), None

    # -- job submission ------------------------------------------------------

    def _backoff(
        self, envelope: Dict[str, Any], headers: Dict[str, str]
    ) -> Dict[str, Any]:
        """Stamp a jittered retry hint on a 429/503 rejection."""
        retry_s = retry_after_jitter()
        headers["Retry-After"] = str(max(1, math.ceil(retry_s)))
        envelope["retry_after_s"] = round(retry_s, 3)
        return envelope

    def _timeout_for(self, body: Dict[str, Any]) -> float:
        raw = body.get("timeout_s", self.config.default_timeout_s)
        try:
            timeout = float(raw)
        except (TypeError, ValueError):
            raise protocol.ProtocolError(400, f"bad timeout_s: {raw!r}")
        # NaN passes the <= 0 test and survives min(), and a NaN
        # deadline makes the response wait time out at once.
        if not math.isfinite(timeout):
            raise protocol.ProtocolError(400, f"bad timeout_s: {raw!r}")
        if timeout <= 0:
            raise protocol.ProtocolError(400, "timeout_s must be positive")
        return min(timeout, self.config.max_timeout_s)

    async def _submit(
        self, op: str, body: Dict[str, Any],
        request: Optional[protocol.HttpRequest] = None,
    ) -> Tuple[int, Dict[str, Any], Optional[Dict[str, str]]]:
        request_id = obs_context.new_request_id()
        # Hot-swap resolution happens here, at admission on the event
        # loop: the job snapshots the registered source/version it was
        # admitted with, so a concurrent reload never changes a request
        # mid-flight (in-flight jobs drain on the old version).
        body = self.models.resolve(op, body)
        if op == "simulate" and not self.config.compile_sims:
            body = dict(body)
            body["compile"] = False
        ctx: Optional[obs_context.TraceContext] = None
        if self.config.tracing:
            # Continue the client's trace when it sent a (valid)
            # traceparent; mint a fresh one otherwise.
            parent = None
            if request is not None:
                parent = obs_context.parse_traceparent(
                    request.headers.get(obs_context.TRACEPARENT_HEADER)
                )
            ctx = (parent or obs_context.new_context()).with_request_id(request_id)
        headers = {"X-Repro-Request-Id": request_id}
        t_admit = time.monotonic()

        if self.draining:
            self.registry.counter("serve.draining_rejected").inc()
            return self._finish(
                op, 503, request_id, ctx, t_admit,
                self._backoff(
                    protocol.error_envelope(503, "server is draining"), headers
                ),
                headers, error="server is draining",
            )
        try:
            timeout_s = self._timeout_for(body)
        except protocol.ProtocolError as exc:
            return self._finish(
                op, exc.status, request_id, ctx, t_admit,
                protocol.error_envelope(exc.status, exc.message),
                headers, error=exc.message,
            )
        job = Job(
            job_id=next(self._job_ids),
            op=op,
            payload=body,
            arrival=t_admit,
            deadline=t_admit + timeout_s,
            request_id=request_id,
            ctx=ctx,
        )
        try:
            self.queue.submit(job)
        except QueueFull as exc:
            self.registry.counter("serve.rejected_queue_full").inc()
            return self._finish(
                op, 429, request_id, ctx, t_admit,
                self._backoff(protocol.error_envelope(429, str(exc)), headers),
                headers, error=str(exc),
            )
        except QueueClosed:
            self.registry.counter("serve.draining_rejected").inc()
            return self._finish(
                op, 503, request_id, ctx, t_admit,
                self._backoff(
                    protocol.error_envelope(503, "server is draining"), headers
                ),
                headers, error="server is draining",
            )
        self.registry.counter(f"serve.op.{op}").inc()
        # The dispatcher always resolves the future (worker alarm, then
        # parent backstop); the extra slack here only guards against a
        # dispatcher bug turning into a hung connection.
        try:
            outcome = await asyncio.wait_for(
                job.future, timeout_s + 2 * self.config.grace_s + BACKSTOP_SLACK_S
            )
        except asyncio.TimeoutError:
            outcome = {
                "status": 504,
                "error": "deadline exceeded (no answer from the dispatcher)",
                "where": "server",
            }
        elapsed_s = time.monotonic() - job.arrival
        elapsed_ms = elapsed_s * 1000.0
        self.registry.histogram("serve.request_seconds").observe(elapsed_s)
        status = outcome.get("status", 500)
        worker_spans = outcome.pop("spans", None)
        phases = outcome.pop("phases", None) or phases_from_spans(worker_spans)
        spans = None
        if worker_spans is not None and ctx is not None:
            spans = self._stitch(job, worker_spans, outcome, elapsed_s)
        if status == 200:
            envelope = protocol.ok_envelope(
                outcome.get("result"), elapsed_ms=round(elapsed_ms, 3)
            )
        else:
            if status == 504:
                self.registry.counter("serve.deadline_exceeded").inc()
            envelope = protocol.error_envelope(
                status,
                str(outcome.get("error", "job failed")),
                where=outcome.get("where"),
            )
            envelope["elapsed_ms"] = round(elapsed_ms, 3)
            if status == 504 and phases:
                # Where the budget went before the deadline fired.
                envelope["phases_ms"] = {
                    k: round(v, 3) for k, v in phases.items()
                }
        return self._finish(
            op, status, request_id, ctx, t_admit, envelope, headers,
            where=outcome.get("where"), spans=spans, phases=phases,
            error="" if status == 200 else str(outcome.get("error", ""))[:200],
        )

    def _finish(
        self,
        op: str,
        status: int,
        request_id: str,
        ctx: Optional[obs_context.TraceContext],
        t_admit: float,
        envelope: Dict[str, Any],
        headers: Dict[str, str],
        *,
        where: Optional[str] = None,
        spans: Optional[List[Dict[str, Any]]] = None,
        phases: Optional[Dict[str, float]] = None,
        error: str = "",
    ) -> Tuple[int, Dict[str, Any], Optional[Dict[str, str]]]:
        """Every request's exit ramp: histogram, flight record, access log.

        Early rejections (429/503/bad timeout) come through here too, so
        the flight recorder sees *every* admission decision, not just
        jobs that reached a worker.
        """
        elapsed_ms = (time.monotonic() - t_admit) * 1000.0
        trace_id = ctx.trace_id if ctx is not None else ""
        self.registry.histogram(
            labeled("serve.endpoint_seconds", endpoint=op, status=status)
        ).observe(elapsed_ms / 1000.0)
        if spans:
            self.registry.counter("serve.traced_requests").inc()
        self.recorder.record(
            RequestRecord(
                request_id=request_id,
                trace_id=trace_id,
                op=op,
                status=status,
                where=where,
                elapsed_ms=elapsed_ms,
                phases=dict(phases or {}),
                error=error,
                spans=spans,
            )
        )
        envelope["request_id"] = request_id
        if trace_id:
            envelope["trace_id"] = trace_id
        fields: Dict[str, Any] = {
            "op": op,
            "status": status,
            "elapsed_ms": round(elapsed_ms, 3),
            "request_id": request_id,
        }
        if trace_id:
            fields["trace_id"] = trace_id
        if where:
            fields["where"] = where
        obs_log.log_event(
            self._log,
            logging.INFO if status < 500 else logging.ERROR,
            "serve.request",
            f"{op} -> {status} in {elapsed_ms:.1f}ms",
            **fields,
        )
        return status, envelope, headers

    def _stitch(
        self,
        job: Job,
        worker_spans: List[Dict[str, Any]],
        outcome: Dict[str, Any],
        elapsed_s: float,
    ) -> List[Dict[str, Any]]:
        """One request tree: request root → queue.wait / worker → pipeline.

        Three synthetic server-side spans (ids 1–3) frame the request on
        the server's timeline; the worker's span batch is appended with
        ids shifted past them and ``start`` rebased from the worker's
        clock onto seconds-since-admission (worker t0 ≈ dispatch time,
        so the rebase offset is the queue wait).
        """
        dispatched = job.dispatched if job.dispatched is not None else job.arrival
        queue_wait = max(0.0, dispatched - job.arrival)
        worker_elapsed = float(outcome.get("elapsed_s") or 0.0)
        spans: List[Dict[str, Any]] = [
            {
                "span": 1, "parent": None, "name": f"request.{job.op}",
                "start": 0.0, "dur": round(elapsed_s, 9),
                "attrs": {"op": job.op, "request_id": job.request_id},
            },
            {
                "span": 2, "parent": 1, "name": "queue.wait",
                "start": 0.0, "dur": round(queue_wait, 9), "attrs": {},
            },
            {
                "span": 3, "parent": 1, "name": "worker",
                "start": round(queue_wait, 9), "dur": round(worker_elapsed, 9),
                "attrs": {},
            },
        ]
        for s in worker_spans:
            parent = s.get("parent")
            spans.append(
                {
                    "span": int(s.get("span", 0)) + 3,
                    "parent": int(parent) + 3 if parent is not None else 3,
                    "name": s.get("name", "?"),
                    "start": round(queue_wait + float(s.get("start", 0.0)), 9),
                    "dur": s.get("dur", 0.0),
                    "attrs": s.get("attrs") or {},
                }
            )
        return spans

    # -- dispatchers ---------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        assert self._loop is not None
        while True:
            job = await self.queue.get()
            if job is None:
                return
            try:
                outcome = await self._run_job(job)
                metrics = outcome.pop("metrics", None)
                if metrics:
                    self.registry.merge(metrics)
                if not job.future.done():
                    job.future.set_result(outcome)
            except Exception as exc:  # dispatcher must never die
                if not job.future.done():
                    job.future.set_result(
                        {"status": 500, "error": f"dispatch failed: {exc!r}"}
                    )
            finally:
                self.queue.task_done()

    async def _run_job(self, job: Job) -> Dict[str, Any]:
        remaining = job.remaining()
        if remaining is not None and remaining <= 0:
            # Died waiting in the queue; never reached a worker.
            return {
                "status": 504,
                "error": "deadline exceeded while queued",
                "where": "queue",
            }
        assert self._pool is not None and self._loop is not None
        trace = job.ctx.to_dict() if job.ctx is not None else None
        # Absolute deadline (CLOCK_MONOTONIC is system-wide, so the
        # forked worker can read it): the worker arms its alarm for the
        # time actually left, so a job that starts late under CPU
        # pressure still cancels in-worker instead of handing the 504
        # to the parent backstop.
        deadline = None if remaining is None else time.monotonic() + remaining
        fut = self._loop.run_in_executor(
            self._pool, run_job, (job.op, job.payload, remaining, trace, deadline)
        )
        backstop = None if remaining is None else remaining + self.config.grace_s
        try:
            return await asyncio.wait_for(fut, backstop)
        except asyncio.TimeoutError:
            # The worker alarm failed to fire (non-POSIX / blocked in C
            # code); abandon the future and surrender the worker slot.
            self._abandoned += 1
            self.registry.counter("serve.abandoned_jobs").inc()
            return {
                "status": 504,
                "error": "deadline exceeded (worker did not cancel in time)",
                "where": "parent",
            }


class _RawText:
    """A non-JSON response body (the Prometheus exposition)."""

    __slots__ = ("text", "content_type")

    def __init__(
        self, text: str,
        content_type: str = "text/plain; version=0.0.4; charset=utf-8",
    ) -> None:
        self.text = text
        self.content_type = content_type


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_server(config: Optional[ServeConfig] = None, *, ready=None) -> int:
    """Blocking entry point (the ``repro serve`` CLI): run until drained."""
    obs_log.configure()
    log = obs_log.get_logger("repro.serve")

    async def main() -> None:
        server = Server(config)
        await server.start()
        server.install_signal_handlers()
        obs_log.log_event(
            log, logging.INFO, "serve.start",
            f"listening on {server.config.host}:{server.port} "
            f"({server.config.effective_workers()} workers, "
            f"queue {server.config.queue_size})",
            host=server.config.host,
            port=server.port,
            workers=server.config.effective_workers(),
            queue_size=server.config.queue_size,
            tracing=server.config.tracing,
        )
        if ready is not None:
            ready(server)
        await server.serve_forever()
        obs_log.log_event(log, logging.INFO, "serve.drained", "drained, bye")

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    return 0


class ServerHandle:
    """A server running on a background thread (tests, benchmarks).

    ::

        handle = ServerHandle(ServeConfig(port=0, workers=2))
        handle.start()
        ...ServeClient("127.0.0.1", handle.port)...
        handle.stop()
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig(port=0)
        self.server: Optional[Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        assert self.server is not None and self.server.port is not None
        return self.server.port

    @property
    def registry(self) -> MetricsRegistry:
        assert self.server is not None
        return self.server.registry

    def prepare(self) -> "ServerHandle":
        """Fork the worker pool before any listener binds.

        Optional for a lone server (``start()`` forks before its own
        bind anyway); required across servers sharing a process — see
        :meth:`Server.prepare_pool`.
        """
        if self.server is None:
            self.server = Server(self.config)
        self.server.prepare_pool()
        return self

    def start(self, timeout: float = 30.0) -> "ServerHandle":
        def runner() -> None:
            async def main() -> None:
                if self.server is None:
                    self.server = Server(self.config)
                await self.server.start()
                self._loop = asyncio.get_running_loop()
                self._ready.set()
                await self.server.serve_forever()

            try:
                asyncio.run(main())
            except BaseException as exc:  # surface startup failures
                self._error = exc
                self._ready.set()

        self._thread = threading.Thread(
            target=runner, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server did not start in time")
        if self._error is not None:
            raise RuntimeError(f"server failed to start: {self._error!r}")
        return self

    def drain(self) -> None:
        """Trigger graceful drain from any thread (what SIGTERM does)."""
        assert self.server is not None and self._loop is not None
        self._loop.call_soon_threadsafe(self.server.request_drain)

    def stop(self, timeout: float = 60.0) -> None:
        """Drain and join the server thread."""
        if self._thread is None:
            # prepare()d but never started: only the pool exists.
            if self.server is not None and self.server._pool is not None:
                self.server._pool.shutdown(wait=False, cancel_futures=True)
            return
        if self.server is not None and self._loop is not None:
            try:
                self.drain()
            except RuntimeError:
                pass
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("server thread did not stop in time")

    def __enter__(self) -> "ServerHandle":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
