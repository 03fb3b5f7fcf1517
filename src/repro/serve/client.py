"""Blocking client library for :mod:`repro.serve`.

Used by the ``repro query`` CLI subcommand, the ``repro watch`` push,
the lifecycle tests and ``benchmarks/bench_serve.py``.  Connections
are **kept alive and reused** across sequential requests — per
*thread*, so N loadgen threads can still share one
:class:`ServeClient` (each gets its own socket).  A request that
trips over a stale socket (server idled it out, draining server closed
it) transparently reconnects and retries once; every op is a
deterministic cached computation, so the retry can never double-run
side effects.

>>> client = ServeClient("127.0.0.1", 8000)          # doctest: +SKIP
>>> client.synthesize("nat").result["name"]          # doctest: +SKIP
'nat'
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import context as obs_context
from repro.serve.protocol import parse_client_response, valid_cas_path


class ServeError(Exception):
    """A transport-level failure (connection refused, timeout, ...)."""


@dataclass
class ServeResponse:
    """One decoded response envelope plus its HTTP status."""

    status: int
    ok: bool
    payload: Dict[str, Any] = field(default_factory=dict)
    #: Server-minted request id (``X-Repro-Request-Id`` / envelope).
    request_id: Optional[str] = None
    #: The distributed trace id this request ran under (the one the
    #: client sent, echoed back in the envelope when tracing is on).
    trace_id: Optional[str] = None

    @property
    def result(self) -> Any:
        return self.payload.get("result")

    @property
    def error_code(self) -> Optional[str]:
        error = self.payload.get("error") or {}
        return error.get("code")

    @property
    def error_message(self) -> Optional[str]:
        error = self.payload.get("error") or {}
        return error.get("message")

    @property
    def elapsed_ms(self) -> Optional[float]:
        return self.payload.get("elapsed_ms")

    @property
    def retry_after_s(self) -> Optional[float]:
        """The jittered backoff hint on 429/503 rejections."""
        return self.payload.get("retry_after_s")

    def raise_for_status(self) -> "ServeResponse":
        if not self.ok:
            raise ServeError(
                f"HTTP {self.status} [{self.error_code}]: {self.error_message}"
            )
        return self


class ServeClient:
    """A minimal JSON-over-HTTP client for the serve endpoints.

    Every request carries a W3C ``traceparent`` header (unless
    ``tracing=False``): a child of the ambient
    :class:`repro.obs.context.TraceContext` when one is bound — so a
    traced caller's requests join its trace — else a fresh root
    context.  The server echoes the trace/request ids back in the
    envelope (:attr:`ServeResponse.trace_id` /
    :attr:`ServeResponse.request_id`), which is all ``repro trace show``
    needs to pull the stitched span tree from ``/debugz``.
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8000,
        timeout: float = 120.0, tracing: bool = True,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.tracing = tracing
        self._local = threading.local()

    # -- transport -----------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's kept-alive connection (created on first use)."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._local.conn = conn
        return conn

    def _drop_connection(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            self._local.conn = None
            try:
                conn.close()
            except (OSError, http.client.HTTPException):
                pass

    def close(self) -> None:
        """Close the calling thread's kept-alive connection (idempotent)."""
        self._drop_connection()

    def request(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None,
        ctx: Optional[obs_context.TraceContext] = None,
    ) -> ServeResponse:
        if ctx is None and self.tracing:
            ambient = obs_context.current()
            ctx = ambient.child() if ambient is not None else obs_context.new_context()
        payload = None
        headers: Dict[str, str] = {}
        if ctx is not None:
            headers[obs_context.TRACEPARENT_HEADER] = ctx.traceparent()
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        status, raw, request_id = self._exchange(method, path, payload, headers)
        ok, decoded = parse_client_response(status, raw)
        return ServeResponse(
            status=status,
            ok=ok and status == 200,
            payload=decoded,
            request_id=decoded.get("request_id") or request_id,
            trace_id=decoded.get("trace_id")
            or (ctx.trace_id if ctx is not None else None),
        )

    def _exchange(
        self, method: str, path: str, payload: Optional[bytes],
        headers: Dict[str, str],
    ) -> Tuple[int, bytes, Optional[str]]:
        """One round trip: (status, body, ``X-Repro-Request-Id``)."""
        # Attempt 0 rides the kept-alive socket; if that socket went
        # stale (idled out, server drained), reconnect and retry once on
        # a fresh one.  Deterministic idempotent ops make this safe.
        for _attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                raw = response.read()
                if response.will_close:
                    self._drop_connection()
                return (
                    response.status, raw,
                    response.getheader("X-Repro-Request-Id"),
                )
            except (OSError, http.client.HTTPException) as exc:
                self._drop_connection()
                error = exc
        raise ServeError(f"{method} {path} failed: {error}") from error

    # -- endpoints -----------------------------------------------------------

    def healthz(self) -> ServeResponse:
        return self.request("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        """The metrics snapshot (counters/gauges/histograms dicts)."""
        response = self.request("GET", "/metrics?format=json").raise_for_status()
        return response.result or {}

    def metrics_text(self) -> str:
        """The Prometheus text exposition."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            if response.status != 200:
                raise ServeError(f"GET /metrics -> HTTP {response.status}")
            return response.read().decode("utf-8")
        except (OSError, http.client.HTTPException) as exc:
            raise ServeError(f"GET /metrics failed: {exc}") from exc
        finally:
            conn.close()

    def debugz(
        self,
        kind: str = "requests",
        n: Optional[int] = None,
        request_id: Optional[str] = None,
    ) -> ServeResponse:
        """One flight-recorder view (``requests`` / ``slow`` / ``errors``).

        With ``request_id``, returns that request's detail — summary
        plus the stitched span tree — regardless of ``kind``.
        """
        params = []
        if request_id:
            params.append(f"id={request_id}")
        if n is not None:
            params.append(f"n={n}")
        path = f"/debugz/{kind}" + ("?" + "&".join(params) if params else "")
        return self.request("GET", path)

    def trace_detail(self, request_id: str) -> Dict[str, Any]:
        """The stitched record for one request id (raises if evicted)."""
        return self.debugz(request_id=request_id).raise_for_status().result or {}

    def _op(self, op: str, body: Dict[str, Any]) -> ServeResponse:
        return self.request("POST", f"/v1/{op}", body)

    def synthesize(
        self,
        nf: Optional[str] = None,
        source: Optional[str] = None,
        name: Optional[str] = None,
        entry: Optional[str] = None,
        timeout_s: Optional[float] = None,
    ) -> ServeResponse:
        body: Dict[str, Any] = {}
        if nf is not None:
            body["nf"] = nf
        if source is not None:
            body["source"] = source
        if name is not None:
            body["name"] = name
        if entry is not None:
            body["entry"] = entry
        if timeout_s is not None:
            body["timeout_s"] = timeout_s
        return self._op("synthesize", body)

    def simulate(
        self,
        nf: Optional[str] = None,
        packets: Optional[List[Dict[str, int]]] = None,
        source: Optional[str] = None,
        name: Optional[str] = None,
        entry: Optional[str] = None,
        timeout_s: Optional[float] = None,
        compile: Optional[bool] = None,
    ) -> ServeResponse:
        body: Dict[str, Any] = {"packets": packets or []}
        if compile is not None:
            body["compile"] = compile
        if nf is not None:
            body["nf"] = nf
        if source is not None:
            body["source"] = source
        if name is not None:
            body["name"] = name
        if entry is not None:
            body["entry"] = entry
        if timeout_s is not None:
            body["timeout_s"] = timeout_s
        return self._op("simulate", body)

    def verify(
        self, chain: List[str], timeout_s: Optional[float] = None
    ) -> ServeResponse:
        body: Dict[str, Any] = {"chain": chain}
        if timeout_s is not None:
            body["timeout_s"] = timeout_s
        return self._op("verify", body)

    def verify_graph(
        self,
        nodes: Optional[List[Tuple[str, str]]] = None,
        edges: Optional[List[Tuple[str, str]]] = None,
        generate: Optional[Dict[str, Any]] = None,
        timeout_s: Optional[float] = None,
    ) -> ServeResponse:
        """Verify a DAG service graph (``POST /v1/verify_graph``).

        Either pass ``nodes`` ([(name, corpus_nf), ...]) + ``edges``
        ([(src, dst), ...]), or ``generate`` ({"n": ..., "seed": ...})
        for a seeded topology built server-side.
        """
        body: Dict[str, Any] = {}
        if nodes is not None:
            body["nodes"] = [list(pair) for pair in nodes]
            body["edges"] = [list(pair) for pair in edges or []]
        if generate is not None:
            body["generate"] = generate
        if timeout_s is not None:
            body["timeout_s"] = timeout_s
        return self._op("verify_graph", body)

    def compose(
        self,
        chain_a: List[str],
        chain_b: List[str],
        timeout_s: Optional[float] = None,
    ) -> ServeResponse:
        body: Dict[str, Any] = {"chain_a": chain_a, "chain_b": chain_b}
        if timeout_s is not None:
            body["timeout_s"] = timeout_s
        return self._op("compose", body)

    def testgen(
        self, nf: str, timeout_s: Optional[float] = None
    ) -> ServeResponse:
        body: Dict[str, Any] = {"nf": nf}
        if timeout_s is not None:
            body["timeout_s"] = timeout_s
        return self._op("testgen", body)

    def reload(
        self,
        name: str,
        source: str,
        entry: Optional[str] = None,
        note: Optional[str] = None,
    ) -> ServeResponse:
        """Hot-swap ``name`` to ``source`` (``POST /v1/reload``).

        The result carries the registered version number and model key;
        ``updated`` is False when the source was already current.
        """
        body: Dict[str, Any] = {"name": name, "source": source}
        if entry is not None:
            body["entry"] = entry
        if note is not None:
            body["note"] = note
        return self.request("POST", "/v1/reload", body)

    def push_artifact(self, kind: str, key: str, framed: bytes) -> bool:
        """Push one framed artifact (``PUT /cas/<kind>/<key>``).

        ``framed`` is the store's on-disk bytes
        (:meth:`~repro.cache.store.ArtifactStore.get_raw`); the server
        checksum-verifies them before storing.  True when stored; False
        for an invalid kind/key or a rejected frame.  Re-sending is
        harmless (the key is the content address), so the stale-socket
        retry applies here too.
        """
        if not valid_cas_path(kind, key):
            return False
        status, _raw, _request_id = self._exchange(
            "PUT", f"/cas/{kind}/{key}", framed,
            {"Content-Type": "application/octet-stream"},
        )
        return status == 200

    def models(self) -> Dict[str, Any]:
        """The server's loaded model-registry versions (from ``/healthz``).

        ``{name: {"version": ..., "model_key": ..., ...}}`` — what
        confirms a hot-swap landed.
        """
        response = self.healthz().raise_for_status()
        return (response.result or {}).get("models", {})

    # -- convenience ---------------------------------------------------------

    def wait_until_up(self, timeout: float = 30.0, interval: float = 0.1) -> bool:
        """Poll ``/healthz`` until the server answers (startup races)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                if self.healthz().status == 200:
                    return True
            except ServeError:
                pass
            time.sleep(interval)
        return False
