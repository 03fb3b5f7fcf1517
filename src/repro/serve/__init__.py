"""``repro.serve`` — the online synthesis & model-query service.

The batch pipeline (slice → classify → explore → refactor) answers one
CLI invocation at a time; this package turns it into a long-lived
service the way NFV controllers consume NF models online: a stdlib-only
asyncio JSON-over-HTTP server whose hot path is the persistent artifact
cache (:mod:`repro.cache`), so a warm ``synthesize`` is one cache
lookup away from the wire.

Production shape (docs/internals.md §10):

- a **bounded request queue** with explicit backpressure — a full
  queue rejects immediately with HTTP 429, it never buffers unbounded;
- **per-request deadlines** with real cancellation — an expired job is
  interrupted *inside* the worker process (``SIGALRM``), freeing the
  worker for the next request instead of abandoning it;
- a **process worker pool** (reusing :mod:`repro.parallel` idioms) so
  CPU-bound synthesis never blocks the event loop; each job ships its
  metrics snapshot home and the server folds it into its registry;
- **graceful drain** on SIGTERM — stop accepting, finish in-flight
  requests, flush the persistent constraint cache, exit 0;
- **end-to-end request tracing** (docs/internals.md §11) — every
  request carries a W3C ``traceparent`` context from the client through
  the queue into the worker, whose span batch is stitched into one tree
  and kept in an always-on flight recorder (``GET /debugz/requests``,
  ``repro trace``), with structured JSON logs tagged by request id.

Artifact push (docs/internals.md §13): ``PUT /cas/<kind>/<key>``
stores one framed cache artifact, checksum-verified on receipt, so
``repro watch`` can fill the workers' cache before it flips a target
with ``POST /v1/reload``.

Modules: :mod:`~repro.serve.protocol` (HTTP/JSON framing),
:mod:`~repro.serve.queue` (admission control),
:mod:`~repro.serve.jobs` (worker-side request handlers),
:mod:`~repro.serve.registry` (hot-swappable model targets),
:mod:`~repro.serve.server` (the asyncio server),
:mod:`~repro.serve.client` (blocking client library used by
``repro query``, ``repro watch`` and the benchmarks).
"""

from __future__ import annotations

from repro.serve.client import ServeClient, ServeError, ServeResponse
from repro.serve.protocol import ProtocolError
from repro.serve.queue import BoundedRequestQueue, QueueClosed, QueueFull
from repro.serve.server import Server, ServeConfig, ServerHandle, run_server

__all__ = [
    "BoundedRequestQueue",
    "ProtocolError",
    "QueueClosed",
    "QueueFull",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServeResponse",
    "Server",
    "ServerHandle",
    "run_server",
]
