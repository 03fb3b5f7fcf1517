"""serve-mixed: a read/write mix against one ``repro serve``.

This workload runs by hand (``--workload serve-mixed``) and is not in
``BENCHMARK.json``: over ten seeds of the same code its end-to-end
figures spread 10-27% (IQR over median) between runs on a shared
2-vCPU host, against a 25% bound, where the other workloads stay
within 3-16%.  Server, workers and client share the host's
co-tenants in ways one process's speed readings do not capture.

The server runs as its own process at its defaults (one worker per CPU,
no cluster) over a private cache directory.  Set-up (``setup_s``)
starts it and warms it with a ``synthesize`` and a ``simulate`` of every
corpus NF.  Then the server, its workers and this process move onto one
CPU (:func:`pin_to_one_cpu`), and the load comes from this process over
:data:`CONNECTIONS` kept-alive connections.

The seeded mix is mostly warm reads (``synthesize`` and 64-packet
``simulate`` across the corpus, 45 distinct reads) with
:data:`WRITES_PER_BLOCK` writes per 45 reads: a source-carrying
``synthesize`` of a fresh one-literal variant of :data:`WRITE_NF`,
which misses every cache tier and runs the whole pipeline in a worker.

Two phases alternate in :data:`WINDOWS` windows each.  A closed loop
keeps every connection busy, so reads and writes contend for the
workers and the CPU; it gives every end-to-end metric, in nominal
seconds (:class:`harness.Speed`, one factor for the whole measurement
from the median of the readings taken between windows):

- ``p50_ms`` / ``tail_ms``: median and tail over the 45 reads of each
  read's median latency;
- ``cold_s``: median latency of the writes;
- ``ops_per_s``: requests completed per second.

An open loop at :data:`FIXED_RPS` requests per nominal second, each
request timed from when it was due, gets :data:`FIXED_SHARE` of the
run.  Its latencies go to the run record, and its windows give the
traced run's queue, worker and generator figures.  They gate nothing:
on a shared 2-vCPU host the open loop's read tail spread 18-46% between
runs of the same code, its median 10-40%, whatever the statistic.

With ``--trace 1`` the per-layer numbers are read from outside the
server (see :func:`layer_metrics`); the requests go out exactly as in
an untraced run, except that each write's span tree is fetched from the
flight recorder as its reply arrives.

Every 200 is checked against an in-process reference (interpreted
simulator, cache-free synthesis), computed before set-up for the reads
and after the run for the writes sent; every write must report
``cached: false``.
"""

from __future__ import annotations

import json
import os
import queue
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from harness import (
    REFERENCE_S,
    Outcome,
    child_pids,
    edit_literal,
    editable_literals,
    median,
    per_op,
    process_tree_peak_rss_mb,
    run_setups,
    summary,
    tail,
)
from corpus import HEAVY, nf_seed, trace_packets
from repro.serve.client import ServeClient, ServeError
from tracing import CACHE_TIERS

CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
SIM_PACKETS = 64
SIM_INPUTS_PER_NF = 4
#: Writes per block of 45 reads (9 NFs x (1 synthesize + 4 simulate)).
WRITES_PER_BLOCK = 3
#: Every write is a one-literal variant of this NF (the paper's running
#: example), so write latencies come from one distribution.
WRITE_NF = "loadbalancer"
#: Offered rate of the fixed-rate phase, in requests per nominal second
#: (:class:`harness.Speed`): about a third of what the server sustains
#: on one CPU.
FIXED_RPS = 30.0
#: Share of ``--seconds`` spent at the fixed rate; the closed loop gets
#: the rest.
FIXED_SHARE = 0.3
#: The two phases alternate in this many windows each, so both sample
#: the whole run.
WINDOWS = 5
#: Requests drawn for the closed loop per second of it: more than the
#: server completes on a 2-CPU machine.
CLOSED_MAX_RPS = 400
START_TIMEOUT_S = 60.0


@dataclass
class Request:
    op: str
    body: Dict[str, Any]
    #: Key of the expected result in the reference.
    ref: Tuple
    write: bool = False


@dataclass
class Reply:
    request: Request
    due: float
    start: float = 0.0
    end: float = 0.0
    status: int = 0
    payload: Dict[str, Any] = field(default_factory=dict)
    request_id: Optional[str] = None
    error: Optional[str] = None
    #: The server's span tree for this request (traced writes only).
    spans: Optional[List[Dict[str, Any]]] = None

    @property
    def latency(self) -> float:
        return self.end - self.due


# -- the server process -----------------------------------------------------------


@dataclass
class Server:
    proc: subprocess.Popen
    port: int
    log: Any


def start_server(ctx, tag: str) -> Server:
    cache_dir = ctx.scratch(f"serve-cache-{tag}")
    log = open(ctx.scratch(f"serve-{tag}.log"), "w+")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
         "--port", "0", "--cache-dir", str(cache_dir)],
        stdout=log, stderr=subprocess.STDOUT, cwd=str(ctx.work),
        # One string-hash seed for every run: the server's dict and set
        # orders, and with them its work, then repeat from run to run.
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    deadline = time.monotonic() + START_TIMEOUT_S
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            break
        log.seek(0)
        for line in log:
            if '"serve.start"' in line:
                return Server(proc, int(json.loads(line)["port"]), log)
        time.sleep(0.02)
    stop_server(Server(proc, 0, log))
    raise RuntimeError(f"repro serve did not start within {START_TIMEOUT_S}s")


def stop_server(server: Server) -> None:
    """SIGTERM (graceful drain), then wait until every process is gone."""
    children = child_pids(server.proc.pid)
    if server.proc.poll() is None:
        server.proc.send_signal(signal.SIGTERM)
        try:
            server.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.proc.kill()
            server.proc.wait(timeout=30)
    for pid in children:
        # Workers are the server's children, not ours: poll, not wait.
        for attempt in range(400):
            try:
                os.kill(pid, signal.SIGKILL if attempt == 200 else 0)
            except OSError:
                break
            time.sleep(0.05)
    server.log.close()


# -- the load generator -------------------------------------------------------


def send(client: ServeClient, reply: Reply) -> None:
    """POST ``reply.request`` and fill in the reply."""
    request = reply.request
    try:
        response = client.request("POST", f"/v1/{request.op}", request.body)
        reply.status, reply.payload = response.status, response.payload
        reply.request_id = response.request_id
    except ServeError as exc:
        reply.error = str(exc)
    reply.end = time.perf_counter()


def run_connections(port: int, loop: Callable[[ServeClient], None]) -> None:
    """Run ``loop`` on :data:`CONNECTIONS` threads, each with its own
    client and kept-alive connection, and wait for all of them."""

    def connection() -> None:
        client = ServeClient(port=port, tracing=False)
        try:
            loop(client)
        finally:
            client.close()

    threads = [threading.Thread(target=connection) for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
        if t.is_alive():
            raise RuntimeError("a load-generator connection did not finish")


def drive_closed(port: int, requests: List[Request], seconds: float) -> Tuple[List[Reply], float]:
    """Keep every connection busy for ``seconds``; (replies, elapsed)."""
    replies: List[Reply] = []
    lock = threading.Lock()
    feed = iter(requests)
    t0 = time.perf_counter()
    stop = t0 + seconds

    def loop(client: ServeClient) -> None:
        while time.perf_counter() < stop:
            with lock:
                request = next(feed, None)
            if request is None:
                break
            reply = Reply(request, time.perf_counter())
            reply.start = reply.due
            send(client, reply)
            with lock:
                replies.append(reply)

    run_connections(port, loop)
    return replies, max(r.end for r in replies) - t0


def drive(port: int, schedule: List[Tuple[float, Request]], write_spans: bool = False) -> List[Reply]:
    """Send ``schedule`` (offsets in seconds) open loop; wait for all
    replies.  With ``write_spans``, each write's span tree is read from
    the server's flight recorder as soon as its reply arrives."""
    pending: "queue.Queue[Optional[Reply]]" = queue.Queue()
    replies: List[Reply] = []

    def loop(client: ServeClient) -> None:
        while True:
            reply = pending.get()
            if reply is None:
                return
            reply.start = time.perf_counter()
            send(client, reply)
            if write_spans and reply.request.write and reply.request_id:
                reply.spans = client.trace_detail(reply.request_id).get("spans", [])

    def dispatch() -> None:
        t0 = time.perf_counter()
        for offset, request in schedule:
            due = t0 + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            reply = Reply(request, due)
            replies.append(reply)
            pending.put(reply)
        for _ in range(CONNECTIONS):
            pending.put(None)

    dispatcher = threading.Thread(target=dispatch)
    dispatcher.start()
    run_connections(port, loop)
    dispatcher.join(timeout=300)
    return replies


# -- inputs and the in-process reference ------------------------------------------


@dataclass
class Inputs:
    names: List[str]
    reads: Dict[Tuple, Any]
    sim_packets: Dict[Tuple, List[Dict[str, int]]]
    writes: List[Tuple[str, str]]
    #: Expected model of each write, computed when it is first checked:
    #: the closed loop draws more writes than it gets to send.
    write_models: Dict[int, Any] = field(default_factory=dict)

    def write_model(self, index: int) -> Any:
        if index not in self.write_models:
            from repro.model.serialize import model_to_json
            from repro.nfactor.algorithm import NFactor, NFactorConfig
            from repro.nfs import get_nf

            name, source = self.writes[index]
            result = NFactor(source, name=name, entry=get_nf(name).entry,
                             config=NFactorConfig(artifact_cache=False)).synthesize()
            self.write_models[index] = json.loads(model_to_json(result.model))
        return self.write_models[index]


def reference(ctx, n_writes: int) -> Inputs:
    """Seeded request inputs and their expected results, computed
    in-process with the artifact cache off and the interpreted
    simulator (not the served compiled one)."""
    from repro.interp.values import deep_copy
    from repro.model.serialize import model_to_json
    from repro.model.simulator import ModelSimulator
    from repro.net.packet import Packet
    from repro.nfactor.algorithm import NFactor, NFactorConfig
    from repro.nfs import get_nf, nf_names

    config = NFactorConfig(artifact_cache=False)
    names = nf_names()
    reads: Dict[Tuple, Any] = {}
    sim_packets: Dict[Tuple, List[Dict[str, int]]] = {}
    for name in names:
        spec = get_nf(name)
        result = NFactor(spec.source, name=name, entry=spec.entry, config=config).synthesize()
        reads[("synthesize", name)] = json.loads(model_to_json(result.model))
        trace = trace_packets(
            name, SIM_PACKETS * SIM_INPUTS_PER_NF, nf_seed(ctx.seed, "serve", name))
        for k in range(SIM_INPUTS_PER_NF):
            packets = [p.to_dict() for p in trace[k * SIM_PACKETS:(k + 1) * SIM_PACKETS]]
            sim = ModelSimulator(result.model, deep_copy(result.module_env), pkt_param=result.pkt_param)
            outputs = []
            for fields in packets:
                sent = sim.process(Packet.from_dict(fields))
                outputs.append({
                    "forwarded": bool(sent),
                    "sent": [{"packet": out.to_dict(), "port": port} for out, port in sent],
                })
            sim_packets[(name, k)] = packets
            reads[("simulate", name, k)] = json.loads(json.dumps(outputs))

    spec = get_nf(WRITE_NF)
    sites = len(editable_literals(spec.source))
    # The writes walk the literals in turn, so every run writes the same
    # mix of variants; raising a literal by the write's own index keeps
    # every variant distinct, so each one misses every cache tier.
    writes = [(WRITE_NF, edit_literal(spec.source, k % sites, raise_by=k + 1))
              for k in range(n_writes)]
    return Inputs(names, reads, sim_packets, writes)


def mix(seed: int, counts: List[int], names: List[str]) -> List[List[int]]:
    """Request slots for phases of the given sizes; a slot < 0 is the
    ``-slot - 1``-th write.

    Requests come in blocks: a seeded shuffle of every read slot once
    (each NF's ``synthesize`` and its simulate inputs), with
    :data:`WRITES_PER_BLOCK` writes at even spacing, so every stretch of
    the stream has the same proportions whatever the seed.  Writes at
    seeded positions bunched up in some runs and not in others, and the
    reads queued behind them set the tail.
    """
    rng = random.Random(f"serve-mix:{seed}")
    reads = len(names) * (1 + SIM_INPUTS_PER_NF)
    every = reads // WRITES_PER_BLOCK
    stream: List[int] = []
    out = []
    writes = 0
    for n in counts:
        slots = []
        for _ in range(n):
            if not stream:
                shuffled = rng.sample(range(reads), reads)
                block = []
                for i, slot in enumerate(shuffled):
                    block.append(slot)
                    if (i + 1) % every == 0:
                        block.append(-1)
                stream = block[::-1]
            slot = stream.pop()
            if slot < 0:
                writes += 1
                slot = -writes
            slots.append(slot)
        out.append(slots)
    return out


def request_for(slot: int, inputs: Inputs) -> Request:
    if slot < 0:
        index = -slot - 1
        name, source = inputs.writes[index]
        return Request("synthesize", {"source": source, "name": name}, ("write", index), write=True)
    name = inputs.names[slot // (1 + SIM_INPUTS_PER_NF)]
    k = slot % (1 + SIM_INPUTS_PER_NF)
    if k == 0:
        return Request("synthesize", {"nf": name}, ("synthesize", name))
    packets = inputs.sim_packets[(name, k - 1)]
    return Request("simulate", {"nf": name, "packets": packets}, ("simulate", name, k - 1))


def verify(reply: Reply, inputs: Inputs) -> Optional[str]:
    """None when the reply is a 200 matching the reference."""
    request = reply.request
    if reply.error is not None:
        return f"{request.op}: transport error {reply.error}"
    if reply.status != 200:
        return f"{request.op} {request.ref}: HTTP {reply.status}"
    result = reply.payload["result"]
    if request.write:
        if result.get("cached") is not False:
            return f"write {request.ref}: served from cache"
        expected = inputs.write_model(request.ref[1])
        got = result["model"]
    elif request.op == "synthesize":
        expected, got = inputs.reads[request.ref], result["model"]
    else:
        expected, got = inputs.reads[request.ref], result["outputs"]
    return None if got == expected else f"{request.op} {request.ref}: result differs from reference"


# -- the workload ---------------------------------------------------------------


def warm(server: Server, names: List[str]) -> None:
    """Every read a phase can make, twice over: synthesize and simulate
    each NF (the second pass reaches the other workers' memory tiers)."""
    order = [HEAVY] + [n for n in names if n != HEAVY]
    work = [("synthesize", {"nf": n}) for n in order] + [
        ("simulate", {"nf": n, "packets": [{}]}) for n in order]
    # Interleave so the two heaviest requests run on different workers.
    work = [w for pair in zip(work[:len(order)], work[len(order):]) for w in pair]
    schedule = [(0.0, Request(op, body, ())) for op, body in work * 2]
    for reply in drive(server.port, schedule):
        if reply.error is not None or reply.status != 200:
            raise RuntimeError(f"warm-up {reply.request.op} failed: {reply.status} {reply.error}")


def pin_to_one_cpu(server: Server) -> int:
    """Move this process, the server and its workers, every thread of
    each, onto one CPU, and return it.

    Client, server and workers then share the CPU whose speed the
    reference workload reads (:class:`harness.Speed`).  Spread over two
    CPUs of a shared host, each ran at its own co-tenant's pace, and
    the readings of one said nothing about the other.  Set-up runs
    before the move, on every CPU.
    """
    cpu = min(os.sched_getaffinity(0))
    for pid in [os.getpid(), server.proc.pid] + child_pids(server.proc.pid):
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                os.sched_setaffinity(int(tid), {cpu})
            except OSError:
                pass
    return cpu


def run(ctx) -> Outcome:
    out = Outcome()
    fixed_s = ctx.seconds * FIXED_SHARE
    closed_s = ctx.seconds - fixed_s
    # Slots are drawn before the reference exists: the mix needs only
    # the corpus size, the reference needs the number of writes.
    from repro.nfs import nf_names

    window = [int(FIXED_RPS * fixed_s / WINDOWS), int(CLOSED_MAX_RPS * closed_s / WINDOWS)]
    slots = mix(ctx.seed, window * WINDOWS, nf_names())
    n_writes = sum(1 for phase in slots for slot in phase if slot < 0)
    inputs = reference(ctx, n_writes)

    def setup(i: int) -> Server:
        server = start_server(ctx, str(i))
        try:
            warm(server, inputs.names)
        except BaseException:
            stop_server(server)
            raise
        return server

    server, setup_s, setup_times = run_setups(setup, stop_server, ctx.speed)
    try:
        out.context["cpu"] = pin_to_one_cpu(server)
        results = measure(ctx, server, slots, closed_s, inputs, out)
    finally:
        stop_server(server)
    out.end_to_end["setup_s"] = (setup_s, "s")
    out.context["setup_s"] = setup_times
    out.context.update(results)
    return out


def measure(ctx, server: Server, slots: List[List[int]], closed_s: float,
            inputs: Inputs, out: Outcome) -> Dict[str, Any]:
    """Alternate fixed-rate and closed-loop windows (``slots`` holds
    their requests in that order)."""
    client = ServeClient(port=server.port, tracing=False)
    speed = ctx.speed
    fixed: List[Reply] = []
    closed: List[Reply] = []
    elapsed = 0.0
    first_reading = len(speed.readings)
    delta: Dict[str, Dict[str, float]] = {"counters": {}, "histograms": {}}
    try:
        for w in range(WINDOWS):
            before = client.metrics()
            # The rate is fixed in nominal seconds: on a slowed machine
            # the requests come further apart, so the server is as busy
            # and its queue as long as on an unloaded one.
            speed.read()
            factor = speed.factor()
            gap = 1 / FIXED_RPS / factor
            schedule = [(i * gap, request_for(slot, inputs)) for i, slot in enumerate(slots[2 * w])]
            window = drive(server.port, schedule, write_spans=ctx.trace)
            after = client.metrics()
            fixed += window
            for name, value in after["counters"].items():
                delta["counters"][name] = (delta["counters"].get(name, 0)
                                           + value - before["counters"].get(name, 0))
            for name, hist in after["histograms"].items():
                delta["histograms"][name] = (delta["histograms"].get(name, 0.0)
                                             + hist["sum"] - before["histograms"].get(name, {"sum": 0.0})["sum"])
            if ctx.trace and w == WINDOWS - 1:
                # The window's requests are still in the flight recorder.
                recent = recorder_spans(client, window)
            speed.read()
            replies, seconds = drive_closed(
                server.port, [request_for(slot, inputs) for slot in slots[2 * w + 1]], closed_s / WINDOWS)
            closed += replies
            elapsed += seconds
        speed.read()
        gauges = client.metrics()["gauges"]
    finally:
        client.close()
    peak_rss = process_tree_peak_rss_mb(server.proc.pid)

    for reply in fixed + closed:
        problem = verify(reply, inputs)
        out.check(problem is None, problem or "")

    # One factor for the whole measurement, from the median of its
    # readings: client, server and workers share one CPU, and a single
    # reading per window moved the window's figures by its own noise.
    factor = REFERENCE_S / median(speed.readings[first_reading:])

    def nominal(replies: List[Reply]) -> Tuple[Dict[Tuple, List[float]], List[float]]:
        reads: Dict[Tuple, List[float]] = {}
        writes: List[float] = []
        for r in replies:
            if r.request.write:
                writes.append(r.latency * factor)
            else:
                reads.setdefault(r.request.ref, []).append(r.latency * factor)
        return reads, writes

    open_reads, open_writes = nominal(fixed)
    closed_reads, closed_writes = nominal(closed)
    per_read = summary(per_op(closed_reads))
    out.end_to_end["p50_ms"] = (1000 * per_read["median"], "ms")
    out.end_to_end["tail_ms"] = (1000 * per_read["tail"], "ms")
    out.end_to_end["cold_s"] = (median(closed_writes), "s")
    out.end_to_end["ops_per_s"] = (len(closed) / (elapsed * factor), "1/s")
    out.end_to_end["peak_rss_mb"] = (peak_rss, "MB")
    if ctx.trace:
        out.per_layer.update(layer_metrics(fixed, closed, delta, gauges, recent, out))
    return {
        "windows": WINDOWS,
        "closed_read_nominal_s": per_read,
        "closed_write_nominal_s": summary(closed_writes),
        "closed_loop": {"requests": len(closed), "seconds": elapsed},
        "open_loop": {
            "rps": FIXED_RPS,
            "read_nominal_s": summary([t for times in open_reads.values() for t in times]),
            "write_nominal_s": summary(open_writes) if open_writes else None,
        },
        "speed": speed.record(),
        "connections": CONNECTIONS,
    }


# -- per-layer metrics, read from outside the server --------------------------------

#: Pipeline phase spans of a write's span tree, by the metric they feed.
PHASES = {
    "lang.parse_s": ("phase.parse",),
    "nfactor.normalize_s": ("phase.unfold", "phase.normalize"),
    "pdg.build_s": ("phase.flatten", "phase.pdg"),
    "slicing.slice_s": ("phase.slice",),
    "statealyzer.classify_s": ("phase.classify",),
    "refactor.build_s": ("phase.refactor",),
}


def layer_metrics(fixed: List[Reply], closed: List[Reply], delta: Dict[str, Dict[str, float]],
                  gauges: Dict[str, float], recent: Dict[str, List[float]],
                  out: Outcome) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of the fixed-rate windows.

    The workers run in the server's processes, so nothing here is
    timed by this process: ``delta`` holds the server's ``/metrics``
    counters and histogram sums summed over the fixed-rate windows,
    pipeline times come from the writes' span trees in its flight
    recorder, and engine counts from the statistics each write returns.
    """
    counters = delta["counters"]

    def hist_sum(name: str) -> float:
        return delta["histograms"].get(name, 0.0)

    writes = [r for r in fixed if r.request.write]
    phase_s: Dict[str, float] = {}
    for reply in writes:
        if not reply.spans:
            out.fail(f"write {reply.request.ref}: no span tree in the flight recorder")
            continue
        for span in reply.spans:
            phase_s[span["name"]] = phase_s.get(span["name"], 0.0) + span["dur"]
    metrics: Dict[str, Tuple[float, str]] = {
        name: (sum(phase_s.get(p, 0.0) for p in spans), "s") for name, spans in PHASES.items()
    }
    solver_s = hist_sum("solver.check_seconds")
    metrics["engine.self_s"] = (phase_s.get("phase.symbolic", 0.0) - solver_s, "s")
    stats = [r.payload["result"]["stats"] for r in writes]
    metrics["engine.states"] = (sum(s["states_explored"] for s in stats), "count")
    metrics["engine.paths"] = (sum(s["n_paths"] for s in stats), "count")
    metrics["refactor.entries"] = (sum(s["n_entries"] for s in stats), "count")
    metrics["engine.pruned_subsumed"] = (counters.get("se.pruned_subsumed", 0), "count")
    metrics["engine.witness_hits"] = (counters.get("se.witness_hits", 0), "count")

    checks = counters.get("solver.checks", 0)
    metrics["solver.checks"] = (checks, "count")
    for status in ("sat", "unsat", "unknown"):
        metrics[f"solver.{status}"] = (counters.get(f"solver.{status}", 0), "count")
    if checks:
        metrics["solver.unknown_ratio"] = (counters.get("solver.unknown", 0) / checks, "ratio")
        metrics["solver.cache_hit_ratio"] = (counters.get("solver.cache_hits", 0) / checks, "ratio")

    for tier in CACHE_TIERS:
        metrics[f"cache.hits.{tier}"] = (counters.get(f"cache.kind.{tier}.hits", 0), "count")
        metrics[f"cache.misses.{tier}"] = (counters.get(f"cache.kind.{tier}.misses", 0), "count")
    metrics["cache.bytes_written"] = (counters.get("cache.disk.bytes_written", 0), "bytes")
    misses = sum(counters.get(f"cache.kind.{t}.misses", 0) for t in CACHE_TIERS)
    metrics["serve.write_cache_misses"] = (misses / len(writes), "count")

    metrics["compile.lower_s"] = (hist_sum("sim.compile_seconds"), "s")
    packets = counters.get("sim.packets", 0)
    if packets:
        metrics["dataplane.guard_evals_per_pkt"] = (counters.get("sim.guard_evals", 0) / packets, "count")

    metrics["serve.queue_wait_ms"] = (1000 * median(recent["queue.wait"]), "ms")
    metrics["serve.worker_ms"] = (1000 * median(recent["worker"]), "ms")
    metrics["serve.rejected"] = (sum(1 for r in fixed + closed if r.status == 429), "count")
    metrics["serve.loop_lag_max_ms"] = (1000 * gauges.get("serve.loop_lag_max_seconds", 0.0), "ms")
    metrics["serve.gen_late_ms"] = (1000 * tail([r.start - r.due for r in fixed])[0], "ms")
    return metrics


def recorder_spans(client: ServeClient, replies: List[Reply]) -> Dict[str, List[float]]:
    """Durations of the ``queue.wait`` and ``worker`` spans of
    ``replies``, from the server's flight recorder."""
    spans: Dict[str, List[float]] = {"queue.wait": [], "worker": []}
    for reply in replies:
        for span in client.trace_detail(reply.request_id).get("spans", []):
            if span["name"] in spans:
                spans[span["name"]].append(span["dur"])
    return spans
